"""Converter materialization tests: virtual model == physical netlist."""

import pytest

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath
from repro.core.dscale import run_dscale
from repro.core.restore import materialize_converters, materialized_timing
from repro.core.state import ScalingState
from repro.netlist.validate import check_network, networks_equivalent


@pytest.fixture(scope="module")
def scaled_state(library):
    from repro.mapping.match import MatchTable

    network = mixed_datapath(width=8, n_control=6, n_products=14, seed=77)
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(network)
    state = ScalingState(prepared.network, library, tspec=prepared.tspec,
                         activity=prepared.activity)
    run_dscale(state)
    return state


def test_materialized_network_is_structurally_sound(scaled_state):
    design = materialize_converters(scaled_state)
    check_network(design.network, require_mapped=True)


def test_one_converter_node_per_converted_driver(scaled_state):
    design = materialize_converters(scaled_state)
    drivers = {d for d, _ in scaled_state.lc_edges}
    # Materialization is per edge-record; each converted driver appears.
    materialized_drivers = {
        design.network.nodes[c].fanins[0] for c in design.converters
    }
    assert drivers <= materialized_drivers


def test_functionality_unchanged(scaled_state):
    design = materialize_converters(scaled_state)
    assert networks_equivalent(scaled_state.network, design.network)


def test_converter_nodes_ride_high_rail(scaled_state):
    design = materialize_converters(scaled_state)
    for name in design.converters:
        # Dual-Vdd shifters all target rail 0, the high supply.
        assert design.levels[name] == 0
        assert design.network.nodes[name].cell.is_level_converter


def test_levels_carried_over(scaled_state):
    design = materialize_converters(scaled_state)
    for name, low in scaled_state.levels.items():
        assert design.levels[name] == low


def test_materialized_timing_meets_tspec(scaled_state):
    design = materialize_converters(scaled_state)
    analysis = materialized_timing(scaled_state, design)
    # The physical netlist must honour the same constraint the virtual
    # model was optimized under (identical delay model, real nodes).
    assert analysis.worst_delay <= scaled_state.tspec + 1e-6


def test_original_untouched_by_materialization(scaled_state):
    names_before = set(scaled_state.network.nodes)
    materialize_converters(scaled_state)
    assert set(scaled_state.network.nodes) == names_before
