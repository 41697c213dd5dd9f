"""Gscale tests: separator-guided sizing, budgets, the paper's loop."""

import pytest

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath, ripple_adder
from repro.core.cvs import run_cvs
from repro.core.gscale import get_cpn, resize_profile, run_gscale
from repro.core.state import ScalingState
from repro.graphalg.separator import is_separator


@pytest.fixture(scope="module")
def prepared(library):
    from repro.mapping.match import MatchTable

    network = mixed_datapath(width=8, n_control=6, n_products=14, seed=55)
    return Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(network)


def fresh_state(prepared, library):
    return ScalingState(prepared.network, library,
                        tspec=prepared.tspec, activity=prepared.activity)


def test_gscale_at_least_as_good_as_cvs(prepared, library):
    cvs_state = fresh_state(prepared, library)
    run_cvs(cvs_state)
    cvs_power = cvs_state.power().total

    gscale_state = fresh_state(prepared, library)
    run_gscale(gscale_state)
    assert gscale_state.power().total <= cvs_power + 1e-9


def test_gscale_respects_area_budget(prepared, library):
    state = fresh_state(prepared, library)
    run_gscale(state, area_budget=0.10)
    assert state.sizing_area_increase_ratio <= 0.10 + 1e-9


def test_zero_budget_means_no_resizes(prepared, library):
    state = fresh_state(prepared, library)
    result = run_gscale(state, area_budget=0.0)
    assert result.resized == []
    assert state.sizing_area_increase_ratio == pytest.approx(0.0)


def test_gscale_meets_timing_and_cluster_property(prepared, library):
    state = fresh_state(prepared, library)
    run_gscale(state)
    state.validate()
    for name in state.low_nodes():
        for reader in state.network.fanouts(name):
            assert state.is_low(reader)


def test_gscale_raises_low_ratio_over_cvs(prepared, library):
    cvs_state = fresh_state(prepared, library)
    run_cvs(cvs_state)

    gscale_state = fresh_state(prepared, library)
    result = run_gscale(gscale_state)
    assert gscale_state.n_low >= cvs_state.n_low
    assert set(result.demoted) == set(gscale_state.low_nodes())


def test_cpn_is_a_separatable_fanin_region(prepared, library):
    state = fresh_state(prepared, library)
    tcb = run_cvs(state).tcb
    if not tcb:
        pytest.skip("nothing blocked on this circuit")
    analysis = state.timing()
    nodes, edges, sources, sinks = get_cpn(state, analysis, tcb)
    assert set(sinks) <= set(nodes)
    assert set(sinks) == set(tcb)
    cone = state.network.transitive_fanin(tcb)
    assert set(nodes) <= cone
    # Sanity: the full node set always separates sources from sinks.
    assert is_separator(nodes, edges, sources, sinks, nodes)


def test_resize_profile_reports_positive_area_penalty(prepared, library):
    state = fresh_state(prepared, library)
    for name in state.network.gates():
        profile = resize_profile(state, name)
        if profile is None:
            biggest = state.cell(name)
            assert library.next_size_up(biggest) is None
            continue
        area_penalty, net_gain, driver_penalty = profile
        assert area_penalty > 0
        assert driver_penalty >= 0
        break


def test_max_iter_zero_is_cvs_plus_one_round(prepared, library):
    state = fresh_state(prepared, library)
    result = run_gscale(state, max_iter=0)
    state.validate()
    assert result.failed_pushes <= 1


def test_no_harm_fallback(prepared, library):
    """Gscale never reports worse power than its own CVS start."""
    state = fresh_state(prepared, library)
    cvs_reference = fresh_state(prepared, library)
    run_cvs(cvs_reference)
    run_gscale(state)
    assert state.power().total <= cvs_reference.power().total + 1e-9


def test_resized_gates_keep_function(prepared, library):
    from repro.netlist.validate import check_network

    state = fresh_state(prepared, library)
    result = run_gscale(state)
    check_network(state.network, require_mapped=True)
    for name in result.resized:
        node = state.network.nodes[name]
        assert state.cell(name).function == node.function


def test_gscale_on_pure_chain_circuit(library):
    """Adders: sizing can only push the TCB a little; must stay legal."""
    from repro.mapping.match import MatchTable

    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(ripple_adder(width=10))
    state = ScalingState(prepared.network, library, tspec=prepared.tspec,
                         activity=prepared.activity)
    result = run_gscale(state)
    state.validate()
    assert state.sizing_area_increase_ratio <= 0.10 + 1e-9
    assert result.iterations >= 1 or not result.final_tcb
