"""Differential: the constrain stage on one timing engine.

``constrain_stage`` times a circuit on one engine from Dmin sizing
through every recovery pass and budget check.  Its budget, Dmin and
cells must equal the serial loop it replaced: the ``TimingAnalysis``
sizing oracles of ``test_mapper`` plus a fresh ``TimingAnalysis`` for
every budget check.
"""

import pytest

from repro.api.config import FlowConfig
from repro.api.flow import FlowContext, constrain_stage
from repro.bench.mcnc import load_circuit
from repro.mapping.mapper import map_network
from repro.mapping.match import MatchTable
from repro.opt.script import rugged
from repro.timing.delay import DelayCalculator
from repro.timing.sta import TimingAnalysis
from test_mapper import (
    DIFF_CIRCUITS,
    DIFF_RAILS,
    _cells,
    _reference_recover_area,
    _reference_speed_up_sizing,
)


def _reference_constrain(network, library, slack_factor, po_load):
    min_delay = _reference_speed_up_sizing(network, library, po_load)
    achieved = min_delay
    for _ in range(4):
        budget = slack_factor * min_delay
        _reference_recover_area(network, library, budget, po_load)
        calculator = DelayCalculator(network, library, po_load=po_load)
        achieved = TimingAnalysis(calculator, budget).worst_delay
        if achieved >= min_delay - 1e-9:
            break
        min_delay = achieved
    return achieved, min_delay


@pytest.fixture(scope="module", params=sorted(DIFF_RAILS))
def rail_config(request):
    config = FlowConfig(rails=DIFF_RAILS[request.param])
    library = config.build_library()
    return config, library, MatchTable(library)


@pytest.mark.parametrize("circuit", DIFF_CIRCUITS)
def test_constrain_stage_matches_timing_analysis_reference(
    circuit, rail_config
):
    config, library, match_table = rail_config
    network = load_circuit(circuit)
    rugged(network)
    mapped = map_network(network, library, match_table=match_table)
    theirs = mapped.copy()

    ctx = FlowContext(config=config, library=library, network=mapped)
    constrain_stage(ctx)
    tspec, min_delay = _reference_constrain(
        theirs, library, config.slack_factor, config.options.po_load
    )
    assert ctx.tspec.hex() == tspec.hex()
    assert ctx.min_delay.hex() == min_delay.hex()
    assert _cells(mapped) == _cells(theirs)
