"""CVS (clustered voltage scaling) tests: the paper's baseline invariants."""

import pytest

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath, ripple_adder
from repro.core.cvs import run_cvs
from repro.core.state import ScalingOptions, ScalingState
from repro.timing.delay import DelayCalculator


@pytest.fixture(scope="module")
def prepared(library):
    from repro.mapping.match import MatchTable

    network = mixed_datapath(width=8, n_control=6, n_products=14, seed=21)
    return Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(network)


def fresh_state(prepared, library, slack=1.0):
    network = prepared.network
    return ScalingState(network, library,
                        tspec=prepared.tspec * slack,
                        activity=prepared.activity)


def test_cluster_property(prepared, library):
    """Every fanout of a low gate is low: the defining CVS restriction."""
    state = fresh_state(prepared, library)
    run_cvs(state)
    assert state.n_low > 0
    for name in state.low_nodes():
        for reader in state.network.fanouts(name):
            assert state.is_low(reader), f"{name} drives high {reader}"


def test_no_internal_converters(prepared, library):
    state = fresh_state(prepared, library)
    run_cvs(state)
    assert state.lc_edges == set()  # lc_at_outputs=False default


def test_timing_met_after_cvs(prepared, library):
    state = fresh_state(prepared, library)
    run_cvs(state)
    analysis = state.timing()
    assert analysis.meets_timing()
    state.validate()


def test_cvs_saves_power(prepared, library):
    state = fresh_state(prepared, library)
    before = state.power().total
    run_cvs(state)
    assert state.power().total < before


def test_tcb_definition(prepared, library):
    """TCB = high gates, topologically eligible, blocked by timing only."""
    state = fresh_state(prepared, library)
    result = run_cvs(state)
    for name in result.tcb:
        assert not state.is_low(name)
        readers = state.network.fanouts(name)
        assert all(state.is_low(r) for r in readers)
        # Demoting a TCB member must break timing.
        from repro.core.gscale import demotion_shortfall

        analysis = state.timing()
        assert demotion_shortfall(state, analysis, name) > 0


def test_cvs_idempotent(prepared, library):
    state = fresh_state(prepared, library)
    first = run_cvs(state)
    second = run_cvs(state)
    assert second.demoted == []
    assert second.tcb == first.tcb


def test_zero_slack_budget_keeps_timing(prepared, library):
    # tspec exactly at the current worst delay: gates on critical paths
    # cannot absorb the 24% low-voltage penalty, but shallow cones may;
    # either way the constraint must still hold afterwards.
    state = fresh_state(prepared, library)
    state.tspec = state.timing().worst_delay
    run_cvs(state)
    analysis = state.timing()
    assert analysis.meets_timing(1e-9)
    critical = analysis.critical_path()
    assert any(not state.is_low(name) for name in critical
               if not state.network.nodes[name].is_input)


def test_loose_timing_demotes_everything(prepared, library):
    state = fresh_state(prepared, library, slack=10.0)
    run_cvs(state)
    assert state.low_ratio == 1.0


def test_demotions_monotone_in_slack(prepared, library):
    tight = fresh_state(prepared, library, slack=1.0)
    loose = fresh_state(prepared, library, slack=1.1)
    run_cvs(tight)
    run_cvs(loose)
    assert loose.n_low >= tight.n_low


def test_extends_existing_cluster(prepared, library):
    """Gscale's re-invocation: CVS must extend, not restart."""
    state = fresh_state(prepared, library)
    run_cvs(state)
    demoted_before = set(state.low_nodes())
    state.tspec *= 1.05  # simulate new slack appearing
    follow_up = run_cvs(state)
    assert demoted_before <= set(state.low_nodes())
    assert all(name not in demoted_before for name in follow_up.demoted)


def test_adder_chain_blocks_cvs(library):
    """Carry chains leave CVS little to harvest (paper: my_adder 11.8%)."""
    from repro.mapping.match import MatchTable

    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(ripple_adder(width=12))
    state = ScalingState(prepared.network, library, tspec=prepared.tspec,
                         activity=prepared.activity)
    run_cvs(state)
    assert 0.0 < state.low_ratio < 1.0


def test_po_converter_costs_timing(prepared, library):
    convert = ScalingState(
        prepared.network, library, tspec=prepared.tspec,
        activity=prepared.activity,
        options=ScalingOptions(lc_at_outputs=True),
    )
    keep = ScalingState(
        prepared.network, library, tspec=prepared.tspec,
        activity=prepared.activity,
    )
    run_cvs(convert)
    run_cvs(keep)
    convert.validate()
    # Boundary conversion consumes slack, so it can only demote fewer.
    assert convert.n_low <= keep.n_low


def _three_rail_state():
    flow = Flow(FlowConfig(circuit="gen:layered:width=10:depth=10:seed=1",
                           rails=(1.8, 1.0, 0.6)))
    prepared = flow.prepare()
    return ScalingState(prepared.network, flow.library,
                        tspec=prepared.tspec, activity=prepared.activity)


@pytest.mark.parametrize("case", ["dual", "dual-po-converters", "three-rail"])
def test_each_demotion_derives_its_net_change_once(
    prepared, library, monkeypatch, case
):
    """The pass's check and its move share one ``demotion_net_change``
    per gate and rail boundary; a demote that derives its own again
    decides exactly the same."""

    def state_for_case():
        if case == "three-rail":
            return _three_rail_state()
        return ScalingState(
            prepared.network, library, tspec=prepared.tspec,
            activity=prepared.activity,
            options=ScalingOptions(lc_at_outputs=case != "dual"),
        )

    def outcome(state, result):
        return (result.demoted, result.tcb, dict(state.levels),
                set(state.lc_edges))

    derive = DelayCalculator.demotion_net_change
    calls = {}

    def counted(calc, name, lc_at_outputs, target=None):
        key = (name, target)
        calls[key] = calls.get(key, 0) + 1
        return derive(calc, name, lc_at_outputs, target)

    monkeypatch.setattr(DelayCalculator, "demotion_net_change", counted)
    state = state_for_case()
    shared = outcome(state, run_cvs(state))
    demotions = [
        (name, target)
        for name, rail in shared[2].items()
        for target in range(1, rail + 1)
    ]
    assert demotions
    assert all(calls[key] == 1 for key in demotions)
    assert all(count == 1 for count in calls.values())

    monkeypatch.setattr(DelayCalculator, "demotion_net_change", derive)
    demote = ScalingState.demote
    monkeypatch.setattr(
        ScalingState, "demote",
        lambda self, name, target=None, change=None: demote(
            self, name, target
        ),
    )
    state = state_for_case()
    assert outcome(state, run_cvs(state)) == shared
