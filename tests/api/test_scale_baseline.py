"""One scale record per prepared circuit, adopted at the first CVS.

The first scale of a :class:`PreparedCircuit` records its baseline (the
flat snapshot and the power before scaling), and the first CVS on an
unmoved state records its outcome there too.  A later method's first
CVS, on a state with no timing engine yet, adopts the record: the
snapshot, the assignment and the timing arrays.  These tests pin that
adoption changes nothing: rows equal those of a fresh prepare in any
method order, every adopted snapshot, engine and CVS point equals a
fresh build, the first state's later moves never reach the record, and
the record is invisible to pickling, ``==`` and ``repr``.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

import repro.core.gscale
from flat_planes import assert_planes_equal
from repro.api import Flow, FlowConfig, PreparedCircuit
from repro.api.cache import _estimate_bytes
from repro.api.registry import (
    ScalingMethod,
    register_method,
    unregister_method,
)
from repro.core.cvs import _CvsPoint, run_cvs
from repro.core.state import ScaleBaseline, ScalingOptions, ScalingState
from repro.flow.store import normalize_row
from repro.mapping.match import MatchTable
from repro.netlist.flat import build_flat
from repro.timing.incremental import IncrementalTiming, _sweep

RAILS = {
    "dual": ("z4ml", FlowConfig().rails),
    "three": ("gen:layered:width=10:depth=10:seed=1", (1.8, 1.0, 0.6)),
}
ORDER = ("gscale", "cvs", "dscale")


@pytest.fixture(scope="module", params=sorted(RAILS))
def flow(request):
    circuit, rails = RAILS[request.param]
    config = FlowConfig(circuit=circuit, rails=rails)
    library = config.build_library()
    return Flow(config, library=library, match_table=MatchTable(library))


def row(artifact):
    return normalize_row(artifact.to_row())


def bits(values):
    return [value.hex() for value in values]


def test_adopted_methods_match_fresh_prepares(flow, monkeypatch):
    adopted = []
    adopting = []
    replay = ScalingState.replay
    from_arrays = IncrementalTiming.from_arrays.__func__

    def replayed(self, *args):
        adopting.append(self)
        return replay(self, *args)

    def checked(cls, calculator, tspec, arrays):
        engine = from_arrays(cls, calculator, tspec, arrays)
        # At adoption: the rebound snapshot is a fresh build of this
        # job's network, and the copied arrays are a fresh sweep of the
        # assignment the first CVS left.
        network = calculator.network
        flat = adopting[-1].flat()
        fresh = build_flat(network, calculator)
        assert_planes_equal(flat, fresh)
        swept = _sweep(fresh, calculator, tspec)
        _, arrival, required, load = engine.levelized_arrays()
        assert bits(load) == bits(swept[0])
        assert bits(arrival) == bits(swept[1])
        assert bits(required) == bits(swept[2])
        adopted.append(network)
        return engine

    monkeypatch.setattr(ScalingState, "replay", replayed)
    monkeypatch.setattr(IncrementalTiming, "from_arrays", classmethod(checked))
    prepared = flow.prepare()
    for method in ORDER:
        ctx = flow.replace(method=method).execute(prepared=prepared)
        assert ctx.state.baseline is prepared.scale_baseline
        alone = flow.replace(method=method).run(prepared=flow.prepare())
        assert row(ctx.artifact) == row(alone), method
    assert len(adopted) == len(ORDER) - 1


def test_record_is_not_the_first_states_snapshot(flow):
    prepared = flow.prepare()
    ctx = flow.replace(method="gscale").execute(prepared=prepared)
    baseline = prepared.scale_baseline
    state = ctx.state
    assert state.n_resized > 0  # Gscale patched its live snapshot
    live = state.flat()
    for plane in (
        "no_wire",
        "drive",
        "energy",
        "fi_intr",
        "rp_intr",
        "e_cap",
    ):
        assert getattr(baseline.flat, plane) is not getattr(live, plane)
    assert baseline.flat.network is state.network
    assert baseline.flat.order is state.network.topological()
    # The record still equals a build on the untouched network.
    copy = prepared.network
    fresh = ScalingState(
        copy,
        flow.library,
        prepared.tspec,
        activity=prepared.activity,
        options=flow.config.options,
    )
    assert_planes_equal(baseline.flat, build_flat(copy, fresh.calc))
    assert baseline.power == fresh.power()


def test_adoption_needs_the_same_key(flow, watch_adoptions):
    prepared = flow.prepare()
    flow.replace(method="cvs").run(prepared=prepared)
    baseline = prepared.scale_baseline
    library = flow.library
    options = flow.config.options

    def state(network=None, **changes):
        kwargs = dict(
            tspec=prepared.tspec,
            activity=prepared.activity,
            options=options,
        )
        kwargs.update(changes)
        return ScalingState(
            network or prepared.network, library, **kwargs
        )

    assert baseline.fits(state())
    assert not baseline.fits(state(tspec=prepared.tspec * 1.1))
    assert not baseline.fits(state(options=ScalingOptions(clock_mhz=40.0)))
    assert not baseline.fits(state(activity=None))
    other = Flow(FlowConfig(circuit="x2"), library=library).prepare()
    assert not baseline.fits(state(other.network))
    # A new key records a new baseline in its place, adopting nothing.
    adopted = watch_adoptions(prepared)
    clock = ScalingOptions(clock_mhz=40.0)
    ctx = flow.replace(method="cvs", options=clock).execute(prepared=prepared)
    assert not adopted
    assert prepared.scale_baseline is not baseline
    assert ctx.state.baseline is prepared.scale_baseline
    assert prepared.scale_baseline.options.clock_mhz == 40.0


def test_flow_scale_builds_fresh(flow):
    prepared = flow.prepare()
    flow.run(prepared=prepared)
    state, _ = flow.scale(
        prepared.network, prepared.tspec, activity=prepared.activity
    )
    assert state.baseline is None


def test_record_refuses_a_moved_state(flow):
    prepared = flow.prepare()
    state = ScalingState(
        prepared.network,
        flow.library,
        prepared.tspec,
        activity=prepared.activity,
    )
    power = state.power()
    state.demote(state.network.gates()[0])
    with pytest.raises(ValueError):
        ScaleBaseline(state, power)


def test_baseline_leaves_pickle_eq_and_repr_alone(flow):
    prepared = flow.prepare()
    before = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
    size = _estimate_bytes(prepared)
    text = repr(prepared)
    twin = PreparedCircuit(
        prepared.name,
        prepared.network,
        prepared.tspec,
        prepared.min_delay,
        prepared.activity,
    )
    flow.replace(method="dscale").run(prepared=prepared)
    assert prepared.scale_baseline is not None
    assert pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert _estimate_bytes(prepared) == size
    assert repr(prepared) == text
    assert prepared == twin


# -- the recorded CVS point -------------------------------------------


@pytest.fixture(scope="module")
def fresh_rows(flow):
    """Each method's row on a prepare of its own (nothing to adopt)."""
    return {
        method: row(flow.replace(method=method).run(prepared=flow.prepare()))
        for method in ORDER
    }


def fresh_state(prepared, like):
    """An unmoved state on the prepared network, keyed as ``like``."""
    state = ScalingState(
        prepared.network,
        like.library,
        like.tspec,
        activity=like.activity,
        options=like.options,
    )
    assert state.baseline is None
    return state


def engine_bits(state):
    _, arrival, required, load = state.timing().levelized_arrays()
    return bits(load), bits(arrival), bits(required)


def assert_same_cvs(state, result, fresh, fresh_result):
    """``state`` and ``result`` are where ``fresh``'s CVS left it."""
    assert list(state.levels.items()) == list(fresh.levels.items())
    assert list(state.lc_edges) == list(fresh.lc_edges)
    assert engine_bits(state) == engine_bits(fresh)
    assert state.move_stats == fresh.move_stats
    assert result == fresh_result


@pytest.fixture
def watch_adoptions(monkeypatch):
    """Check every CVS adoption against a fresh CVS on ``prepared``.

    Returns the adopting states, in order.
    """
    adopted = []
    adopt = _CvsPoint.adopt

    def install(prepared):
        def checked(point, state, flat):
            assert not state.timed  # only an engine-less state adopts
            result = adopt(point, state, flat)
            fresh = fresh_state(prepared, state)
            assert_same_cvs(state, result, fresh, run_cvs(fresh))
            assert_planes_equal(state.flat(), fresh.flat())
            adopted.append(state)
            return result

        monkeypatch.setattr(_CvsPoint, "adopt", checked)
        return adopted

    return install


@pytest.mark.parametrize(
    "order", list(itertools.permutations(ORDER)), ids="-".join
)
def test_every_method_order_matches_fresh_prepares(
    flow, fresh_rows, watch_adoptions, order
):
    prepared = flow.prepare()
    adopted = watch_adoptions(prepared)
    for method in order:
        artifact = flow.replace(method=method).run(prepared=prepared)
        assert row(artifact) == fresh_rows[method], method
    # Each method runs one first CVS; the first method's is recorded.
    assert len(adopted) == len(order) - 1
    assert prepared.scale_baseline.cvs is not None


def test_output_converters_replay_in_order(flow, watch_adoptions):
    # Converters only at the outputs: CVS itself adds some, in order.
    flow = flow.replace(options=ScalingOptions(lc_at_outputs=True))
    prepared = flow.prepare()
    adopted = watch_adoptions(prepared)
    for method in ORDER:
        job = flow.replace(method=method)
        alone = job.run(prepared=flow.prepare())
        assert row(job.run(prepared=prepared)) == row(alone), method
    assert len(adopted) == len(ORDER) - 1
    assert len(prepared.scale_baseline.cvs.lc_edges) > 1


def test_cvs_record_survives_gscale(flow):
    prepared = flow.prepare()
    state = flow.replace(method="gscale").execute(prepared=prepared).state
    point = prepared.scale_baseline.cvs
    # Gscale's resizes and follow-up CVS moved its state on ...
    assert state.n_resized > 0
    assert tuple(state.levels.items()) != point.levels
    # ... but the record is still where a fresh CVS leaves a state.
    fresh = fresh_state(prepared, state)
    fresh_result = run_cvs(fresh)
    assert point.levels == tuple(fresh.levels.items())
    assert point.lc_edges == tuple(fresh.lc_edges)
    assert tuple(bits(a) for a in point.arrays) == engine_bits(fresh)
    assert point.stats == fresh.move_stats
    assert point.result == fresh_result


def _demote(state):
    state.demote(state.network.gates()[-1])


def _demote_and_promote(state):
    gate = state.network.gates()[-1]
    state.demote(gate)
    state.promote(gate)  # the assignment is empty again, but moved


def _upsize(state):
    library = state.library
    for gate in state.network.gates():
        bigger = library.next_size_up(state.cell(gate))
        if bigger is not None:
            state.resize(gate, bigger)
            return
    raise AssertionError("no resizable gate")


@pytest.mark.parametrize(
    "move",
    [_demote, _demote_and_promote, _upsize],
    ids=["demote", "demote-promote", "upsize"],
)
def test_a_moved_state_runs_its_own_cvs(flow, watch_adoptions, move):
    prepared = flow.prepare()
    flow.replace(method="cvs").run(prepared=prepared)
    baseline = prepared.scale_baseline
    point = baseline.cvs
    adopted = watch_adoptions(prepared)
    state = ScalingState(
        prepared.network,
        flow.library,
        prepared.tspec,
        activity=prepared.activity,
        options=flow.config.options,
    )
    assert baseline.fits(state)
    state.baseline = baseline
    move(state)
    result = run_cvs(state)
    assert not adopted
    assert baseline.cvs is point  # a moved state records nothing either
    fresh = fresh_state(prepared, state)
    move(fresh)
    assert_same_cvs(state, result, fresh, run_cvs(fresh))


def test_only_the_first_cvs_adopts(flow, watch_adoptions, monkeypatch):
    prepared = flow.prepare()
    flow.replace(method="cvs").run(prepared=prepared)
    adopted = watch_adoptions(prepared)
    calls = []
    run = repro.core.gscale.run_cvs

    def counted(state):
        calls.append(state)
        return run(state)

    monkeypatch.setattr(repro.core.gscale, "run_cvs", counted)
    state = flow.replace(method="gscale").execute(prepared=prepared).state
    assert len(calls) > 1  # the initial CVS and the follow-ups
    assert adopted == [state]
    scaled, _ = flow.scale(
        prepared.network, prepared.tspec, activity=prepared.activity
    )
    assert scaled.baseline is None
    assert adopted == [state]


def test_msv_job_group_keeps_its_rows(flow, watch_adoptions):
    msv = dict(method="dscale", non_adjacent=True, retarget_shifters=True)
    jobs = (
        flow.replace(**msv),
        flow.replace(cost_model="placement", **msv),
        flow.replace(method="gscale"),
    )
    alone = [row(job.run(prepared=flow.prepare())) for job in jobs]
    prepared = flow.prepare()
    adopted = watch_adoptions(prepared)
    assert [row(job.run(prepared=prepared)) for job in jobs] == alone
    assert len(adopted) == len(jobs) - 1


def test_a_timed_state_runs_its_own_cvs(flow, watch_adoptions):
    prepared = flow.prepare()
    flow.replace(method="cvs").run(prepared=prepared)
    baseline = prepared.scale_baseline
    point = baseline.cvs
    adopted = watch_adoptions(prepared)
    state = fresh_state(prepared, baseline)
    assert baseline.fits(state)
    state.baseline = baseline
    state.timing()  # the engine exists before the first CVS
    result = run_cvs(state)
    assert not adopted
    assert baseline.cvs is point
    fresh = fresh_state(prepared, state)
    assert_same_cvs(state, result, fresh, run_cvs(fresh))


@pytest.fixture
def no_cvs_method():
    """A registered method that never calls ``run_cvs``."""
    name = "validate_only"
    register_method(ScalingMethod(name, lambda state, config: None))
    yield name
    unregister_method(name)


def test_a_method_without_cvs_leaves_the_point_to_the_next(
    flow, fresh_rows, watch_adoptions, no_cvs_method
):
    prepared = flow.prepare()
    adopted = watch_adoptions(prepared)
    job = flow.replace(method=no_cvs_method)
    alone = row(job.run(prepared=flow.prepare()))
    assert row(job.run(prepared=prepared)) == alone
    assert prepared.scale_baseline.cvs is None
    for method in ORDER:
        artifact = flow.replace(method=method).run(prepared=prepared)
        assert row(artifact) == fresh_rows[method], method
    # The first of the three records the point; the other two adopt it.
    assert prepared.scale_baseline.cvs is not None
    assert len(adopted) == len(ORDER) - 1
