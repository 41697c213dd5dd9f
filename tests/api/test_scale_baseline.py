"""One scale baseline per prepared circuit.

The first scale of a :class:`PreparedCircuit` records its baseline (the
flat snapshot, the engine's swept arrays, the power before scaling)
and later methods adopt copies of it.  These tests pin that adoption
changes nothing: rows equal those of a fresh prepare in any method
order, every adopted snapshot and engine equals a fresh build, the
first state's later moves never reach the record, and the record is
invisible to pickling, ``==`` and ``repr``.
"""

from __future__ import annotations

import pickle

import pytest

from flat_planes import assert_planes_equal
from repro.api import Flow, FlowConfig, PreparedCircuit
from repro.api.cache import _estimate_bytes
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
    from_arrays = IncrementalTiming.from_arrays.__func__

    def checked(cls, calculator, tspec, arrays, flat_source=None):
        engine = from_arrays(cls, calculator, tspec, arrays, flat_source)
        # At adoption: the copied snapshot is a fresh build of this
        # job's network, and the copied arrays are a fresh sweep.
        network = calculator.network
        flat = flat_source()
        fresh = build_flat(network, calculator)
        assert_planes_equal(flat, fresh)
        swept = _sweep(fresh, calculator, tspec)
        _, arrival, required, load = engine.levelized_arrays()
        assert bits(load) == bits(swept[0])
        assert bits(arrival) == bits(swept[1])
        assert bits(required) == bits(swept[2])
        adopted.append(network)
        return engine

    monkeypatch.setattr(
        IncrementalTiming, "from_arrays", classmethod(checked)
    )
    prepared = flow.prepare()
    for method in ORDER:
        ctx = flow.replace(method=method).execute(prepared=prepared)
        first = method == ORDER[0]
        assert (ctx.state.baseline is None) is first
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
    for plane in ("no_wire", "drive", "energy", "fi_intr", "rp_intr",
                  "e_cap"):
        assert getattr(baseline.flat, plane) is not getattr(live, plane)
    assert baseline.flat.network is None
    assert baseline.flat.order is not state.network.topological()
    # The record still equals a build on an untouched copy.
    copy = prepared.fresh_copy()
    fresh = ScalingState(
        copy, flow.library, prepared.tspec, activity=prepared.activity,
        options=flow.config.options,
    )
    assert_planes_equal(baseline.flat, build_flat(copy, fresh.calc))
    _, arrival, required, load = fresh.timing().levelized_arrays()
    assert baseline.arrays == (load, arrival, required)
    assert baseline.power == fresh.power()
    assert baseline.initial_area == fresh.initial_area


def test_adoption_needs_the_same_key(flow):
    prepared = flow.prepare()
    flow.replace(method="cvs").run(prepared=prepared)
    baseline = prepared.scale_baseline
    library = flow.library
    options = flow.config.options

    def state(network=None, **changes):
        kwargs = dict(
            tspec=prepared.tspec, activity=prepared.activity,
            options=options,
        )
        kwargs.update(changes)
        return ScalingState(
            network or prepared.fresh_copy(), library, baseline=baseline,
            **kwargs,
        )

    assert state().baseline is baseline
    assert state(tspec=prepared.tspec * 1.1).baseline is None
    assert state(options=ScalingOptions(clock_mhz=40.0)).baseline is None
    assert state(activity=None).baseline is None
    other = Flow(FlowConfig(circuit="x2"), library=library).prepare()
    assert state(other.fresh_copy()).baseline is None
    # A new key records a new baseline in its place.
    flow.replace(
        method="cvs", options=ScalingOptions(clock_mhz=40.0)
    ).run(prepared=prepared)
    assert prepared.scale_baseline is not baseline
    assert prepared.scale_baseline.options.clock_mhz == 40.0


def test_flow_scale_builds_fresh(flow):
    prepared = flow.prepare()
    flow.run(prepared=prepared)
    state, _ = flow.scale(
        prepared.fresh_copy(), prepared.tspec, activity=prepared.activity
    )
    assert state.baseline is None


def test_record_refuses_a_moved_state(flow):
    prepared = flow.prepare()
    state = ScalingState(
        prepared.fresh_copy(), flow.library, prepared.tspec,
        activity=prepared.activity,
    )
    power = state.power()
    state.demote(state.network.gates()[0])
    with pytest.raises(ValueError):
        ScaleBaseline.record(state, power)


def test_baseline_leaves_pickle_eq_and_repr_alone(flow):
    prepared = flow.prepare()
    before = pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
    size = _estimate_bytes(prepared)
    text = repr(prepared)
    twin = PreparedCircuit(
        prepared.name, prepared.network, prepared.tspec,
        prepared.min_delay, prepared.activity,
    )
    flow.replace(method="dscale").run(prepared=prepared)
    assert prepared.scale_baseline is not None
    assert pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert _estimate_bytes(prepared) == size
    assert repr(prepared) == text
    assert prepared == twin
