"""A scaling state keeps one snapshot, one engine and one power plane.

Scaling never writes the network and a resize patches the state's flat
snapshot in place, so nothing rebuilds or replaces the snapshot, the
timing engine or the power plane while the state lives.  These tests
run CVS, a 3-rail Dscale with both N-rail extensions and a Gscale that
commits resizes, on a fresh state and on one that adopts a recorded
CVS point.  They check that the three objects never change, that the
snapshot is built at most once (never on the adopting state) and that
the patched snapshot equals a fresh build, plane by plane.
"""

from __future__ import annotations

import functools

import pytest

import repro.core.state
import repro.netlist.flat
import repro.timing.incremental
from flat_planes import assert_planes_equal
from repro.api import Flow, FlowConfig
from repro.core.cvs import run_cvs
from repro.core.dscale import run_dscale
from repro.core.gscale import run_gscale
from repro.core.moves import MoveEngine
from repro.core.state import ScaleBaseline, ScalingState
from repro.netlist.flat import build_flat

CIRCUIT = "gen:layered:width=10:depth=10:seed=1"
RAILS = (1.8, 1.0, 0.6)


@functools.cache
def _prepared():
    flow = Flow(FlowConfig(circuit=CIRCUIT, rails=RAILS))
    return flow.prepare(), flow.library


def _state():
    prepared, library = _prepared()
    return ScalingState(
        prepared.network,
        library,
        prepared.tspec,
        activity=prepared.activity,
    )


@pytest.fixture
def watch(monkeypatch):
    """Count snapshot builds and pin each state's objects at every try.

    ``builds`` counts the state's builds (through
    ``repro.netlist.flat.build_flat``) and ``private`` an engine's own
    (through ``repro.timing.incremental.build_flat``); ``planes`` lists
    the plane of every :meth:`ScalingState.power` call; ``pinned``
    maps a state to the snapshot and engine it first showed a try.
    """
    _prepared()  # prepare's own engine builds its snapshot
    seen = {"builds": 0, "private": 0, "planes": [], "pinned": {}}

    def counted(module, key):
        build = getattr(module, "build_flat")

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(module, "build_flat", wrapper)

    counted(repro.netlist.flat, "builds")
    counted(repro.timing.incremental, "private")
    estimate = repro.core.state.estimate_power_calc

    def recorded(*args, plane=None, **kwargs):
        seen["planes"].append(plane)
        return estimate(*args, plane=plane, **kwargs)

    monkeypatch.setattr(repro.core.state, "estimate_power_calc", recorded)
    try_move = MoveEngine.try_move

    def pinned_try(self, move, **kwargs):
        _pin(seen, self.state)
        return try_move(self, move, **kwargs)

    monkeypatch.setattr(MoveEngine, "try_move", pinned_try)
    return seen


def _pin(seen, state):
    now = (state.flat(), state.timing())
    first = seen["pinned"].setdefault(state, now)
    assert first[0] is now[0] and first[1] is now[1]


def _scale(seen, state):
    """CVS, 3-rail Dscale (both extensions), Gscale; check after each."""
    del seen["planes"][:]
    run_cvs(state)
    _pin(seen, state)
    state.power()
    run_dscale(state, non_adjacent=True, retarget_shifters=True)
    _pin(seen, state)
    assert state.move_stats.attempted.get("retarget", 0) > 0
    assert_planes_equal(state.flat(), build_flat(state.network, state.calc))
    run_gscale(state)
    _pin(seen, state)
    assert state.move_stats.count("resize") > 0
    assert_planes_equal(state.flat(), build_flat(state.network, state.calc))
    planes = seen["planes"]
    assert planes[0] is not None
    assert all(plane is planes[0] for plane in planes)
    assert seen["private"] == 0


def test_a_fresh_state_builds_one_snapshot_and_keeps_it(watch):
    state = _state()
    _scale(watch, state)
    assert watch["builds"] == 1


def test_an_adopting_state_builds_no_snapshot_and_keeps_its_copy(watch):
    first = _state()
    record = first.baseline = ScaleBaseline(first, first.power())
    _scale(watch, first)
    assert watch["builds"] == 1
    assert record.cvs is not None

    state = _state()
    assert record.fits(state)
    state.baseline = record
    _scale(watch, state)
    assert watch["builds"] == 1  # the first state's, only
    assert state.flat() is not record.flat
    assert state.flat() is not first.flat()
