"""Dscale's round cache: a kept flag or gain is the one a full sweep finds.

Each Dscale round checks and prices only the ``(gate, target)`` pairs
whose inputs carry a timing-engine stamp above the epoch recorded after
the last round's sweeps; every other pair keeps its feasibility flag
and gain.  These tests compare every round against a full
``check_moves`` / ``price_moves`` of the same round, and whole runs
against runs with the cache bypassed.
"""

import functools

import numpy as np
import pytest

from repro.api import Flow, FlowConfig
from repro.core import dscale
from repro.core.dscale import _RoundCache, run_dscale
from repro.core.moves import (
    CostModel,
    MoveEngine,
    PaperCostModel,
    get_cost_model,
)
from repro.core.state import ScalingState
from repro.flow.store import normalize_row
from repro.power.estimate import demotion_gain

CIRCUIT = "gen:layered:width=10:depth=10:seed=1"
RAILS = {2: (), 3: (1.8, 1.0, 0.6), 4: (1.8, 1.3, 0.9, 0.6)}
EXTENSIONS = [
    dict(non_adjacent=False, retarget_shifters=False),
    dict(non_adjacent=True, retarget_shifters=True),
]


@functools.cache
def _prepared(n_rails):
    flow = Flow(FlowConfig(circuit=CIRCUIT, rails=RAILS[n_rails]))
    return flow.prepare(), flow.library


def _state(n_rails):
    prepared, library = _prepared(n_rails)
    return ScalingState(
        prepared.network,
        library,
        prepared.tspec,
        activity=prepared.activity,
    )


def _full_sweep(cache, analysis, pairs):
    """Every pair checked, and every feasible one priced, from scratch."""
    pp, tt = np.nonzero(pairs)
    engine = cache.engine
    flags = np.asarray(engine.check_moves(pp, tt, analysis), dtype=bool)
    gains = engine.price_moves(pp[flags], tt[flags])
    full = np.full(pairs.shape, -np.inf)
    for p, t, gain in zip(pp[flags].tolist(), tt[flags].tolist(), gains):
        full[p, t] = gain
    return full, len(pp)


def _bypass(monkeypatch):
    """Every gate stale every round: a full sweep per round."""

    def everything(flat, noted, *_):
        stale = np.ones_like(noted)
        return stale, stale

    monkeypatch.setattr(dscale, "_stale_positions", everything)


@pytest.mark.parametrize("extensions", EXTENSIONS, ids=["plain", "n-rail"])
@pytest.mark.parametrize("cost_model", ["paper", "placement"])
@pytest.mark.parametrize("n_rails", sorted(RAILS))
def test_every_round_equals_a_full_sweep(
    monkeypatch, n_rails, cost_model, extensions
):
    """Cached flags and gains == a full check and price, round by round."""
    sweep = _RoundCache.sweep
    counts = {"rounds": 0, "pairs": 0, "checked": 0}
    check_moves = MoveEngine.check_moves

    def counted_check(self, positions, targets, analysis=None):
        counts["checked"] += len(positions)
        return check_moves(self, positions, targets, analysis)

    def compared_sweep(self, analysis, pairs):
        got = sweep(self, analysis, pairs)
        with monkeypatch.context() as inner:
            inner.setattr(MoveEngine, "check_moves", check_moves)
            full, listed = _full_sweep(self, analysis, pairs)
        assert np.array_equal(got, full)
        counts["rounds"] += 1
        counts["pairs"] += listed
        return got

    monkeypatch.setattr(_RoundCache, "sweep", compared_sweep)
    monkeypatch.setattr(MoveEngine, "check_moves", counted_check)
    state = _state(n_rails)
    result = run_dscale(state, cost_model=cost_model, **extensions)
    assert result.demoted
    assert counts["rounds"] > 2
    # The cache re-checks strictly fewer pairs than a full sweep would.
    assert counts["checked"] < counts["pairs"]


def _scaled(n_rails, monkeypatch):
    """Each Dscale job's try log, final state, stats and store row."""
    prepared, _ = _prepared(n_rails)
    log = []
    try_move = MoveEngine.try_move

    def logged_try(self, move, *args, **kwargs):
        ok = try_move(self, move, *args, **kwargs)
        log.append((move.kind, move.key, ok))
        return ok

    monkeypatch.setattr(MoveEngine, "try_move", logged_try)
    base = FlowConfig(circuit=CIRCUIT, rails=RAILS[n_rails], method="dscale")
    configs = [base, base.replace(cost_model="placement")]
    if n_rails > 2:
        configs += [
            config.replace(non_adjacent=True, retarget_shifters=True)
            for config in configs
        ]
    runs = []
    for config in configs:
        ctx = Flow(config).execute(prepared=prepared)
        state = ctx.state
        runs.append(
            (
                dict(state.levels),
                set(state.lc_edges),
                state.move_stats.as_dict(),
                normalize_row(ctx.artifact.to_row()),
            )
        )
    return log, runs


@pytest.mark.parametrize("n_rails", sorted(RAILS))
def test_decisions_equal_the_bypassed_cache(monkeypatch, n_rails):
    """Decisions, move stats and rows repeat with the cache bypassed."""
    shipped = _scaled(n_rails, monkeypatch)
    monkeypatch.undo()
    _bypass(monkeypatch)
    bypassed = _scaled(n_rails, monkeypatch)
    monkeypatch.undo()
    assert shipped == bypassed


class _CountingModel(PaperCostModel):
    """The paper gains, under a custom model that declares no locality."""

    name = "counting"

    def __init__(self):
        self.priced = 0

    def demotion_gains(self, state, positions, targets):
        self.priced += len(positions)
        return super().demotion_gains(state, positions, targets)


def test_custom_models_are_repriced_every_round(monkeypatch):
    """A model without local gains prices every feasible pair each round;
    the decisions equal the paper model's."""
    assert not CostModel.local_gains
    assert not _CountingModel.local_gains
    assert get_cost_model("paper").local_gains
    assert get_cost_model("placement").local_gains
    feasible = []
    sweep = _RoundCache.sweep

    def counted_sweep(self, analysis, pairs):
        got = sweep(self, analysis, pairs)
        feasible.append(int(np.isfinite(got).sum()))
        return got

    monkeypatch.setattr(_RoundCache, "sweep", counted_sweep)
    custom = _CountingModel()
    state = _state(3)
    result = run_dscale(state, cost_model=custom, non_adjacent=True)
    assert custom.priced == sum(feasible)
    paper = _state(3)
    assert run_dscale(paper, non_adjacent=True).demoted == result.demoted
    assert dict(paper.levels) == dict(state.levels)


class _SerialPaperModel(CostModel):
    """The README's custom-model pattern: only ``demotion_gain``, here
    the serial paper arithmetic, priced through the default batch loop."""

    name = "serial-paper"

    def demotion_gain(self, state, name, target=None):
        return demotion_gain(
            state.calc,
            state.activity,
            name,
            clock_mhz=state.options.clock_mhz,
            lc_at_outputs=state.options.lc_at_outputs,
            target=target,
        )


@pytest.mark.parametrize(
    "n_rails, non_adjacent", [(2, False), (3, True)], ids=["2", "3-deep"]
)
def test_a_model_with_only_demotion_gain_scales_like_paper(
    n_rails, non_adjacent
):
    """Dscale under a model that defines only ``demotion_gain`` demotes
    exactly what the built-in ``paper`` model does."""
    custom = _state(n_rails)
    result = run_dscale(
        custom, cost_model=_SerialPaperModel(), non_adjacent=non_adjacent
    )
    paper = _state(n_rails)
    expected = run_dscale(paper, non_adjacent=non_adjacent)
    assert result.demoted
    assert result.demoted == expected.demoted
    assert dict(custom.levels) == dict(paper.levels)
