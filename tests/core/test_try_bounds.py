"""A timing-rejected move costs a bounded slice of its forward cone.

``MoveEngine.try_move`` asks the timing engine one question: is the
post-move worst delay above the limit?  The forward repair stops at the
first path certificate that proves the answer is yes, so a rejected
shifter retarget no longer re-times its whole forward cone.  A retry of
the same move first replays the path that proved its last reject, so
most retries re-time nothing at all.
"""

from repro.api import Flow, FlowConfig
from repro.core.moves import MoveEngine
from repro.core.state import ScalingState
from repro.flow.store import normalize_row
from repro.timing.incremental import IncrementalTiming

CIRCUIT = "gen:layered:width=10:depth=10:seed=1"
RAILS = (1.8, 1.0, 0.6)

MAX_MEAN_ARRIVALS = 5
"""The bound on mean arrival recomputes per timing-rejected try.

About 1.5 measured with replayed certificates, about 10 with the early
exit alone; re-timing the whole forward cone costs about 92."""

MIN_REPLAYS = 300
"""Replayed rejects of the run; 420 measured."""


def test_timing_rejected_tries_stop_early(monkeypatch):
    counts = {"arrivals": 0, "powers": 0, "replayed": 0}
    tries = []
    compute_arrival = IncrementalTiming._compute_arrival
    replay_exceeds = IncrementalTiming.replay_exceeds
    power = ScalingState.power
    try_move = MoveEngine.try_move

    def counted_arrival(self, name):
        counts["arrivals"] += 1
        return compute_arrival(self, name)

    def counted_replay(self, path, limit):
        proved = replay_exceeds(self, path, limit)
        counts["replayed"] += proved
        return proved

    def counted_power(self):
        counts["powers"] += 1
        return power(self)

    def recorded_try(self, move, *args, **kwargs):
        before = dict(counts)
        ok = try_move(self, move, *args, **kwargs)
        tries.append((ok, *(counts[key] - before[key] for key in counts)))
        return ok

    monkeypatch.setattr(IncrementalTiming, "_compute_arrival", counted_arrival)
    monkeypatch.setattr(IncrementalTiming, "replay_exceeds", counted_replay)
    monkeypatch.setattr(ScalingState, "power", counted_power)
    monkeypatch.setattr(MoveEngine, "try_move", recorded_try)
    config = FlowConfig(
        circuit=CIRCUIT,
        rails=RAILS,
        method="dscale",
        non_adjacent=True,
        retarget_shifters=True,
    )
    Flow(config).run()

    # Power-gated callers pass their baseline in, so a rejected try
    # that measured no power was rejected on timing.
    rejected = [
        arrivals for ok, arrivals, powers, _ in tries if not ok and not powers
    ]
    assert len(rejected) >= 100
    assert sum(rejected) / len(rejected) <= MAX_MEAN_ARRIVALS

    replayed = [arrivals for ok, arrivals, _, proved in tries if proved]
    assert len(replayed) >= MIN_REPLAYS
    assert not any(ok for ok, _, _, proved in tries if proved)
    assert not any(replayed)


MSV = dict(method="dscale", non_adjacent=True, retarget_shifters=True)
JOBS = (MSV, dict(MSV, cost_model="placement"), dict(method="gscale"))


def _scaled(prepared, base, monkeypatch):
    """Every job's try log, final state and store row."""
    log = []
    try_move = MoveEngine.try_move

    def logged_try(self, move, *args, **kwargs):
        ok = try_move(self, move, *args, **kwargs)
        log.append((move.kind, move.key, ok))
        return ok

    monkeypatch.setattr(MoveEngine, "try_move", logged_try)
    runs = []
    for options in JOBS:
        ctx = Flow(base.replace(**options)).execute(prepared=prepared)
        state = ctx.state
        cells = {
            name: state.cell(name)
            for name, node in state.network.nodes.items()
            if node.cell is not None
        }
        runs.append(
            (
                dict(state.levels),
                set(state.lc_edges),
                cells,
                state.move_stats.as_dict(),
                normalize_row(ctx.artifact.to_row()),
            )
        )
    return log, runs


def test_replayed_rejects_change_no_decision(monkeypatch):
    """Dscale and Gscale decide identically with the replay bypassed."""
    for circuit in (CIRCUIT, "gen:layered:width=12:depth=8:seed=2"):
        base = FlowConfig(circuit=circuit, rails=RAILS)
        prepared = Flow(base).prepare()
        shipped = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(
            IncrementalTiming,
            "replay_exceeds",
            lambda self, path, limit: False,
        )
        bypassed = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        assert shipped == bypassed
        assert any(kind == "retarget" for kind, _, _ in shipped[0])
