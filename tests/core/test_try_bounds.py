"""A timing-rejected move costs a bounded slice of its forward cone.

``MoveEngine.try_move`` asks the timing engine one question: is the
post-move worst delay above the limit?  The forward repair stops at the
first path certificate that proves the answer is yes, so a rejected
shifter retarget no longer re-times its whole forward cone.
"""

from repro.api import Flow, FlowConfig
from repro.core.moves import MoveEngine
from repro.core.state import ScalingState
from repro.timing.incremental import IncrementalTiming

CIRCUIT = "gen:layered:width=10:depth=10:seed=1"

MAX_MEAN_ARRIVALS = 30
"""The bound on mean arrival recomputes per timing-rejected try.

About 10 measured; re-timing the whole forward cone costs about 92."""


def test_timing_rejected_tries_stop_early(monkeypatch):
    counts = {"arrivals": 0, "powers": 0}
    tries = []
    compute_arrival = IncrementalTiming._compute_arrival
    power = ScalingState.power
    try_move = MoveEngine.try_move

    def counted_arrival(self, name):
        counts["arrivals"] += 1
        return compute_arrival(self, name)

    def counted_power(self):
        counts["powers"] += 1
        return power(self)

    def recorded_try(self, move, *args, **kwargs):
        arrivals, powers = counts["arrivals"], counts["powers"]
        ok = try_move(self, move, *args, **kwargs)
        tries.append(
            (ok, counts["arrivals"] - arrivals, counts["powers"] - powers)
        )
        return ok

    monkeypatch.setattr(IncrementalTiming, "_compute_arrival", counted_arrival)
    monkeypatch.setattr(ScalingState, "power", counted_power)
    monkeypatch.setattr(MoveEngine, "try_move", recorded_try)
    config = FlowConfig(
        circuit=CIRCUIT,
        rails=(1.8, 1.0, 0.6),
        method="dscale",
        non_adjacent=True,
        retarget_shifters=True,
    )
    Flow(config).run()

    # Power-gated callers pass their baseline in, so a rejected try
    # that measured no power was rejected on timing.
    rejected = [
        arrivals for ok, arrivals, powers in tries if not ok and not powers
    ]
    assert len(rejected) >= 100
    assert sum(rejected) / len(rejected) <= MAX_MEAN_ARRIVALS
