"""Clustered voltage scaling (CVS) -- the Usami-Horowitz baseline [8].

A gate may be assigned a lower rail only when *every* fanout already
sits at (or below) that rail (or it only feeds primary outputs), so each
rail's gates form one cluster contingent to the outputs and no level
converter is needed inside the logic -- only, optionally, at the block
boundary where a low gate drives a primary output.

Implementation: one reverse-topological pass per adjacent rail boundary
(the paper's breadth-first traversal from the outputs, O(n+e) per
rail).  Each candidate reads its required time from the state's timing
engine (:meth:`~repro.timing.incremental.IncrementalTiming.required_at`),
which repairs only what is positioned at or after the candidate: every
demotion already applied in the pass sits later, so the value is exact
against *final* downstream decisions, and the repair moves upstream
only as far as values actually change.  Arrivals are taken from a
snapshot at pass start, which ``required_at`` never repairs; a node is
demoted when its slowed-down, converter-adjusted output still meets its
required time on every fanout edge.  The pass-start arrivals are safe
because on any path the demoted node closest to the inputs is decided
last, when its entire downstream suffix is final -- so the full path
inequality it checks is exactly the final circuit's.

With a two-rail library there is a single pass and the procedure is
bit-identical to the classic dual-Vdd CVS.  Deeper rails are harvested
by re-running the same pass on the rail-1 cluster toward rail 2, and so
on: each pass keeps the cluster property *per rail boundary*, which is
what makes the multi-rail result converter-free inside the logic.

The first (rail 0 -> 1) pass also reports the time-critical boundary
(TCB): gates that are topologically eligible (all fanouts low / primary
output) but whose demotion would violate timing -- the frontier Gscale
pushes toward the inputs.

CVS is a *move-selection policy* over :mod:`repro.core.moves`: the
pass's own snapshot arithmetic pre-verifies each candidate exactly, so
demotions go through :meth:`MoveEngine.apply` (unconditional, counted)
rather than a per-move transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.moves import (
    DemoteMove,
    MoveEngine,
    MoveStats,
    demotion_deadline,
)
from repro.core.state import ScalingState
from repro.netlist.flat import FlatNetwork
from repro.timing.delay import OUTPUT


@dataclass
class CvsResult:
    """Outcome of one CVS run (all rail boundaries)."""

    demoted: list[str] = field(default_factory=list)
    tcb: frozenset[str] = frozenset()


class _CvsPoint:
    """Where the first CVS run leaves an unmoved state, recorded once.

    Private copies, taken after every rail pass: the demoted gates'
    rails in insertion order, the converter edges in order, the
    engine's repaired ``(load, arrival, required)`` lists, the run's
    move counters and its result.  The run's callers query timing
    next, so the repair the record needs is one they pay anyway.
    """

    __slots__ = ("levels", "lc_edges", "arrays", "stats", "result")

    def __init__(
        self, state: ScalingState, result: CvsResult, stats: MoveStats
    ):
        self.levels = tuple(state.levels.items())
        self.lc_edges = tuple(state.lc_edges)
        _, arrival, required, load = state.timing().levelized_arrays()
        self.arrays = (list(load), list(arrival), list(required))
        self.stats = stats
        self.result = CvsResult(list(result.demoted), result.tcb)

    def adopt(self, state: ScalingState, flat: FlatNetwork) -> CvsResult:
        """Put ``state`` where the recorded run left its own state."""
        state.replay(flat, self.levels, self.lc_edges, self.arrays)
        state.move_stats.add(self.stats)
        return CvsResult(list(self.result.demoted), self.result.tcb)


def _retargets(state: ScalingState, name: str) -> bool:
    """Whether demoting ``name`` would move a shifter's destination rail.

    The pass prices shifters at their current destination, so such a
    gate is not eligible.  Dscale's rule (``_round_pairs``): one of the
    gate's own shifters has a reader at or below its rail (a primary
    output counts as rail 0), or a fanin ``f`` converts into it with
    ``rail_of(f) - 1 > rail_of(name)``.  Only shifters left by a
    multi-rail Dscale can meet either.
    """
    rail = state.rail_of(name)
    for reader in state.converter_readers(name):
        if (0 if reader == OUTPUT else state.rail_of(reader)) >= rail:
            return True
    return any(
        state.rail_of(fanin) - 1 > rail
        for fanin in state.network.nodes[name].fanins
        if (fanin, name) in state.lc_edges
    )


def _cvs_pass(
    state: ScalingState, target: int, engine: MoveEngine
) -> tuple[list[str], frozenset[str]]:
    """One reverse-topological pass demoting rail ``target - 1`` gates."""
    network = state.network
    outputs = frozenset(network.outputs)
    tolerance = state.options.timing_tolerance
    flat = state.flat()
    pos = flat.pos
    # Per driver position, its readers above the boundary (one edge row
    # per distinct reader).  A demotion takes its gate below it, one
    # reader fewer for each distinct fanin.
    rails = flat.rail_plane(state.levels)
    above = np.bincount(
        flat.e_owner[rails[flat.e_reader] < target], minlength=flat.n
    ).tolist()
    analysis = state.timing()
    arrival = analysis.arrival_snapshot()

    demoted: list[str] = []
    tcb: set[str] = set()
    for name in reversed(flat.order):
        node = network.nodes[name]
        if node.is_input or state.rail_of(name) != target - 1:
            continue
        if above[pos[name]]:
            continue  # some reader above the boundary: not eligible
        if name not in outputs and not network.fanouts(name):
            continue  # dangling node: nothing downstream to protect
        if state.lc_edges and _retargets(state, name):
            continue
        # Would dropping the gate to rail ``target`` still meet timing?
        # Exact given the snapshot arrivals: only its own stage delay
        # (and, at the boundary, its load and output shifter) changes.
        out_arrival, deadline, change = demotion_deadline(
            state, name, target, arrival, analysis.required_at(name)
        )
        if out_arrival <= deadline + tolerance:
            engine.apply(DemoteMove(name, change=change))
            demoted.append(name)
            for fanin in dict.fromkeys(node.fanins):
                above[pos[fanin]] -= 1
        else:
            tcb.add(name)

    return demoted, frozenset(tcb)


def run_cvs(state: ScalingState) -> CvsResult:
    """Extend each rail's cluster as far as timing allows.

    Idempotent and incremental: called on a fresh state it is the
    classic CVS; called after Gscale resizes gates it extends the
    existing clusters (the paper's "new CVS operates with every TCB").
    The reported TCB is the rail 0 -> 1 frontier, the boundary Gscale's
    sizing pushes toward the inputs.

    On a state that has not moved, the outcome depends only on the key
    of the state's :attr:`~repro.core.state.ScalingState.baseline`, so
    the first such run records it on that
    :class:`~repro.core.state.ScaleBaseline`, and a later first run on
    a state with no timing engine yet adopts it, the one place that
    does: the recorded snapshot, the assignment in the same order, the
    repaired timing arrays, move counters and result, without a sweep
    or a pass.  A moved or already timed state runs the passes, after
    :meth:`~repro.core.state.ScalingState.check_start` (a state that
    misses ``tspec`` raises
    :class:`~repro.timing.incremental.TimingInfeasible` unmoved).
    """
    baseline = None if state.moved else state.baseline
    if baseline is not None and baseline.cvs is not None:
        if not state.timed:
            return baseline.cvs.adopt(state, baseline.flat)
        baseline = None  # recorded already
    state.check_start()
    engine = MoveEngine(state)
    if baseline is not None:
        engine.stats = MoveStats()  # this run's counters, for the record
    result = CvsResult()
    for target in range(1, state.n_rails):
        demoted, frontier = _cvs_pass(state, target, engine)
        result.demoted.extend(demoted)
        if target == 1:
            result.tcb = frontier
    if baseline is not None:
        baseline.cvs = _CvsPoint(state, result, engine.stats)
        state.move_stats.add(engine.stats)
    return result


__all__ = ["CvsResult", "run_cvs"]
