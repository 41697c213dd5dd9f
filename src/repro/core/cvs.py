"""Clustered voltage scaling (CVS) -- the Usami-Horowitz baseline [8].

A gate may be assigned a lower rail only when *every* fanout already
sits at (or below) that rail (or it only feeds primary outputs), so each
rail's gates form one cluster contingent to the outputs and no level
converter is needed inside the logic -- only, optionally, at the block
boundary where a low gate drives a primary output.

Implementation: one reverse-topological pass per adjacent rail boundary
(the paper's breadth-first traversal from the outputs, O(n+e) per
rail).  Required times start from the pass-start timing snapshot (the
incremental engine's arrays, which already satisfy the required-time
fixed point) and are repaired against *final* downstream decisions
during the very same pass -- each demotion marks only its fanins stale
and the repair propagates upstream exactly as far as values actually
move.  Arrivals are taken from a snapshot at pass start; a node is
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

import math
from dataclasses import dataclass, field

from repro.core.moves import DemoteMove, MoveEngine, demotion_deadline
from repro.core.state import ScalingState
from repro.timing.delay import OUTPUT


@dataclass
class CvsResult:
    """Outcome of one CVS run (all rail boundaries)."""

    demoted: list[str] = field(default_factory=list)
    tcb: frozenset[str] = frozenset()


def _cvs_pass(
    state: ScalingState, target: int, engine: MoveEngine
) -> tuple[list[str], frozenset[str]]:
    """One reverse-topological pass demoting rail ``target - 1`` gates."""
    network = state.network
    calc = state.calc
    order = network.topological()
    reader_pins = network.reader_pins()
    outputs = frozenset(network.outputs)
    tspec = state.tspec
    tolerance = state.options.timing_tolerance

    # Pass-start snapshots.  The timing engine already satisfies the
    # required-time fixed point
    # ``required[n] = f(required[readers of n], current state)``
    # bit-exactly, so instead of re-deriving every node's required time
    # the pass copies the snapshot and repairs only the *stale region*:
    # a demotion marks its fanins stale (the gate's variant -- and, at
    # the boundary, its load -- entered their equations), and a stale
    # recompute whose value moves marks its own fanins in turn.  Every
    # untouched node keeps a value identical to what the seed's full
    # backward sweep would have recomputed.
    analysis = state.timing()
    arrival = analysis.arrival_snapshot()
    required = analysis.required_snapshot()
    below_counts = state.fanout_counts_below(target)

    demoted: list[str] = []
    tcb: set[str] = set()
    stale: set[str] = set()
    for name in reversed(order):
        node = network.nodes[name]
        if name in stale:
            stale.discard(name)
            req = math.inf
            if name in outputs:
                req = tspec - calc.edge_extra_delay(name, OUTPUT)
            for reader, pin in reader_pins[name]:
                req = min(
                    req,
                    required[reader]
                    - calc.variant(reader).pin_delay(pin, calc.load(reader))
                    - calc.edge_extra_delay(name, reader),
                )
            if req != required[name]:
                required[name] = req
                stale.update(node.fanins)

        if node.is_input or state.rail_of(name) != target - 1:
            continue
        if below_counts[name]:
            continue  # some reader above the boundary: not eligible
        if name not in outputs and not network.fanouts(name):
            continue  # dangling node: nothing downstream to protect
        # Would dropping the gate to rail ``target`` still meet timing?
        # Exact given the snapshot arrivals: only its own stage delay
        # (and, at the boundary, its load and output shifter) changes.
        out_arrival, deadline = demotion_deadline(
            state, name, target, arrival, required
        )
        if out_arrival <= deadline + tolerance:
            engine.apply(DemoteMove(name))
            demoted.append(name)
            stale.update(node.fanins)
            # The converter (if any) changed this node's delay model;
            # refresh its required-time record for upstream decisions.
            if name in outputs:
                required[name] = min(
                    required[name],
                    tspec - calc.edge_extra_delay(name, OUTPUT),
                )
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
    """
    engine = MoveEngine(state)
    result = CvsResult()
    for target in range(1, state.n_rails):
        demoted, frontier = _cvs_pass(state, target, engine)
        result.demoted.extend(demoted)
        if target == 1:
            result.tcb = frontier
    return result


__all__ = ["CvsResult", "run_cvs"]
