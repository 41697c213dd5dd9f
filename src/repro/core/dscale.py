"""Dscale: voltage scaling on the non-critical parts of the whole circuit.

The paper's first contribution (section 2).  After a CVS pass has
harvested the slack next to the primary outputs, Dscale repeatedly:

1. runs static timing analysis and collects every demotable gate with
   positive slack (``getSlkSet``);
2. keeps those whose *individual* demotion -- including the level
   converters that must be spliced onto each new up-crossing edge --
   still meets timing (``check_timing``), weighting each by the power it
   would save under the selected :class:`~repro.core.moves.CostModel`
   (``weight_with_power_gain``);
3. selects a maximum-weight independent set of the candidates'
   transitive (reachability) graph, so no two simultaneously demoted
   gates share a path and their delay penalties cannot accumulate;
4. applies the demotions, inserts the converters, updates timing, and
   repeats until no candidate survives.

A demotion normally moves a gate to the *adjacent* lower rail; with
more than two rails the same loop keeps harvesting until every gate is
pinned by timing or sits on the lowest rail.  The per-candidate check
here is *exact* for antichain application: a demotion only changes the
gate's own stage delay plus its new converter edges, and two
incomparable gates touch disjoint nets.

Two N-rail-only extensions ride the move engine (both off by default,
so the dual-rail flow stays bit-identical to the paper):

* ``non_adjacent=True`` also prices direct multi-rail drops per
  candidate and demotes to the best-gain feasible target -- escaping
  the local minimum where every single-rail step prices negative but
  the deep drop is a net win;
* ``retarget_shifters=True`` stops deferring shifter-carrying
  candidates to the cleanup pass: each one is attempted as a
  transactional :class:`~repro.core.moves.RetargetShifterMove` whose
  kept converter groups re-target mid-demotion, verified by the exact
  incremental engine plus a measured power improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cvs import CvsResult, run_cvs
from repro.core.moves import (
    CostModel,
    DemoteMove,
    DropConverterMove,
    MoveEngine,
    RetargetShifterMove,
    demoted_arrival,
)
from repro.core.state import ScalingState
from repro.graphalg.antichain import max_weight_antichain
from repro.timing.delay import OUTPUT
from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import TimingAnalysis

_WEIGHT_SCALE = 10_000
"""Power gains (uW) are scaled to integers for exact flow arithmetic."""


@dataclass
class DscaleResult:
    """Outcome of a Dscale run."""

    cvs: CvsResult
    rounds: int = 0
    demoted: list[str] = field(default_factory=list)
    converters_removed: int = 0
    retargeted: int = 0


def _has_regrouping_edge(state: ScalingState, name: str) -> bool:
    """True when a demotion of ``name`` would re-target an existing shifter.

    An existing converter edge whose reader sits at or below the
    driver's rail (a stale edge awaiting cleanup) changes destination
    rail when the driver drops further; the exact per-candidate check
    below does not model that, so such gates wait for the cleanup pass
    -- or, with ``retarget_shifters``, for a transactional
    :class:`RetargetShifterMove`.  Impossible with two rails: a
    demotable gate is at rail 0 and a valid state gives it no converter
    edges at all.
    """
    rail = state.rail_of(name)
    for reader in state.lc_edges.readers_of(name):
        reader_rail = 0 if reader == OUTPUT else state.rail_of(reader)
        if reader_rail >= rail:
            return True
    return False


def _retargets_fanin_shifter(
    state: ScalingState, name: str, target: int
) -> bool:
    """True when demoting ``name`` to ``target`` re-targets a fanin shifter.

    A shifter on edge ``fanin -> name`` lifts toward
    ``min(rail_of(name), rail_of(fanin) - 1)``; dropping the *reader*
    deep enough moves that destination down a rail, slowing the input
    edge (a lower-swing shifter is a slower shifter).  The closed-form
    candidate check prices input-edge converters at their current
    destination, so such demotions must go through the transactionally
    verified retarget path instead of the antichain batch.  Impossible
    with two rails: the only destination is rail 0.
    """
    rail = state.rail_of(name)
    for fanin in state.network.nodes[name].fanins:
        if (fanin, name) not in state.lc_edges:
            continue
        driver_cap = state.rail_of(fanin) - 1
        current = min(rail, driver_cap)
        post = min(target, driver_cap)
        if max(current, 0) != max(post, 0):
            return True
    return False


def check_demotion(
    state: ScalingState,
    analysis: TimingAnalysis | IncrementalTiming,
    name: str,
    target: int | None = None,
) -> bool:
    """Exact feasibility of dropping ``name`` to ``target`` right now.

    Verifies, for every fanout edge and the primary-output boundary,
    that the slowed gate plus any new converter still meets the edge's
    required time.  ``target=None`` checks the classic one-rail step.
    """
    network = state.network
    calc = state.calc
    if network.nodes[name].is_input:
        raise ValueError("primary inputs cannot be demoted")
    if target is None:
        target = state.rail_of(name) + 1
    tolerance = state.options.timing_tolerance
    change = calc.demotion_net_change(
        name, state.options.lc_at_outputs, target
    )
    new_edges = set(change.new_edges)
    # Post-demotion delays: new edges merge into any kept shifter of
    # the same destination rail (a rail>=1 candidate can carry a kept
    # primary-output shifter), so price the *surviving* groups, not the
    # new loads in isolation.  Identical to new_converter_delays when
    # the candidate has no shifters -- every dual-rail candidate.
    converter_delays = calc.post_demotion_converter_delays(name, change)

    out_arrival = demoted_arrival(
        state, name, target, analysis.arrival, change.load_after
    )

    for reader in network.fanouts(name):
        if (name, reader) in new_edges:
            # A new edge's shifter targets the reader's own rail, which
            # sits strictly above the destination rail by construction.
            extra = converter_delays[calc.rail_of(reader)]
        elif (name, reader) in state.lc_edges:
            extra = converter_delays[calc.converter_rail(name, reader)]
        else:
            extra = 0.0
        reader_node = network.nodes[reader]
        reader_cell = calc.variant(reader)
        reader_load = analysis.load[reader]
        for pin, fanin in enumerate(reader_node.fanins):
            if fanin != name:
                continue
            deadline = analysis.required[reader] - reader_cell.pin_delay(
                pin, reader_load
            )
            if out_arrival + extra > deadline + tolerance:
                return False
    if name in network.outputs:
        if (name, OUTPUT) in new_edges or (name, OUTPUT) in state.lc_edges:
            extra = converter_delays[0]
        else:
            extra = 0.0
        if out_arrival + extra > state.tspec + tolerance:
            return False
    return True


def candidate_order_pairs(
    state: ScalingState, candidates: list[str]
) -> list[tuple[str, str]]:
    """Transitive-reduction pairs of the candidates' reachability order.

    Reachability runs through intermediate non-candidate nodes (two
    candidates on one path are comparable even when every node between
    them is not a candidate), but only the candidates' combined fan-out
    cone can ever carry a candidate bit: a node outside
    ``transitive_fanout(candidates)`` reaches no candidate, so its mask
    is provably zero and propagating it is wasted work.  Bitset
    propagation therefore walks just the cone in reverse topological
    order (sorted by cached position) -- identical pairs to a
    whole-network sweep, near-linear in the cone instead of the
    network; the reduction keeps the flow network sparse while chains
    through intermediate candidates preserve comparability.
    """
    network = state.network
    index = {name: k for k, name in enumerate(candidates)}
    position = network.topo_index()
    cone = network.transitive_fanout(candidates)
    reach: dict[str, int] = {}
    for name in sorted(cone, key=position.__getitem__, reverse=True):
        mask = 0
        for reader in network.fanouts(name):
            # Every reader of a cone node is itself in the cone, so its
            # mask is already final.
            mask |= reach[reader]
            bit = index.get(reader)
            if bit is not None:
                mask |= 1 << bit
        reach[name] = mask

    pairs: list[tuple[str, str]] = []
    for name in candidates:
        below = reach[name]
        if not below:
            continue
        # Remove transitive pairs: anything reachable through another
        # candidate that is itself below this node.
        via = 0
        remaining = below
        while remaining:
            low_bit = remaining & -remaining
            via |= reach[candidates[low_bit.bit_length() - 1]]
            remaining ^= low_bit
        covering = below & ~via
        while covering:
            low_bit = covering & -covering
            pairs.append((name, candidates[low_bit.bit_length() - 1]))
            covering ^= low_bit
    return pairs


def cleanup_converters(
    state: ScalingState, engine: MoveEngine | None = None
) -> int:
    """Drop converters whose reader ended up at (or below) the driver's rail.

    Removing a converter always saves power but shifts load between the
    driver's net and the removed converter; each removal is a
    :class:`DropConverterMove` verified as a what-if transaction --
    only the driver's cone is re-timed, and a removal that would break
    ``tspec`` is rolled back without touching the rest of the network
    (in practice removals also shorten the path).
    """
    if engine is None:
        engine = MoveEngine(state)
    removed = 0
    for edge in sorted(state.lc_edges):
        driver, reader = edge
        if reader == OUTPUT:
            continue
        if state.rail_of(reader) < state.rail_of(driver):
            continue  # still an up-crossing: the shifter is load-bearing
        if engine.try_move(DropConverterMove(edge)):
            removed += 1
    return removed


def _slack_set(
    state: ScalingState,
    analysis: IncrementalTiming,
    lowest: int,
) -> list[str]:
    """``getSlkSet``: sub-``lowest`` gates with positive slack.

    Reads the engine's levelized arrays plus the shared flat planes --
    one subtraction and two comparisons per node, vectorized with
    NumPy -- instead of a per-name ``slack()`` call through the method
    surface.  Emitted order (topological, inputs excluded) and every
    float comparison are identical to filtering ``network.gates()``
    serially.
    """
    tolerance = state.options.timing_tolerance
    flat = state.flat()
    order, arrival, required, _ = analysis.levelized_arrays()
    mask = (
        (np.asarray(required) - np.asarray(arrival) > tolerance)
        & (flat.rail_plane(state.levels) < lowest)
        & ~np.asarray(flat.is_input)
    )
    return [order[i] for i in np.flatnonzero(mask).tolist()]


def run_dscale(
    state: ScalingState,
    max_rounds: int = 1000,
    cost_model: str | CostModel | None = None,
    non_adjacent: bool = False,
    retarget_shifters: bool = False,
) -> DscaleResult:
    """The full Dscale loop of the paper's section 2 pseudo-code.

    ``cost_model`` selects the candidate-pricing arithmetic (default:
    the seed paper model).  ``non_adjacent`` and ``retarget_shifters``
    enable the N-rail move extensions; both are inert on a two-rail
    library, where neither situation can arise.
    """
    engine = MoveEngine(state, cost_model)
    result = DscaleResult(cvs=run_cvs(state))
    lowest = state.n_rails - 1
    allow_deep = non_adjacent and state.n_rails > 2
    allow_retarget = retarget_shifters and state.n_rails > 2

    while result.rounds < max_rounds:
        analysis = state.timing()
        slack_set = _slack_set(state, analysis, lowest)
        weights: dict[str, int] = {}
        targets: dict[str, int] = {}
        candidates: list[str] = []
        deferred: list[str] = []

        # Collect every closed-form (name, target) pair, then price the
        # whole round in two batched sweeps (feasibility + gain) through
        # the move engine's kernel -- bit-identical to one serial
        # check_demotion and demotion_gain per pair.
        regrouping: set[str] = set()
        saw_retarget: set[str] = set()
        depths_of: dict[str, list[int]] = {}
        for name in slack_set:
            if _has_regrouping_edge(state, name):
                regrouping.add(name)
                continue
            rail = state.rail_of(name)
            deepest = lowest if allow_deep else rail + 1
            depths: list[int] = []
            for target in range(rail + 1, deepest + 1):
                if _retargets_fanin_shifter(state, name, target):
                    saw_retarget.add(name)
                    continue
                depths.append(target)
            depths_of[name] = depths

        flat = [
            (name, target)
            for name, depths in depths_of.items()
            for target in depths
        ]
        flat_moves = [
            DemoteMove(name, target=target) for name, target in flat
        ]
        feasible = engine.check_moves(flat_moves, analysis)
        priced_pairs = [
            pair for pair, ok in zip(flat, feasible) if ok
        ]
        priced_moves = [
            move for move, ok in zip(flat_moves, feasible) if ok
        ]
        gain_of = dict(zip(priced_pairs, engine.price_moves(priced_moves)))

        for name in slack_set:
            if name in regrouping:
                deferred.append(name)
                continue
            # Ascending targets, strict improvement; a name whose every
            # depth would re-target a fanin shifter is routed to the
            # deferred path.
            best: tuple[float, int] | None = None
            for target in depths_of[name]:
                gain = gain_of.get((name, target))
                if gain is None:
                    continue
                if best is None or gain > best[0]:
                    best = (gain, target)
            if best is None:
                if name in saw_retarget:
                    deferred.append(name)
                continue
            gain, target = best
            if gain <= 0:
                continue
            candidates.append(name)
            targets[name] = target
            weights[name] = max(1, int(round(gain * _WEIGHT_SCALE)))

        low_set: list[str] = []
        if candidates:
            pairs = candidate_order_pairs(state, candidates)
            low_set, _ = max_weight_antichain(candidates, pairs, weights)
            for name in low_set:
                engine.apply(DemoteMove(name, target=targets[name]))
            result.demoted.extend(low_set)

        retargeted = 0
        if allow_retarget and deferred:
            # Shifter-carrying candidates the closed-form check cannot
            # price: attempt each as its own exact transaction (the
            # engine re-times the mutated cone; the measured total
            # power must strictly improve).  Antichain independence is
            # irrelevant here -- each move is verified against the
            # live, already-updated circuit.  The power baseline is
            # measured once and refreshed only on commits: a rolled-
            # back attempt provably leaves the total unchanged.
            power_now = state.power().total
            for name in deferred:
                if engine.try_move(
                    RetargetShifterMove(name),
                    require_power_gain=True,
                    power_before=power_now,
                ):
                    # The power-gain verification inside try_move
                    # already measured the committed total; reuse it
                    # instead of a second O(network) estimation.
                    power_now = engine.last_power
                    result.demoted.append(name)
                    retargeted += 1
        result.retargeted += retargeted

        if not low_set and not retargeted:
            break
        result.rounds += 1

    result.converters_removed = cleanup_converters(state, engine)
    state.validate()
    return result


__all__ = [
    "DscaleResult",
    "check_demotion",
    "candidate_order_pairs",
    "cleanup_converters",
    "run_dscale",
]
