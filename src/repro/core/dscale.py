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

Each round is one table by (topological position, rail): the slack
mask, the mask of the ``(gate, target)`` pairs the closed-form check
can price, and their gain plane.  A gate's target is the first -- the
shallowest -- maximum of its row, kept when its gain is positive;
names appear only for the antichain, the moves and the re-target
tries.

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


def check_demotion(
    state: ScalingState,
    analysis: IncrementalTiming,
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
    them is not a candidate).  Dscale never edits the network, so it
    reads the snapshot's fixed :meth:`~repro.netlist.flat.FlatNetwork.reach`
    table: per candidate, the reachable candidates are one AND with the
    candidates' position mask, and only the *covers* among them (no
    candidate in between) are emitted.  Popping the lowest remaining
    position and then clearing everything it reaches does exactly that:
    a candidate reached through an earlier cover sits at a later
    position, so it is cleared before it can be popped.  Pairs come out
    per candidate in ascending position -- the reduction keeps the flow
    network sparse while chains through intermediate candidates
    preserve comparability.
    """
    flat = state.flat()
    reach = flat.reach()
    pos = flat.pos
    order = flat.order
    mask = 0
    for name in candidates:
        mask |= 1 << pos[name]
    pairs: list[tuple[str, str]] = []
    for name in candidates:
        remaining = reach[pos[name]] & mask
        while remaining:
            low_bit = remaining & -remaining
            j = low_bit.bit_length() - 1
            pairs.append((name, order[j]))
            remaining &= ~reach[j]
            remaining ^= low_bit
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


def _slack_mask(
    state: ScalingState,
    analysis: IncrementalTiming,
    lowest: int,
) -> np.ndarray:
    """``getSlkSet``: sub-``lowest`` gates with positive slack, by position.

    Reads the engine's levelized arrays plus the shared flat planes --
    one subtraction and two comparisons per node, vectorized with
    NumPy.  Every float comparison is the one of filtering
    ``network.gates()`` serially through ``slack()``.
    """
    tolerance = state.options.timing_tolerance
    rails, _, _ = state.assignment_overlays()
    _, arrival, required, _ = analysis.levelized_arrays()
    return (
        (np.asarray(required) - np.asarray(arrival) > tolerance)
        & (rails < lowest)
        & ~np.asarray(state.flat().is_input)
    )


def _round_pairs(
    state: ScalingState,
    slack: np.ndarray,
    lowest: int,
    allow_deep: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Route the slack mask: ``(pairs, deferred)``, by position.

    ``pairs`` is the ``(n, n_rails)`` mask of the ``(gate, target)``
    pairs the closed-form check prices; ``deferred`` masks the slack
    gates it cannot price.  Two kinds of gate are deferred alike, both
    read off one pass over the converter-edge keys:

    * a driver *regroups* when one of its shifters has a reader at or
      below the driver's rail (a stale edge awaiting cleanup; a
      primary-output shifter counts as reader rail 0).  Dropping the
      driver further changes that shifter's destination rail, so the
      gate waits for the cleanup pass -- or, with
      ``retarget_shifters``, for a transactional
      :class:`RetargetShifterMove`;
    * a reader ``m`` *re-targets* a fanin shifter when the shifter on
      ``f -> m`` lifts toward ``max(min(rail_of(m), rail_of(f) - 1),
      0)`` and a demotion to ``t`` moves that destination.  For every
      ``t > rail_of(m)`` that happens exactly when ``rail_of(f) - 1 >
      rail_of(m)``, so such a gate has no priceable depth (a
      lower-swing shifter is a slower one, and the check prices input
      shifters at their current destination).

    Every other slack gate gets the adjacent step, or every deeper
    rail down to ``lowest`` when ``allow_deep``.  Neither kind exists
    with two rails: a demotable gate is at rail 0 and carries no
    shifters.
    """
    flat = state.flat()
    rails, keys, po_lc = state.assignment_overlays()
    driver, reader = np.divmod(keys, flat.n)
    held = po_lc & (rails == 0)
    held[driver[rails[reader] >= rails[driver]]] = True
    held[reader[rails[driver] - 1 > rails[reader]]] = True
    step = rails[:, None]
    targets = np.arange(state.n_rails)
    deepest = lowest if allow_deep else step + 1
    pairs = (slack & ~held)[:, None] & (targets > step) & (targets <= deepest)
    return pairs, slack & held


def _stale_positions(
    flat, noted: np.ndarray, arrived: np.ndarray, required: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(check, price)``: the gates whose flag or gain may have moved.

    ``noted``, ``arrived`` and ``required`` are the timing engine's
    stamp masks (:meth:`IncrementalTiming.stamped_after`).  A gate's
    gain reads its own rail, cell, net and converters (its note stamp)
    and its readers' rails and cells (theirs).  Its closed-form check
    reads those, plus its readers' loads (their note stamps) and
    required times, and its fanins' arrivals and the shifter delays
    into it (their note and arrival stamps).  One scatter per read set
    over the snapshot's edge rows.
    """
    owner = flat.e_owner
    reader = flat.e_reader
    price = noted.copy()
    price[owner[noted[reader]]] = True
    check = price.copy()
    check[reader[(noted | arrived)[owner]]] = True
    check[owner[required[reader]]] = True
    return check, price


class _RoundCache:
    """The flag and gain of every ``(gate, target)`` pair Dscale priced.

    Kept by gate position and target rail, for one timing engine and
    one snapshot.  Each round starts by forgetting the flags of the
    gates :func:`_stale_positions` names since the epoch recorded after
    the last round's sweeps, and the gains of a narrower set; only the
    pairs left without a flag go through
    :meth:`~repro.core.moves.MoveEngine.check_moves`, and only the
    feasible ones left without a gain through
    :meth:`~repro.core.moves.MoveEngine.price_moves`.  Each kept value
    is a pure function of values that carry no later stamp, so it
    equals a fresh sweep's bit for bit.  Gains are kept only under a
    cost model that declares them local
    (:attr:`~repro.core.moves.CostModel.local_gains`); otherwise every
    feasible pair is re-priced each round.
    """

    def __init__(self, state: ScalingState, engine: MoveEngine):
        self.state = state
        self.engine = engine
        self.local_gains = engine.cost_model.local_gains
        self.timing: IncrementalTiming | None = None
        self.flat = None
        self.epoch = 0

    def _reset(self, analysis: IncrementalTiming, flat) -> None:
        shape = (flat.n, self.state.n_rails)
        #: -1 unknown, else the feasibility flag.
        self.flag = np.full(shape, -1, dtype=np.int8)
        self.priced = np.zeros(shape, dtype=bool)
        self.gain = np.zeros(shape)
        self.timing = analysis
        self.flat = flat

    def sweep(
        self, analysis: IncrementalTiming, pairs: np.ndarray
    ) -> np.ndarray:
        """The gain of every feasible pair of ``pairs``, as a plane.

        Shaped like ``pairs``; ``-inf`` wherever a pair is not asked
        for or not feasible.
        """
        flat = self.state.flat()
        if self.timing is not analysis or self.flat is not flat:
            self._reset(analysis, flat)
        else:
            check, price = _stale_positions(
                flat, *analysis.stamped_after(self.epoch)
            )
            self.flag[check] = -1
            self.priced[price] = False
        if not self.local_gains:
            self.priced[:] = False
        # Row-major: topological position, then ascending target.
        pp, tt = np.nonzero(pairs)
        stale = self.flag[pp, tt] < 0
        if stale.any():
            sp, st = pp[stale], tt[stale]
            self.flag[sp, st] = self.engine.check_moves(sp, st, analysis)
        ok = self.flag[pp, tt] > 0
        fp, ft = pp[ok], tt[ok]
        unpriced = ~self.priced[fp, ft]
        if unpriced.any():
            up, ut = fp[unpriced], ft[unpriced]
            self.gain[up, ut] = self.engine.price_moves(up, ut)
            self.priced[up, ut] = True
        self.epoch = analysis.advance_epoch()
        gains = np.full(pairs.shape, -np.inf)
        gains[fp, ft] = self.gain[fp, ft]
        return gains


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

    Each round routes its slack gates into one ``(position, rail)``
    pair mask (:func:`_round_pairs`), and checks and prices only the
    pairs whose inputs changed since the last round's sweeps (see
    :class:`_RoundCache`); every other pair keeps its flag and gain,
    bit-identical to a fresh sweep.  Each gate takes the ``argmax`` of
    its gain row: the shallowest of its best targets, as an ascending
    strict-improvement scan picks.
    """
    engine = MoveEngine(state, cost_model)
    result = DscaleResult(cvs=run_cvs(state))
    lowest = state.n_rails - 1
    allow_deep = non_adjacent and state.n_rails > 2
    allow_retarget = retarget_shifters and state.n_rails > 2
    cache = _RoundCache(state, engine)

    while result.rounds < max_rounds:
        analysis = state.timing()
        order = state.flat().order
        slack = _slack_mask(state, analysis, lowest)
        # Every closed-form (gate, target) pair is checked and priced
        # through the move engine's batched kernels -- bit-identical to
        # one serial check_demotion and demotion_gain per pair -- or
        # keeps the flag and gain of a round that read the same inputs.
        pairs, deferred = _round_pairs(state, slack, lowest, allow_deep)
        gains = cache.sweep(analysis, pairs)
        # The first maximum is the shallowest best target.
        best = gains.argmax(axis=1)
        gain = gains.max(axis=1)
        picked = np.flatnonzero(gain > 0).tolist()
        candidates = [order[i] for i in picked]

        low_set: list[str] = []
        if candidates:
            weights = {
                name: max(1, int(round(g * _WEIGHT_SCALE)))
                for name, g in zip(candidates, gain[picked].tolist())
            }
            targets = dict(zip(candidates, best[picked].tolist()))
            order_pairs = candidate_order_pairs(state, candidates)
            low_set, _ = max_weight_antichain(candidates, order_pairs, weights)
            for name in low_set:
                engine.apply(DemoteMove(name, target=targets[name]))
            result.demoted.extend(low_set)

        retargeted = 0
        if allow_retarget and deferred.any():
            # Shifter-carrying candidates the closed-form check cannot
            # price: attempt each as its own exact transaction (the
            # engine re-times the mutated cone; the measured total
            # power must strictly improve).  Antichain independence is
            # irrelevant here -- each move is verified against the
            # live, already-updated circuit.  The power baseline is
            # measured once and refreshed only on commits: a rolled-
            # back attempt provably leaves the total unchanged.
            power_now = state.power().total
            for name in [order[i] for i in np.flatnonzero(deferred)]:
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
