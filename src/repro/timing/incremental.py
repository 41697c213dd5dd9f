"""Levelized, dirty-region incremental static timing analysis.

:class:`IncrementalTiming` keeps arrival / required / load values in
flat arrays indexed by cached topological position and repairs them
lazily after state mutations instead of rebuilding the whole analysis
(the paper's ``update_timing`` as an incremental operation).  It is the
one timing path of the scaling passes.  Its query surface (``arrival`` /
``required`` / ``load`` mappings, ``slack``, ``worst_delay``,
``critical_path``, ...) matches :class:`repro.timing.sta.TimingAnalysis`,
the serial oracle the engine is tested against, so the serial oracles
(``check_demotion``, ``demotion_gain``) accept either.

Invalidation contract
---------------------
The engine never watches the network or the calculator -- the owner of
the mutable state (:class:`repro.core.state.ScalingState`) must report
every mutation through exactly one of:

* :meth:`note_variant_changed` -- the cell implementing a gate changed
  (demote / promote flipped its voltage, or a resize swapped the bound
  cell).  Seeds a forward recompute of the gate's arrival and a backward
  recompute of its fanins' required times (the gate appears in their
  required equation as the reader cell).
* :meth:`note_net_changed` -- the *net driven by* a node changed: a
  converter edge was added or removed on one of its fanout edges, or a
  reader's pin capacitances changed (reader resize).  Seeds a load
  recompute for that net, a forward recompute of the driver and all its
  readers (converter stage delays live on those edges), and a backward
  recompute of the driver and its fanins.

Shifter *retargeting* rides the same two notes: a multi-rail rail
change re-derives ``converter_rail`` for every shifter on the mutated
gate's own net and on any fanin net converting into it, so
:class:`repro.core.state.ScalingState` reports those drivers via
``note_net_changed`` and the seeded readers re-price their
``lc_delay`` at the new destination rail.  This is what makes the move
layer's non-adjacent :class:`~repro.core.moves.DemoteMove` and
:class:`~repro.core.moves.RetargetShifterMove` exact inside a what-if
transaction (oracle-tested in ``tests/core/test_moves.py``).

From those seed sets :meth:`refresh` propagates arrival changes forward
and required changes backward in topological order through the affected
cone only, stopping early at every node whose recomputed value is
bit-identical to the stored one.  Because each value is a pure function
of its frontier, the repaired arrays are bit-identical to a rebuild
from scratch.

What-if transactions
--------------------
:meth:`begin` opens a transaction: every array entry overwritten by a
subsequent refresh is journaled once.  :meth:`commit` keeps the new
values; :meth:`rollback` restores the journaled entries and clears the
pending seed sets.  The caller must revert its own state mutations
(promote the gate back, re-add the converter edge, resize back) before
or immediately after rolling back -- the journal only covers the timing
arrays, not the caller's state.  This is what makes Gscale's per-resize
verification and Dscale's converter cleanup touch only the mutated
gate's cone instead of the whole network.

Bounded what-if probes
----------------------
Inside a transaction :meth:`exceeds` answers "is the post-move
``worst_delay`` above ``limit``?" and may stop the forward repair as
soon as the answer is proven to be yes.  The repair pops positions
in topological order, so every popped node's new arrival is final.
:meth:`begin` leaves the required times fully refreshed; since then
only the pending backward seeds and their fanin cones can have gone
stale, so a node positioned after every backward seed still has an
exact required time.  When the repair pops such a node with a final arrival above
``required + (limit - tspec)``, :meth:`_path_bound` carries that
arrival forward along the reader terms that set the required times,
with exactly :meth:`_compute_arrival`'s association and the live
post-move delays, to a primary output.  Rounded addition is monotone,
so the walk is a lower bound on the exact ``worst_delay``; when it
exceeds ``limit`` the move is rejected without re-timing the rest of
its forward cone.  No margin or tolerance enters the proof.  The
arrays are then half repaired, so every query raises
``RuntimeError`` until :meth:`rollback`.

Full builds
-----------
The initial build and every :meth:`full_invalidate` run one levelized
NumPy sweep over the shared :class:`~repro.netlist.flat.FlatNetwork`
snapshot, level-shifter edges included: the sweep derives the sorted
converter-edge keys from ``lc_edges``
(:meth:`~repro.netlist.flat.FlatNetwork.lc_edge_keys`) and adds each
edge's shifter delay to its arrival and required rows, so no node
leaves the vector path.  :class:`~repro.timing.sta.TimingAnalysis` is
the readable serial oracle the sweep is tested against.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Mapping

import numpy as np

from repro.netlist.flat import FlatNetwork, build_flat, csr_take, find_keys
from repro.netlist.network import Network
from repro.timing.delay import DelayCalculator, OUTPUT
from repro.timing.sta import trace_critical_path


class _ArrayView(Mapping):
    """Read-only name-keyed view over a flat topo-indexed array.

    Accessing a value refreshes the owning engine first (forward-only
    for the arrival/load arrays, full for required), so a view read
    after a mutation never observes a stale entry.
    """

    __slots__ = ("_engine", "_pos", "_data", "_forward_only")

    def __init__(
        self,
        engine: "IncrementalTiming",
        pos: dict[str, int],
        data: list[float],
        forward_only: bool,
    ):
        self._engine = engine
        self._pos = pos
        self._data = data
        self._forward_only = forward_only

    def __getitem__(self, name: str) -> float:
        engine = self._engine
        if self._forward_only:
            if not engine._fwd_clean:
                engine._ensure_forward()
        elif not engine._clean:
            engine.refresh()
        return self._data[self._pos[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._pos)

    def __len__(self) -> int:
        return len(self._pos)


_SPENT = "timing transaction ended in an early reject; call rollback()"


class _Journal:
    """Pre-transaction values of every overwritten array slot."""

    __slots__ = ("arrival", "required", "load")

    def __init__(self):
        self.arrival: dict[int, float] = {}
        self.required: dict[int, float] = {}
        self.load: dict[int, float] = {}


# ---------------------------------------------------------------------
# The full sweep over the shared flat snapshot
# ---------------------------------------------------------------------
#
# The levelized sweep computes the three arrays from the FlatNetwork
# planes with segmented reductions per depth level, bit-identically to
# the serial TimingAnalysis:
#
# * loads accumulate the pre-summed edge caps in the same
#   ``network.fanouts`` row order the serial ``calc.load`` iterates,
#   then the PO load, then the wire cap -- the exact serial sequence;
#   a driver of level-shifter edges takes its load from ``calc.load``;
# * arrivals/requireds replicate the serial associations
#   (``(arr + lc) + (intr + drive*load)`` and
#   ``(req - (intr + drive*load)) - lc``, with ``lc`` the shifter delay
#   of a converter edge and ``0.0`` elsewhere, which keeps the bits),
#   and the cross-pin max / cross-reader min reductions are order-free
#   over IEEE doubles.


def _sweep(a: FlatNetwork, calc, tspec: float):
    """Levelized vectorized full build: ``(loads, arrivals, reqs)``."""
    n = a.n
    order = a.order
    pos = a.pos
    lc_edges = calc.lc_edges
    rails = a.rail_plane(calc.levels)
    keys, po_lc = a.lc_edge_keys(lc_edges)

    # Loads: np.add.at applies strictly in row order == fanouts order,
    # then the PO load, then the wire cap -- the serial sequence.
    loads = np.zeros(n)
    np.add.at(loads, a.e_owner, a.e_cap)
    loads[a.is_po] += a.po_load
    connections = a.e_counts + a.is_po
    wired = (connections > 0) & ~a.no_wire
    loads[wired] += a.wire_base + a.wire_per * connections[wired]
    for driver in {driver for driver, _ in lc_edges}:
        loads[pos[driver]] = calc.load(driver)

    # Shifter delay per converter edge (0.0 elsewhere), in key order.
    key_delay = np.zeros(len(keys))
    for j, key in enumerate(keys.tolist()):
        driver, reader = divmod(key, n)
        key_delay[j] = calc.lc_delay(order[driver], order[reader])
    po_delay = np.zeros(n)
    for i in np.flatnonzero(po_lc).tolist():
        po_delay[i] = calc.lc_delay(order[i], OUTPUT)

    stage = a.drive[rails, a.node_idx] * loads
    fi_rows = np.arange(len(a.fi_src), dtype=np.intp)
    pin_term = a.fi_intr[rails[a.fi_owner], fi_rows] + stage[a.fi_owner]
    fi_lc = _edge_delays(keys, key_delay, a.fi_src * n + a.fi_owner)
    arrivals = np.zeros(n)
    for members in a.by_depth[1:]:
        rows, _, counts = csr_take(a.fi_ptr, members)
        vals = (arrivals[a.fi_src[rows]] + fi_lc[rows]) + pin_term[rows]
        worst = np.zeros(len(members))
        nz = counts > 0
        if nz.any():
            cnz = counts[nz]
            offs = np.zeros(len(cnz), dtype=np.intp)
            np.cumsum(cnz[:-1], out=offs[1:])
            worst[nz] = np.maximum(np.maximum.reduceat(vals, offs), 0.0)
        arrivals[members] = worst

    rp_rows = np.arange(len(a.rp_reader), dtype=np.intp)
    reader_term = a.rp_intr[rails[a.rp_reader], rp_rows] + stage[a.rp_reader]
    rp_owner = np.repeat(a.node_idx, np.diff(a.rp_ptr))
    rp_lc = _edge_delays(keys, key_delay, rp_owner * n + a.rp_reader)
    seeds = np.where(a.is_po, tspec - po_delay, math.inf)
    reqs = np.full(n, math.inf)
    for members in reversed(a.by_depth):
        rows, _, counts = csr_take(a.rp_ptr, members)
        vals = (reqs[a.rp_reader[rows]] - reader_term[rows]) - rp_lc[rows]
        res = seeds[members]
        nz = counts > 0
        if nz.any():
            cnz = counts[nz]
            offs = np.zeros(len(cnz), dtype=np.intp)
            np.cumsum(cnz[:-1], out=offs[1:])
            res[nz] = np.minimum(np.minimum.reduceat(vals, offs), res[nz])
        reqs[members] = res

    return loads.tolist(), arrivals.tolist(), reqs.tolist()


def _edge_delays(keys, key_delay, query):
    """Per-row shifter delay: ``key_delay`` on converter edges, else 0."""
    idx, hit = find_keys(keys, query)
    out = np.zeros(len(query))
    out[hit] = key_delay[idx[hit]]
    return out


class IncrementalTiming:
    """Incrementally-maintained arrival/required/slack over one network."""

    def __init__(
        self, calculator: DelayCalculator, tspec: float, flat_source=None
    ):
        """Build the engine and run one full sweep.

        ``flat_source`` is an optional zero-argument callable returning
        the owner's cached :class:`~repro.netlist.flat.FlatNetwork`
        (:meth:`repro.core.state.ScalingState.flat`); without it the
        engine builds its own snapshot per full sweep.
        """
        self.calculator = calculator
        self.network: Network = calculator.network
        self.tspec = tspec
        self._flat_source = flat_source
        self._journal: _Journal | None = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """Cache the topology and run one full sweep."""
        network = self.network
        # The cached list object itself (not a copy): the engine's
        # topology snapshot must match the shared flat snapshot's
        # ``order`` *by identity*, which makes staleness detection in
        # _acquire_flat O(1).  A topology edit invalidates the
        # network-level cache, so a later full_invalidate() picks up a
        # new list while this reference keeps the old snapshot intact.
        self._order: list[str] = network.topological()
        self._pos: dict[str, int] = network.topo_index()
        self._fanouts_cache: list[tuple[str, ...]] | None = None
        self._reader_pins = network.reader_pins()
        self._is_output = frozenset(network.outputs)
        self._load, self._arrival, self._required = _sweep(
            self._acquire_flat(), self.calculator, self.tspec
        )
        self.arrival = _ArrayView(
            self, self._pos, self._arrival, forward_only=True
        )
        self.required = _ArrayView(
            self, self._pos, self._required, forward_only=False
        )
        self.load = _ArrayView(self, self._pos, self._load, forward_only=True)
        self._dirty_nets: set[str] = set()
        self._fwd_seeds: set[str] = set()
        self._bwd_seeds: set[str] = set()
        self._clean = True
        self._fwd_clean = True
        self._spent = False

    @property
    def _fanouts(self) -> list[tuple[str, ...]]:
        """Per-position reader tuples, built on first incremental use.

        The full vectorized build never touches fanout tuples, so
        constructing them eagerly would charge every from-scratch build
        an O(edges) tax that only refresh() traffic needs.
        """
        cache = self._fanouts_cache
        if cache is None:
            network = self.network
            cache = [tuple(network.fanouts(name)) for name in self._order]
            self._fanouts_cache = cache
        return cache

    def _acquire_flat(self) -> FlatNetwork:
        """The shared snapshot for a full sweep (a private one if stale)."""
        source = self._flat_source
        if source is not None:
            flat = source()
            if flat.order is self._order or flat.order == self._order:
                return flat
        return build_flat(self.network, self.calculator)

    def full_invalidate(self) -> None:
        """Rebuild everything (only needed if the topology itself changed)."""
        if self._journal is not None:
            raise RuntimeError("cannot rebuild inside a transaction")
        self._build()

    # ------------------------------------------------------------------
    # Invalidation API
    # ------------------------------------------------------------------

    def note_variant_changed(self, name: str) -> None:
        """The cell implementing ``name`` changed (voltage flip / resize)."""
        self._fwd_seeds.add(name)
        self._bwd_seeds.update(self.network.nodes[name].fanins)
        self._clean = False
        self._fwd_clean = False

    def note_net_changed(self, name: str) -> None:
        """The net driven by ``name`` changed (converters / reader caps)."""
        self._dirty_nets.add(name)
        self._fwd_seeds.add(name)
        self._fwd_seeds.update(self._fanouts[self._pos[name]])
        self._bwd_seeds.add(name)
        self._bwd_seeds.update(self.network.nodes[name].fanins)
        self._clean = False
        self._fwd_clean = False

    # ------------------------------------------------------------------
    # Recompute kernels (bit-identical to TimingAnalysis._compute)
    # ------------------------------------------------------------------

    def _compute_arrival(self, name: str) -> float:
        node = self.network.nodes[name]
        if node.is_input:
            return 0.0
        calc = self.calculator
        pos = self._pos
        arrival = self._arrival
        lc_edges = calc.lc_edges
        cell = calc.variant(name)
        load = self._load[pos[name]]
        intrinsics = cell.intrinsics
        drive_res = cell.drive_res
        worst = 0.0
        for pin, fanin in enumerate(node.fanins):
            at_pin = arrival[pos[fanin]]
            if (fanin, name) in lc_edges:
                at_pin += calc.lc_delay(fanin, name)
            at_pin += intrinsics[pin] + drive_res * load
            if at_pin > worst:
                worst = at_pin
        return worst

    def _compute_required(self, name: str) -> float:
        calc = self.calculator
        pos = self._pos
        loads = self._load
        reqs = self._required
        lc_edges = calc.lc_edges
        variant = calc.variant
        required = math.inf
        if name in self._is_output:
            required = self.tspec - calc.edge_extra_delay(name, OUTPUT)
        for reader, pin in self._reader_pins[name]:
            j = pos[reader]
            cell = variant(reader)
            # Same float association as the oracle: req - pin_delay,
            # then - extra.
            term = reqs[j] - (cell.intrinsics[pin] + cell.drive_res * loads[j])
            if (name, reader) in lc_edges:
                term -= calc.lc_delay(name, reader)
            if term < required:
                required = term
        return required

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _ensure_forward(self, limit: float | None = None) -> bool:
        """Repair loads and arrivals (what ``worst_delay`` needs).

        With a ``limit`` (transactions only, see :meth:`exceeds`) the
        repair stops as soon as :meth:`_path_bound` proves the repaired
        ``worst_delay`` is above it; that returns ``True`` and leaves
        the engine rollback-only.  Otherwise returns ``False``.
        """
        if self._spent:
            raise RuntimeError(_SPENT)
        if self._fwd_clean:
            return False
        calc = self.calculator
        pos = self._pos
        journal = self._journal

        for name in self._dirty_nets:
            i = pos[name]
            new = calc.load(name)
            if new != self._load[i]:
                if journal is not None and i not in journal.load:
                    journal.load[i] = self._load[i]
                self._load[i] = new
        self._dirty_nets.clear()

        if self._fwd_seeds:
            arrival = self._arrival
            scheduled = {pos[name] for name in self._fwd_seeds}
            above = math.inf  # no early exit without a limit
            if limit is not None:
                # Only the backward seeds and their fanin cones hold
                # stale required times; every later node's is exact.
                above = max(
                    (pos[name] for name in self._bwd_seeds), default=-1
                )
                margin = limit - self.tspec
                required = self._required
            self._fwd_seeds.clear()
            heap = list(scheduled)
            heapq.heapify(heap)
            while heap:
                i = heapq.heappop(heap)
                scheduled.discard(i)
                new = self._compute_arrival(self._order[i])
                if (
                    i > above
                    and new > required[i] + margin
                    and self._path_bound(i, new) > limit
                ):
                    self._spent = True
                    return True
                if new != arrival[i]:
                    if journal is not None and i not in journal.arrival:
                        journal.arrival[i] = arrival[i]
                    arrival[i] = new
                    for reader in self._fanouts[i]:
                        j = pos[reader]
                        if j not in scheduled:
                            scheduled.add(j)
                            heapq.heappush(heap, j)
        self._fwd_clean = True
        return False

    def _path_bound(self, i: int, at: float) -> float:
        """A lower bound on ``worst_delay`` through position ``i``.

        ``at`` is the node's final arrival.  The walk follows the reader
        term that sets each node's required time down to a primary
        output, adding each stage with :meth:`_compute_arrival`'s exact
        association, then the output converter.  Every step is a term
        of the reader's arrival maximum, so the result never exceeds
        the repaired ``worst_delay``.  ``-inf`` when the walk reaches a
        node with no reader and no output.
        """
        calc = self.calculator
        order = self._order
        pos = self._pos
        reqs = self._required
        loads = self._load
        lc_edges = calc.lc_edges
        variant = calc.variant
        is_output = self._is_output
        while True:
            name = order[i]
            best = math.inf
            if name in is_output:
                best = self.tspec - calc.edge_extra_delay(name, OUTPUT)
            step = None
            for reader, pin in self._reader_pins[name]:
                j = pos[reader]
                cell = variant(reader)
                stage = cell.intrinsics[pin] + cell.drive_res * loads[j]
                term = reqs[j] - stage
                lc = None
                if (name, reader) in lc_edges:
                    lc = calc.lc_delay(name, reader)
                    term -= lc
                if term < best:
                    best = term
                    step = (j, lc, stage)
            if step is None:
                if name in is_output:
                    return at + calc.edge_extra_delay(name, OUTPUT)
                return -math.inf
            i, lc, stage = step
            if lc is not None:
                at += lc
            at += stage

    def refresh(self) -> "IncrementalTiming":
        """Repair every stale value; no-op when nothing is dirty.

        The forward half (loads + arrivals) and the backward half
        (required times) are independent; what-if probes that only ask
        ``worst_delay`` / ``exceeds`` trigger just the forward
        repair, and the backward cascade of committed moves is paid once
        at the next slack/required query instead of per move.
        """
        if self._spent:
            raise RuntimeError(_SPENT)
        if self._clean:
            return self
        self._ensure_forward()
        journal = self._journal
        pos = self._pos

        if self._bwd_seeds:
            required = self._required
            nodes = self.network.nodes
            scheduled = {pos[name] for name in self._bwd_seeds}
            self._bwd_seeds.clear()
            heap = [-i for i in scheduled]
            heapq.heapify(heap)
            while heap:
                i = -heapq.heappop(heap)
                scheduled.discard(i)
                name = self._order[i]
                new = self._compute_required(name)
                if new != required[i]:
                    if journal is not None and i not in journal.required:
                        journal.required[i] = required[i]
                    required[i] = new
                    for fanin in nodes[name].fanins:
                        j = pos[fanin]
                        if j not in scheduled:
                            scheduled.add(j)
                            heapq.heappush(heap, -j)

        self._clean = True
        return self

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open a what-if transaction (flushes pending work first)."""
        if self._journal is not None:
            raise RuntimeError("a timing transaction is already active")
        self.refresh()
        self._journal = _Journal()

    def commit(self) -> None:
        """Keep every value computed since :meth:`begin`."""
        if self._journal is None:
            raise RuntimeError("no active timing transaction")
        if self._spent:
            raise RuntimeError(_SPENT)
        self._journal = None

    def rollback(self) -> None:
        """Restore the pre-transaction timing arrays.

        Clears the pending seed sets: the caller reverts its own state
        mutations around this call, after which the restored arrays are
        exactly consistent with the restored state.
        """
        journal = self._journal
        if journal is None:
            raise RuntimeError("no active timing transaction")
        self._journal = None
        for i, value in journal.arrival.items():
            self._arrival[i] = value
        for i, value in journal.required.items():
            self._required[i] = value
        for i, value in journal.load.items():
            self._load[i] = value
        self._dirty_nets.clear()
        self._fwd_seeds.clear()
        self._bwd_seeds.clear()
        self._clean = True
        self._fwd_clean = True
        self._spent = False

    # ------------------------------------------------------------------
    # Queries (TimingAnalysis-compatible)
    # ------------------------------------------------------------------

    def arrival_snapshot(self) -> dict[str, float]:
        """Plain-dict copy of all arrivals (frozen against later moves)."""
        self._ensure_forward()
        return dict(zip(self._order, self._arrival))

    def levelized_arrays(
        self,
    ) -> tuple[list[str], list[float], list[float], list[float]]:
        """``(order, arrival, required, load)`` -- the live flat arrays.

        The topological order plus the engine's levelized value arrays
        aligned with it, repaired first.  These are the *live* internal
        lists (zero-copy), handed out for the batched pricing kernel's
        vectorized gathers; callers must treat them as read-only and
        must not hold them across moves.
        """
        self.refresh()
        return self._order, self._arrival, self._required, self._load

    def required_snapshot(self) -> dict[str, float]:
        """Plain-dict copy of all required times."""
        self.refresh()
        return dict(zip(self._order, self._required))

    def slack(self, name: str) -> float:
        if not self._clean:
            self.refresh()
        i = self._pos[name]
        return self._required[i] - self._arrival[i]

    def slacks(self) -> dict[str, float]:
        self.refresh()
        required = self._required
        arrival = self._arrival
        return {
            name: required[i] - arrival[i]
            for name, i in self._pos.items()
        }

    @property
    def worst_delay(self) -> float:
        """Latest arrival at any primary output, converters included."""
        self._ensure_forward()
        calc = self.calculator
        arrival = self._arrival
        pos = self._pos
        return max(
            (
                arrival[pos[out]] + calc.edge_extra_delay(out, OUTPUT)
                for out in self.network.outputs
            ),
            default=0.0,
        )

    @property
    def worst_slack(self) -> float:
        self.refresh()
        required = self._required
        arrival = self._arrival
        return min(
            (required[i] - arrival[i] for i in range(len(self._order))),
            default=math.inf,
        )

    def meets_timing(self, tolerance: float = 1e-9) -> bool:
        return self.worst_delay <= self.tspec + tolerance

    def exceeds(self, limit: float) -> bool:
        """Whether ``worst_delay > limit``, answered as early as proven.

        Inside a transaction the forward repair stops at the first path
        certificate (see the module docstring); the engine is then
        rollback-only and every query raises until :meth:`rollback`.
        """
        if self._journal is not None and self._ensure_forward(limit):
            return True
        return self.worst_delay > limit

    def critical_path(self) -> list[str]:
        """One worst input-to-output path (node names, PI first)."""
        self._ensure_forward()
        return trace_critical_path(self.calculator, self.arrival, self.load)

    def nodes_with_slack(self, threshold: float) -> list[str]:
        """Internal nodes whose slack strictly exceeds ``threshold``."""
        self.refresh()
        return [
            name
            for name in self.network.gates()
            if self.slack(name) > threshold
        ]


__all__ = ["IncrementalTiming"]
