"""Levelized, dirty-region incremental static timing analysis.

:class:`IncrementalTiming` keeps arrival / required / load values in
flat arrays indexed by cached topological position and repairs them
lazily after state mutations instead of rebuilding the whole analysis
(the paper's ``update_timing`` as an incremental operation).  It is the
one timing path of the scaling passes.  Its ``arrival`` /
``required`` / ``load`` mappings and its ``slack``, ``worst_delay``,
``worst_slack``, ``meets_timing`` and ``critical_path`` queries carry
the names and values of :class:`repro.timing.sta.TimingAnalysis`, the
serial oracle the engine is tested against, so a reader of those
alone (``repro.core.dscale.check_demotion``) accepts either.  The
snapshots, transactions and bounded probes below are the engine's
own.

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

A cell swap (resize) is both at once, and :func:`note_cell_swap` is
the one place that says so: it reports the gate's own variant plus
every distinct fanin net, to the calculator caches and to the engine.
The mapper's sizing loops rebind the cell on the network they own
through :func:`swap_cell`; :meth:`repro.core.state.ScalingState.resize`
writes the state's cell table instead, so scaling never writes the
network.  Both report through ``note_cell_swap``.

From those seeds :meth:`refresh` propagates arrival changes forward
and required changes backward in topological order through the affected
cone only, stopping early at every node whose recomputed value is
bit-identical to the stored one.  Because each value is a pure function
of its frontier, the repaired arrays are bit-identical to a rebuild
from scratch.  The backward seeds are positions: the stale loads and
the stale required times are each a position set beside a max-heap of
the same positions, so the repair pops them in decreasing order.

Partial backward repair
-----------------------
A required time reads only values positioned after it: its readers'
required times and loads.  So :meth:`required_at` repairs the stale
loads and required times positioned at or after one node, pops the
required seeds in decreasing order as :meth:`refresh` does, and leaves
arrivals and every earlier value pending; a value that moves marks its
fanins, which sit earlier, so the answer is exact.  A reverse
topological walk that writes the state at each node it passes (CVS's
demotions, area recovery's downsizes) seeds loads and required times
only at or before the walk, so each value is recomputed once, after
all of its readers are final -- the walk reads the same suffix
required times a full repair would, at the cost of the moved cones
alone.
:meth:`refresh` is the same repair from position 0.
:meth:`set_tspec` retimes the engine to another budget by seeding
every primary output.

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

Replayed certificates
---------------------
A yes of :meth:`exceeds` inside a transaction also leaves its proof in
:attr:`last_path`: a PI-to-PO ``(node, pin)`` path whose every stage
reproduces the post-move arrivals bit-exactly.  :meth:`replay_exceeds`
re-adds that path's stages after a later move's writes and before any
repair, from the last path node positioned before every pending
forward seed (its arrival is final), with the live delays and the same
association.  Each stage is again a term of its node's arrival maximum,
so a replayed sum above ``limit`` is a proof as well.
:class:`~repro.core.moves.MoveEngine` keeps one path per move and
replays it before asking :meth:`exceeds`, so a move rejected round
after round is re-rejected without re-timing its cone.

The replay is a pure function of the arrival at its start
(:attr:`replay_start` keeps the path index) and of the rail, cell, net
and converter state of the path nodes from there on and of the move's
footprint (:meth:`~repro.core.moves.Move.footprint`).  So the engine
stamps changes: an :attr:`epoch` counter, a stamp per position moved
by every note of it (the invalidation contract above covers every
input of a variant, load, shifter delay and output shifter), an
arrival stamp per position moved by every new arrival there and a
required stamp per position moved by every new required time
:meth:`refresh` writes there.  Outside a transaction a stamp is
written at once, one above the epoch; inside one the noted and
journaled positions wait for :meth:`commit`, which stamps them with a
fresh epoch, and a rollback stamps nothing.  :meth:`begin` and
:meth:`advance_epoch` raise the epoch past every stamp written so
far.  A replay that rejected at some epoch reads identical values, and
so rejects again, while :meth:`unchanged_since` finds no later stamp
on what it read; the move engine then rejects the retry without
opening a transaction.  Dscale's round cache reads the same stamps as
masks (:meth:`stamped_after`): a candidate's closed-form check and
gain are pure functions of its gate's, fanins' and readers' stamped
values, so a pair whose read set carries no stamp above the epoch the
cache recorded keeps its flag and gain.

Full builds
-----------
The constructor runs one levelized NumPy sweep over a
:class:`~repro.netlist.flat.FlatNetwork` snapshot, level-shifter edges
included: the sweep derives the sorted converter-edge keys from
``lc_edges`` (:meth:`~repro.netlist.flat.FlatNetwork.lc_edge_keys`)
and adds each edge's shifter delay to its arrival and required rows,
so no node leaves the vector path.  A scaling state hands the engine
its own snapshot (:meth:`repro.core.state.ScalingState.flat`), which
both keep for the state's life; an engine with no owner builds one.
:class:`~repro.timing.sta.TimingAnalysis` is the readable serial
oracle the sweep is tested against.  :meth:`from_arrays` skips the
sweep for an engine whose arrays are already known: a state adopting
a prepared circuit's recorded CVS point
(:meth:`repro.core.state.ScalingState.replay`) starts from copies of
the lists the recording state's engine held after that CVS.
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


class TimingInfeasible(ValueError):
    """A circuit misses its timing budget before any move was made.

    Raised where a stage would otherwise start work it cannot finish
    legally: area recovery on a mapping that already misses ``tspec``,
    and a scaling method on a state whose starting delay exceeds it.
    """


class _Journal:
    """Pre-transaction values of every overwritten array slot.

    Also the positions noted since the transaction began, which
    :meth:`IncrementalTiming.commit` stamps and a rollback forgets.
    """

    __slots__ = ("arrival", "required", "load", "noted")

    def __init__(self):
        self.arrival: dict[int, float] = {}
        self.required: dict[int, float] = {}
        self.load: dict[int, float] = {}
        #: Positions noted since :meth:`IncrementalTiming.begin`.
        self.noted: set[int] = set()


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


def swap_cell(
    calc: DelayCalculator, engine: IncrementalTiming | None, name: str, cell
) -> None:
    """Bind ``cell`` to gate ``name`` on the network and report the swap.

    Prepare's sizing loops own the network they size; scaling keeps
    its cells in the state instead (see :func:`note_cell_swap`).
    """
    calc.network.nodes[name].cell = cell
    note_cell_swap(calc, engine, name)


def note_cell_swap(
    calc: DelayCalculator, engine: IncrementalTiming | None, name: str
) -> None:
    """Report that gate ``name`` is bound to another cell.

    The gate's own stage delay changed, and its new input pin
    capacitances changed every fanin driver's net load.  Both the
    calculator caches and the engine seeds (when there is an engine)
    are dirtied for exactly that.
    """
    node = calc.network.nodes[name]
    calc.invalidate_variant(name)
    if engine is not None:
        engine.note_variant_changed(name)
    for fanin in dict.fromkeys(node.fanins):
        calc.invalidate_net(fanin)
        if engine is not None:
            engine.note_net_changed(fanin)


def _mark(stale: set[int], heap: list[int], i: int) -> None:
    """Mark position ``i`` stale: a position set and its max-heap."""
    if i not in stale:
        stale.add(i)
        heapq.heappush(heap, -i)


class IncrementalTiming:
    """Incrementally-maintained arrival/required/slack over one network."""

    def __init__(self, calculator: DelayCalculator, tspec: float, flat=None):
        """Build the engine and run one full sweep.

        ``flat`` is the owner's snapshot of ``calculator``'s network
        (:meth:`repro.core.state.ScalingState.flat`); without it the
        engine builds its own for the sweep.
        """
        self._start(calculator, tspec, flat, None)

    @classmethod
    def from_arrays(
        cls,
        calculator: DelayCalculator,
        tspec: float,
        arrays: tuple[list[float], list[float], list[float]],
    ) -> IncrementalTiming:
        """An engine that starts from ``(load, arrival, required)``.

        No sweep runs: the lists are taken over as the engine's arrays,
        so they must be what a sweep of ``calculator``'s current
        assignment would return, and the caller must not keep them.
        :meth:`repro.core.state.ScalingState.replay` passes copies of a
        recorded CVS point.
        """
        engine = cls.__new__(cls)
        engine._start(calculator, tspec, None, arrays)
        return engine

    def _start(self, calculator, tspec, flat, arrays) -> None:
        """Cache the inputs and the topology; take ``arrays`` or sweep."""
        self.calculator = calculator
        self.network: Network = calculator.network
        self.tspec = tspec
        self._journal: _Journal | None = None
        #: The PI-to-PO ``(node, pin)`` path behind the last yes of
        #: :meth:`exceeds` inside a transaction, or ``None``.
        self.last_path: tuple | None = None
        network = self.network
        # The cached list object itself (not a copy), as the owner's
        # flat snapshot's ``order`` is.
        self._order: list[str] = network.topological()
        self._pos: dict[str, int] = network.topo_index()
        self._fanouts_cache: list[tuple[str, ...]] | None = None
        self._reader_pins = network.reader_pins()
        self._is_output = frozenset(network.outputs)
        if arrays is None:
            if flat is None:
                flat = build_flat(network, calculator)
            arrays = _sweep(flat, calculator, tspec)
        self._load, self._arrival, self._required = arrays
        n = len(self._order)
        # Change stamps (see "Replayed certificates" in the module
        # docstring): ``_stamp[i]`` moves on every note of position
        # ``i``, ``_arrival_stamp[i]`` on every new arrival there.
        self.epoch = 0
        self._stamp = [0] * n
        self._arrival_stamp = [0] * n
        self._required_stamp = [0] * n
        #: The path index :meth:`replay_exceeds` last started from.
        self.replay_start = 0
        self.arrival = _ArrayView(
            self, self._pos, self._arrival, forward_only=True
        )
        self.required = _ArrayView(
            self, self._pos, self._required, forward_only=False
        )
        self.load = _ArrayView(self, self._pos, self._load, forward_only=True)
        self._fwd_seeds: set[str] = set()
        # Stale load and required positions, each with a max-heap of
        # the same positions (negated); see _mark.
        self._stale_loads: set[int] = set()
        self._load_heap: list[int] = []
        self._stale_required: set[int] = set()
        self._required_heap: list[int] = []
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

    # ------------------------------------------------------------------
    # Invalidation API
    # ------------------------------------------------------------------

    def note_variant_changed(self, name: str) -> None:
        """The cell implementing ``name`` changed (voltage flip / resize)."""
        self._fwd_seeds.add(name)
        self._mark_fanins(name)
        self._clean = False
        self._fwd_clean = False
        self._note_stamp(self._pos[name])

    def note_net_changed(self, name: str) -> None:
        """The net driven by ``name`` changed (converters / reader caps)."""
        i = self._pos[name]
        _mark(self._stale_loads, self._load_heap, i)
        self._fwd_seeds.add(name)
        self._fwd_seeds.update(self._fanouts[i])
        _mark(self._stale_required, self._required_heap, i)
        self._mark_fanins(name)
        self._clean = False
        self._fwd_clean = False
        self._note_stamp(i)

    def set_tspec(self, tspec: float) -> None:
        """Retime the required times to the budget ``tspec``.

        Seeds every primary output; the repair runs on the next
        required-time query, as after a note.
        """
        self.tspec = tspec
        pos = self._pos
        for out in self.network.outputs:
            _mark(self._stale_required, self._required_heap, pos[out])
        self._clean = False

    def _mark_fanins(self, name: str) -> None:
        """Mark the required times of ``name``'s fanins stale."""
        pos = self._pos
        for fanin in self.network.nodes[name].fanins:
            _mark(self._stale_required, self._required_heap, pos[fanin])

    def _note_stamp(self, i: int) -> None:
        """Stamp a noted position now, or at commit inside a transaction."""
        journal = self._journal
        if journal is None:
            self._stamp[i] = self.epoch + 1
        else:
            journal.noted.add(i)

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
        pos = self._pos
        journal = self._journal
        self._repair_loads(0)

        if self._fwd_seeds:
            arrival = self._arrival
            scheduled = {pos[name] for name in self._fwd_seeds}
            above = math.inf  # no early exit without a limit
            if limit is not None:
                # Only the backward seeds and their fanin cones hold
                # stale required times; every later node's is exact.
                heap = self._required_heap
                above = -heap[0] if heap else -1
                margin = limit - self.tspec
                required = self._required
            self._fwd_seeds.clear()
            heap = list(scheduled)
            heapq.heapify(heap)
            while heap:
                i = heapq.heappop(heap)
                scheduled.discard(i)
                new = self._compute_arrival(self._order[i])
                if i > above and new > required[i] + margin:
                    steps = []
                    if self._path_bound(i, new, steps) > limit:
                        self._spent = True
                        chain = self._back_chain(self._order[i], new)
                        if chain is not None:
                            self.last_path = (*chain, *steps)
                        return True
                if new != arrival[i]:
                    if journal is None:
                        self._arrival_stamp[i] = self.epoch + 1
                    elif i not in journal.arrival:
                        journal.arrival[i] = arrival[i]
                    arrival[i] = new
                    for reader in self._fanouts[i]:
                        j = pos[reader]
                        if j not in scheduled:
                            scheduled.add(j)
                            heapq.heappush(heap, j)
        self._fwd_clean = True
        return False

    def _path_bound(self, i: int, at: float, steps: list) -> float:
        """A lower bound on ``worst_delay`` through position ``i``.

        ``at`` is the node's final arrival.  The walk follows the reader
        term that sets each node's required time down to a primary
        output, adding each stage with :meth:`_compute_arrival`'s exact
        association, then the output converter.  Every step is a term
        of the reader's arrival maximum, so the result never exceeds
        the repaired ``worst_delay``.  ``-inf`` when the walk reaches a
        node with no reader and no output.  Each ``(reader, pin)`` step
        taken is appended to ``steps``.
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
                    step = (j, pin, lc, stage)
            if step is None:
                if name in is_output:
                    return at + calc.edge_extra_delay(name, OUTPUT)
                return -math.inf
            i, pin, lc, stage = step
            steps.append((order[i], pin))
            if lc is not None:
                at += lc
            at += stage

    def _back_chain(self, name: str, at: float) -> list | None:
        """``(node, pin)`` argmax steps from ``name`` back to an input.

        The input comes first, with pin ``-1``.  ``at`` is the arrival
        of ``name``; ``None`` when some arrival is not reproduced
        bit-exactly by any pin term of the stored arrays.
        """
        calc = self.calculator
        nodes = self.network.nodes
        pos = self._pos
        arrival = self._arrival
        lc_edges = calc.lc_edges
        chain = []
        while not nodes[name].is_input:
            cell = calc.variant(name)
            stage_load = self._load[pos[name]]
            for pin, fanin in enumerate(nodes[name].fanins):
                term = arrival[pos[fanin]]
                if (fanin, name) in lc_edges:
                    term += calc.lc_delay(fanin, name)
                term += cell.intrinsics[pin] + cell.drive_res * stage_load
                if term == at:
                    break
            else:
                return None
            chain.append((name, pin))
            name, at = fanin, arrival[pos[fanin]]
        chain.append((name, -1))
        chain.reverse()
        return chain

    def replay_exceeds(self, path: tuple, limit: float) -> bool:
        """Whether a recorded :attr:`last_path` proves ``worst_delay > limit``.

        Call after a move's writes and before any repair (see the module
        docstring).  ``True`` is a proof; ``False`` proves nothing.
        ``path`` must come from this engine's topology.
        """
        if self._spent:
            raise RuntimeError(_SPENT)
        pos = self._pos
        first = min(map(pos.__getitem__, self._fwd_seeds), default=len(pos))
        start = 0
        for k in range(1, len(path)):
            if pos[path[k][0]] >= first:
                break
            start = k
        self.replay_start = start
        calc = self.calculator
        lc_edges = calc.lc_edges
        fanin = path[start][0]
        at = self._arrival[pos[fanin]]
        for name, pin in path[start + 1 :]:
            if (fanin, name) in lc_edges:
                at += calc.lc_delay(fanin, name)
            cell = calc.variant(name)
            at += cell.intrinsics[pin] + cell.drive_res * calc.load(name)
            fanin = name
        return at + calc.edge_extra_delay(fanin, OUTPUT) > limit

    def unchanged_since(self, epoch: int, start: int, checked) -> bool:
        """Whether a replay recorded at ``epoch`` would read the same.

        Outside a transaction only: runs the pending forward repair,
        then checks that neither the arrival at position ``start`` nor
        any note of a ``checked`` position was stamped after ``epoch``
        (see "Replayed certificates" in the module docstring).
        """
        if self._journal is not None:
            return False
        if not self._fwd_clean:
            self._ensure_forward()
        if self._arrival_stamp[start] > epoch:
            return False
        stamp = self._stamp
        for i in checked:
            if stamp[i] > epoch:
                return False
        return True

    def advance_epoch(self) -> int:
        """Raise the epoch past every stamp written so far; return it.

        Every later change stamps above the returned epoch, so a caller
        that records it right after reading the arrays can tell later
        what has changed since (:meth:`stamped_after`).  Replay records
        compare stamps against their own older epochs, which this keeps
        exact.
        """
        self.epoch += 1
        return self.epoch

    def stamped_after(
        self, epoch: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(noted, arrived, required)``: the stamps above ``epoch``.

        Per-position boolean masks of the note, arrival and required
        stamps, after a full repair.  Outside a transaction only: inside
        one the stamps wait for :meth:`commit`.
        """
        if self._journal is not None:
            raise RuntimeError("stamps are read outside a transaction")
        self.refresh()
        return (
            np.asarray(self._stamp) > epoch,
            np.asarray(self._arrival_stamp) > epoch,
            np.asarray(self._required_stamp) > epoch,
        )

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
        self._repair_required(0)
        self._clean = True
        return self

    def required_at(self, name: str) -> float:
        """``name``'s required time, repaired only as far as it needs.

        Repairs the stale loads and required times positioned at or
        after ``name`` and leaves arrivals and earlier values pending
        (see "Partial backward repair" in the module docstring).
        """
        if self._spent:
            raise RuntimeError(_SPENT)
        i = self._pos[name]
        self._repair_loads(i)
        self._repair_required(i)
        return self._required[i]

    def _repair_loads(self, floor: int) -> None:
        """Recompute the stale loads positioned at or after ``floor``."""
        heap = self._load_heap
        stale = self._stale_loads
        calc = self.calculator
        order = self._order
        load = self._load
        journal = self._journal
        while heap and -heap[0] >= floor:
            i = -heapq.heappop(heap)
            stale.discard(i)
            new = calc.load(order[i])
            if new != load[i]:
                if journal is not None and i not in journal.load:
                    journal.load[i] = load[i]
                load[i] = new

    def _repair_required(self, floor: int) -> None:
        """Recompute the stale required times positioned at or after
        ``floor``, in decreasing position order.

        Every reader of a popped node sits later and is final, so each
        value is recomputed after all of its inputs; one that moves
        marks its fanins, which sit earlier.
        """
        heap = self._required_heap
        if not heap or -heap[0] < floor:
            return
        stale = self._stale_required
        journal = self._journal
        pos = self._pos
        order = self._order
        nodes = self.network.nodes
        required = self._required
        required_stamp = self._required_stamp
        fresh = self.epoch + 1
        while heap and -heap[0] >= floor:
            i = -heapq.heappop(heap)
            stale.discard(i)
            name = order[i]
            new = self._compute_required(name)
            if new != required[i]:
                if journal is None:
                    required_stamp[i] = fresh
                elif i not in journal.required:
                    journal.required[i] = required[i]
                required[i] = new
                for fanin in nodes[name].fanins:
                    _mark(stale, heap, pos[fanin])

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open a what-if transaction (flushes pending work first)."""
        if self._journal is not None:
            raise RuntimeError("a timing transaction is already active")
        self.refresh()
        self._journal = _Journal()
        # Every stamp written so far is at most the new epoch, and every
        # later one is above it.
        self.epoch += 1

    def commit(self) -> None:
        """Keep every value computed since :meth:`begin` and stamp them."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("no active timing transaction")
        if self._spent:
            raise RuntimeError(_SPENT)
        self._journal = None
        self.epoch = epoch = self.epoch + 1
        stamp = self._stamp
        for i in journal.noted:
            stamp[i] = epoch
        arrival_stamp = self._arrival_stamp
        for i in journal.arrival:
            arrival_stamp[i] = epoch
        required_stamp = self._required_stamp
        for i in journal.required:
            required_stamp[i] = epoch

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
        self._fwd_seeds.clear()
        self._stale_loads.clear()
        self._load_heap.clear()
        self._stale_required.clear()
        self._required_heap.clear()
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

    def forward_loads(self) -> list[float]:
        """The live load array, aligned with the order, forward-repaired.

        Loads are final after the forward repair alone, so a reader of
        loads (:meth:`repro.core.state.ScalingState.power`) skips the
        backward required cascade :meth:`levelized_arrays` runs.  The
        same zero-copy, read-only contract applies.
        """
        self._ensure_forward()
        return self._load

    def slack(self, name: str) -> float:
        if not self._clean:
            self.refresh()
        i = self._pos[name]
        return self._required[i] - self._arrival[i]

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
        A yes inside a transaction leaves the proving PI-to-PO path in
        :attr:`last_path` for :meth:`replay_exceeds` (``None`` when no
        path reproduces the arrivals bit-exactly).
        """
        self.last_path = None
        if self._journal is not None and self._ensure_forward(limit):
            return True
        worst = self.worst_delay
        if worst > limit and self._journal is not None:
            arrival = self._arrival
            pos = self._pos
            for out in self.network.outputs:
                at = arrival[pos[out]]
                if at + self.calculator.edge_extra_delay(out, OUTPUT) == worst:
                    self.last_path = self._back_chain(out, at)
                    break
        return worst > limit

    def critical_path(self) -> list[str]:
        """One worst input-to-output path (node names, PI first)."""
        self._ensure_forward()
        return trace_critical_path(self.calculator, self.arrival, self.load)


__all__ = [
    "IncrementalTiming",
    "TimingInfeasible",
    "note_cell_swap",
    "swap_cell",
]
