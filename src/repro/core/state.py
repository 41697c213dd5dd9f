"""Shared mutable state for the multi-Vdd scaling algorithms.

A :class:`ScalingState` reads a mapped network and owns the
*assignment* every algorithm reads and writes over it: the rail of each
gate, the set of edges carrying level converters, and the cell of each
resized gate.  The timing calculator and the power estimator both read
the assignment live, so a demotion or a resize is visible to the next
query immediately.  Scaling never writes the network, so one prepared
network serves every state built on it;
:func:`repro.core.restore.materialize_converters` exports the result
into a copy.

Rails are indexed: 0 is the high supply
(:attr:`repro.library.cells.Library.rails`).  With a two-rail library
every code path below reduces bit-identically to the dual-Vdd original
(enforced by ``tests/core/test_rail_equivalence.py``).

The state is the only writer of the assignment.  Every write goes
through :meth:`ScalingState.set_rail`, :meth:`ScalingState.add_converter`,
:meth:`ScalingState.drop_converter` or :meth:`ScalingState.resize`
(``demote`` / ``promote`` and the moves' undo paths call them); each
effective rail or converter write bumps
:attr:`ScalingState.assignment_version`, each resize
:attr:`ScalingState.cells_version`, and every write reports the change
to the shared :class:`~repro.timing.delay.DelayCalculator` cache, to the
lazily created :class:`~repro.timing.incremental.IncrementalTiming`
engine and to the power plane, so :meth:`ScalingState.timing` repairs
only the affected cone instead of rebuilding a full analysis per move,
and :meth:`ScalingState.power` recomputes only the marked terms.
``levels`` (the demoted gates and their rails; a gate on rail 0 has
no entry), ``lc_edges`` and ``cells`` (the resized gates and their
current cells, in first-resize order) are live read-only views:
writing through them raises, so no write can skip the invalidation.
:meth:`ScalingState.cell` reads a gate's current cell.
:meth:`ScalingState.full_timing` is the rebuild-from-scratch oracle
the tests compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

import repro.netlist.flat
from repro.core.moves import MoveStats
from repro.library.cells import Cell, Library
from repro.netlist.flat import FlatNetwork
from repro.netlist.network import Network
from repro.power.activity import Activity, random_activities
from repro.power.estimate import (
    DEFAULT_CLOCK_MHZ,
    PowerBreakdown,
    PowerPlane,
    estimate_power_calc,
)
from repro.timing.delay import DEFAULT_PO_LOAD, OUTPUT, DelayCalculator
from repro.timing.incremental import IncrementalTiming, note_cell_swap
from repro.timing.sta import TimingAnalysis


@dataclass(frozen=True)
class ScalingOptions:
    """Knobs shared by CVS / Dscale / Gscale (paper defaults).

    ``lc_at_outputs=False`` treats level restoration of low-driven
    primary outputs as the receiving block's responsibility ("no level
    restoration except at the boundary of system blocks"), so the
    converter's power and delay are not charged to this block.  Set it
    to ``True`` to charge boundary converters here instead.

    ``include_input_nets=False`` likewise excludes primary-input net
    switching from the power figure: that energy is dissipated in the
    upstream drivers.
    """

    lc_kind: str = "pg"
    lc_at_outputs: bool = False
    include_input_nets: bool = False
    po_load: float = DEFAULT_PO_LOAD
    clock_mhz: float = DEFAULT_CLOCK_MHZ
    n_vectors: int = 512
    activity_seed: int = 1999
    timing_tolerance: float = 1e-9


class ScaleBaseline:
    """The start of every scale of one circuit, recorded once.

    Before its first move a state's flat snapshot, its power and where
    its first :func:`~repro.core.cvs.run_cvs` leaves it are functions
    of the network, the library, the options, ``tspec`` and the
    activity alone.  The record keeps a detached copy of the first
    such state's snapshot and its power, and that state's first
    ``run_cvs`` stores its outcome as :attr:`cvs` (``None`` until
    then).  :class:`repro.api.flow.PreparedCircuit` keeps one per
    circuit; :func:`repro.api.flow.scale_stage` makes it the
    :attr:`ScalingState.baseline` of every later state it
    :meth:`fits`, and that state's first ``run_cvs`` adopts it.
    """

    __slots__ = (
        "library",
        "options",
        "tspec",
        "activity",
        "flat",
        "power",
        "cvs",
    )

    def __init__(self, state: ScalingState, power: PowerBreakdown):
        """Copy ``state``'s start; ``power`` is its :meth:`ScalingState.power`.

        The state must not have moved yet.  The snapshot's planes a
        resize patches are copies, so the state's later moves leave the
        record as it was.
        """
        if state.assignment_version or state.cells_version:
            raise ValueError("a scale baseline is recorded before any move")
        self.library = state.library
        self.options = state.options
        self.tspec = state.tspec
        self.activity = state.activity
        self.flat = state.flat().copy()
        self.power = power
        self.cvs = None

    def fits(self, state: ScalingState) -> bool:
        """Whether an unmoved ``state`` starts where this record did.

        The state must scale the very network the record was taken on:
        a copy need not keep its fanout iteration order, and with it
        the last bits of the sums over fanouts.
        """
        return (
            state.network is self.flat.network
            and state.library is self.library
            and state.activity is self.activity
            and state.tspec == self.tspec
            and state.options == self.options
        )

    def sized_parts(self) -> tuple:
        """What the record alone holds, for a size estimate.

        The snapshot's planes (not the network and its order, which
        the circuit holds, nor the memoized rates, which carry the
        activity) and the CVS point.
        """
        flat = self.flat
        shared = ("network", "order", "rate_cache")
        slots = [s for s in flat.__slots__ if s not in shared]
        return [getattr(flat, slot) for slot in slots], self.cvs


class ScalingState:
    """Rails, converters and resized cells over a read-only network.

    :attr:`baseline` is the :class:`ScaleBaseline` this state starts
    from, or ``None``: :func:`repro.api.flow.scale_stage` sets it to
    the record it adopts or takes from the state.  While the state has
    not moved, :func:`~repro.core.cvs.run_cvs` records its outcome
    there or starts the state at the one recorded (:meth:`replay`).
    """

    def __init__(
        self,
        network: Network,
        library: Library,
        tspec: float,
        activity: Activity | None = None,
        options: ScalingOptions | None = None,
    ):
        if library.vdd_low is None:
            raise ValueError("library must be enriched with low-Vdd cells")
        self.network = network
        self.library = library
        self.tspec = tspec
        self.options = options or ScalingOptions()
        self._engine: IncrementalTiming | None = None
        self._flat_cache: FlatNetwork | None = None
        # The power terms by position, marked wherever a calculator
        # cache entry is dropped (see power()).
        self._power_plane: PowerPlane | None = None
        self._multi_rail = library.n_rails > 2
        # Per-driver count of fanout readers above each demotion
        # boundary: ``_below_counts[t][name]`` is the number of readers
        # of ``name`` assigned to a rail shallower than ``t``.  The CVS
        # pass toward rail ``t`` reads it for O(1) cluster-eligibility
        # checks instead of scanning every reader per visit; with two
        # rails the single ``t=1`` table is the classic high-fanout
        # count.  Maintained by set_rail.
        self._below_counts: dict[int, dict[str, int]] = {
            t: {name: len(network.fanouts(name)) for name in network.nodes}
            for t in range(1, library.n_rails)
        }
        # The assignment: the rail of every demoted gate, the
        # converter edges (a dict used as an insertion-ordered set) and
        # the cell of every resized gate, in first-resize order.
        self._levels: dict[str, int] = {}
        self._lc_edges: dict[tuple[str, str], None] = {}
        self._cells: dict[str, Cell] = {}
        self.levels = MappingProxyType(self._levels)
        self.lc_edges = self._lc_edges.keys()
        self.cells = MappingProxyType(self._cells)
        # Bumped on every effective assignment write; keys the overlay
        # memo of assignment_overlays.
        self.assignment_version = 0
        self._overlay_memo = None
        self.calc = DelayCalculator(
            network,
            library,
            levels=self._levels,
            lc_edges=self._lc_edges,
            cells=self._cells,
            lc_kind=self.options.lc_kind,
            po_load=self.options.po_load,
            cache=True,
        )
        if activity is None:
            activity = random_activities(
                network,
                n_vectors=self.options.n_vectors,
                seed=self.options.activity_seed,
            )
        self.activity = activity
        self.baseline: ScaleBaseline | None = None
        self.initial_area = self.calc.total_area()
        self._sizing_delta_cache: float | None = 0.0
        # Bumped on every cell swap; the flat snapshot carries the
        # version it was built or last patched for (rails and
        # converter edges are overlays keyed by assignment_version, so
        # only resizes move it).
        self.cells_version = 0
        # Per-move-kind counters every MoveEngine over this state
        # accumulates into (one table per run, shared across the
        # optimizers so CVS inside Gscale reports alongside the
        # resizes).
        self.move_stats = MoveStats()

    # ------------------------------------------------------------------
    # Assignment writers
    # ------------------------------------------------------------------

    def set_rail(self, name: str, rail: int) -> None:
        """Assign gate ``name`` to ``rail`` (0 = the high supply).

        A gate's cell variant follows its rail.  Beyond two rails a
        reader's rail also picks the destination of the shifters
        serving it, so the change can regroup converters on this gate's
        own net and on any fanin net that converts into it.  (With two
        rails every shifter targets rail 0 and none of that can move.)
        """
        rail = int(rail)
        levels = self._levels
        old = levels.get(name, 0)
        if rail == old:
            return
        if rail:
            levels[name] = rail
        else:
            del levels[name]
        self.assignment_version += 1
        lo, hi = (old, rail) if old < rail else (rail, old)
        delta = -1 if rail > old else 1
        fanins = set(self.network.nodes[name].fanins)
        for t in range(lo + 1, hi + 1):
            counts = self._below_counts.get(t)
            if counts is None:
                continue
            for fanin in fanins:
                counts[fanin] += delta
        calc = self.calc
        engine = self._engine
        plane = self._power_plane
        calc.invalidate_variant(name)
        if engine is not None:
            engine.note_variant_changed(name)
        if plane is not None:
            plane.mark(name)
        if self._multi_rail:
            nets = [name]
            nets.extend(f for f in fanins if (f, name) in self._lc_edges)
            for net in nets:
                calc.invalidate_net(net)
                if engine is not None:
                    engine.note_net_changed(net)
                if plane is not None:
                    plane.mark(net)

    def add_converter(self, edge: tuple[str, str]) -> None:
        """Put a level converter on ``edge`` (``(driver, reader)``)."""
        if edge not in self._lc_edges:
            self._lc_edges[edge] = None
            self._converter_changed(edge[0])

    def drop_converter(self, edge: tuple[str, str]) -> None:
        """Remove the level converter on ``edge``, if there is one."""
        if edge in self._lc_edges:
            del self._lc_edges[edge]
            self._converter_changed(edge[0])

    def _converter_changed(self, driver: str) -> None:
        """A converter edge (dis)appeared: the driver's net changed."""
        self.assignment_version += 1
        self.calc.invalidate_net(driver)
        if self._engine is not None:
            self._engine.note_net_changed(driver)
        if self._power_plane is not None:
            self._power_plane.mark(driver)

    def replay(
        self,
        flat: FlatNetwork,
        levels: tuple[tuple[str, int], ...],
        lc_edges: tuple[tuple[str, str], ...],
        arrays: tuple[list[float], list[float], list[float]],
    ) -> None:
        """Start this engine-less state at a recorded assignment.

        The snapshot is a :meth:`FlatNetwork.copy` of ``flat``, a
        snapshot of this state's network.  ``levels`` (``(gate, rail)``
        items) and ``lc_edges`` go through :meth:`set_rail` and
        :meth:`add_converter` in their order, so every view, count,
        cache and :attr:`assignment_version` follows as for any write.
        The engine then starts from copies of ``arrays``, the ``(load,
        arrival, required)`` lists a sweep after the writes returns.
        """
        if self._engine is not None:
            raise RuntimeError("replay starts the state's timing engine")
        self._flat_cache = flat.copy()
        for name, rail in levels:
            self.set_rail(name, rail)
        for edge in lc_edges:
            self.add_converter(edge)
        self._engine = IncrementalTiming.from_arrays(
            self.calc, self.tspec, tuple(list(a) for a in arrays)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n_rails(self) -> int:
        return self.library.n_rails

    @property
    def rails(self) -> tuple[float, ...]:
        return self.library.rails

    def rail_of(self, name: str) -> int:
        """The rail index ``name`` is assigned to (0 = high supply)."""
        return self._levels.get(name, 0)

    def is_low(self, name: str) -> bool:
        return name in self._levels

    def cell(self, name: str) -> Cell | None:
        """The high-rail cell bound to ``name`` (resized or the network's)."""
        return self.calc.cell(name)

    def low_nodes(self) -> list[str]:
        return list(self._levels)

    def converter_readers(self, driver: str) -> tuple[str, ...]:
        """Readers of ``driver`` behind a converter, in fanout order.

        A converter guarding ``driver``'s primary output is reported as
        the ``OUTPUT`` reader, last.  O(fanout).
        """
        edges = self._lc_edges
        readers = [
            r for r in self.network.fanouts(driver) if (driver, r) in edges
        ]
        if (driver, OUTPUT) in edges:
            readers.append(OUTPUT)
        return tuple(readers)

    def fanout_counts_below(self, target: int) -> dict[str, int]:
        """Per-driver count of readers assigned shallower than ``target``."""
        return self._below_counts[target]

    @property
    def n_low(self) -> int:
        return len(self._levels)

    @property
    def n_gates(self) -> int:
        return sum(1 for n in self.network.nodes.values() if not n.is_input)

    @property
    def low_ratio(self) -> float:
        gates = self.n_gates
        return self.n_low / gates if gates else 0.0

    @property
    def timed(self) -> bool:
        """Whether :meth:`timing` or :meth:`replay` made the engine."""
        return self._engine is not None

    def timing(self) -> IncrementalTiming:
        """The current timing picture (incrementally repaired).

        Returns the shared engine, which repairs only the dirty region
        on each query -- O(affected cone) per move instead of O(V+E).
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = IncrementalTiming(
                self.calc, self.tspec, flat_source=self.flat
            )
        # No eager refresh: every engine query self-repairs, and probes
        # that only ask worst_delay / meets_timing then pay just the
        # forward (arrival) repair, never the backward required cascade.
        return engine

    def full_timing(self) -> TimingAnalysis:
        """A rebuild-from-scratch analysis on an uncached calculator.

        This is the equivalence oracle: it reads the live assignment
        but shares none of the caches, so it cannot be polluted by a
        missed invalidation.
        """
        oracle_calc = DelayCalculator(
            self.network,
            self.library,
            levels=self._levels,
            lc_edges=self._lc_edges,
            cells=self._cells,
            lc_kind=self.options.lc_kind,
            po_load=self.options.po_load,
        )
        return TimingAnalysis(oracle_calc, self.tspec)

    def flat(self) -> FlatNetwork:
        """The shared CSR snapshot of this state's network.

        Cached on the state and rebuilt only when the network's
        topological revision changes: :meth:`resize` patches a
        current snapshot in place and stamps it with the new
        ``cells_version``.  Rails, converter edges, activity rates and
        timing are overlaid by the consumers (full-STA builds, batched
        pricing, power, candidate enumeration); see
        :meth:`assignment_overlays` and :mod:`repro.netlist.flat`.
        """
        flat = self._cached_flat()
        if flat is None:
            # Looked up on the module per call, so a wrapper installed
            # there (perfbench's ``netlist.flat`` span) sees every build.
            flat = self._flat_cache = repro.netlist.flat.build_flat(
                self.network, self.calc, version=self.cells_version
            )
        return flat

    def _cached_flat(self) -> FlatNetwork | None:
        """The cached snapshot if it is still current, else ``None``.

        Current means built (or patched) for the network's cached
        topological-order list (a topology edit makes a new one) and
        the current ``cells_version``.
        """
        flat = self._flat_cache
        if (
            flat is not None
            and flat.version == self.cells_version
            and flat.order is self.network.topological()
        ):
            return flat
        return None

    def assignment_overlays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rails, keys, po_lc)``: the assignment over :meth:`flat`.

        ``rails`` is :meth:`FlatNetwork.rail_plane` and ``(keys,
        po_lc)`` is :meth:`FlatNetwork.lc_edge_keys` of the current
        assignment.  Memoized per (snapshot, ``assignment_version``),
        so a Dscale round that filters, checks and prices one
        assignment builds the overlays once.  The arrays are read-only.
        """
        flat = self.flat()
        version = self.assignment_version
        memo = self._overlay_memo
        if memo is not None and memo[0] is flat and memo[1] == version:
            return memo[2]
        keys, po_lc = flat.lc_edge_keys(self._lc_edges)
        overlays = (flat.rail_plane(self._levels), keys, po_lc)
        self._overlay_memo = (flat, version, overlays)
        return overlays

    def power(self) -> PowerBreakdown:
        """Total power and its components under the live assignment.

        The state keeps one :class:`~repro.power.estimate.PowerPlane`
        over :meth:`flat`: its first call is the full vector sweep, and
        every writer marks the nodes whose cached variant or net it
        drops (:meth:`set_rail`, the converter writers, :meth:`resize`:
        the gate, its net, a resized gate's fanin nets and the regrouped
        nets beyond two rails), so a later call recomputes only those
        terms, bit-identically.  Loads come from the timing engine's
        forward repair alone.  A what-if move journals the plane with
        the timing arrays, and a rollback restores both; a plane first
        built inside the move is repaired by the marks of the undo.
        """
        flat = self.flat()
        plane = self._power_plane
        if plane is None or plane.flat is not flat:
            plane = self._power_plane = PowerPlane(
                self.calc,
                self.activity,
                self.options.clock_mhz,
                self.options.include_input_nets,
                flat,
            )
        return estimate_power_calc(
            self.calc,
            self.activity,
            loads=self.timing().forward_loads(),
            plane=plane,
        )

    def area(self) -> float:
        return self.calc.total_area()

    @property
    def area_increase_ratio(self) -> float:
        """Total area growth, converters included."""
        if self.initial_area <= 0:
            return 0.0
        return (self.area() - self.initial_area) / self.initial_area

    @property
    def sizing_area_delta(self) -> float:
        """Net cell-area change from resizing alone (fF-free units).

        This is what the paper's +10% budget and Table 2's AreaInc
        column govern; converter area is tracked separately in
        :meth:`area`.  The value is memoized and invalidated by
        :meth:`resize`, so Gscale's inner loop pays O(1) per access
        instead of a full dict scan.  (A re-scan on invalidation -- not
        a running float accumulator -- keeps the value bit-identical to
        the seed computation regardless of resize order.)
        """
        if self._sizing_delta_cache is None:
            # A gate resized back to its cell adds an exact 0.0.
            nodes = self.network.nodes
            delta = 0.0
            for name, new in self._cells.items():
                delta += new.area - nodes[name].cell.area
            self._sizing_delta_cache = delta
        return self._sizing_delta_cache

    @property
    def sizing_area_increase_ratio(self) -> float:
        if self.initial_area <= 0:
            return 0.0
        return self.sizing_area_delta / self.initial_area

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def new_lc_edges_for(
        self, name: str, target: int | None = None
    ) -> list[tuple[str, str]]:
        """Converter edges a demotion of ``name`` to ``target`` would add.

        ``target=None`` prices the classic one-rail step; a deeper
        ``target`` prices a non-adjacent demotion (every reader still
        above ``target`` needs a converter).
        """
        if target is None:
            target = self.rail_of(name) + 1
        edges = []
        lc_edges = self._lc_edges
        for reader in self.network.fanouts(name):
            if (
                self.rail_of(reader) < target
                and (name, reader) not in lc_edges
            ):
                edges.append((name, reader))
        if (
            self.options.lc_at_outputs
            and name in self.network.outputs
            and (name, OUTPUT) not in lc_edges
        ):
            edges.append((name, OUTPUT))
        return edges

    def demote(
        self, name: str, target: int | None = None
    ) -> list[tuple[str, str]]:
        """Drop ``name`` to a lower rail and splice the required converters.

        ``target=None`` drops one rail (the classic move); an explicit
        deeper ``target`` performs a non-adjacent demotion in a single
        mutation -- one rail write, one batch of new converter edges --
        so the timing engine repairs the cone once, not once per
        intermediate rail.
        """
        node = self.network.nodes[name]
        if node.is_input:
            raise ValueError("primary inputs cannot be demoted")
        rail = self.rail_of(name)
        if target is None:
            target = rail + 1
        if target >= self.n_rails:
            raise ValueError(f"{name!r} is already at the lowest rail")
        if target <= rail:
            raise ValueError(
                f"demotion target {target} must sit below {name!r}'s "
                f"current rail {rail}"
            )
        edges = self.new_lc_edges_for(name, target)
        self.set_rail(name, target)
        for edge in edges:
            self.add_converter(edge)
        return edges

    def promote(self, name: str) -> None:
        """Raise ``name`` one rail (rollback support); O(fanout)."""
        rail = self.rail_of(name)
        if rail == 0:
            raise ValueError(f"{name!r} is already at the high rail")
        new_rail = rail - 1
        self.set_rail(name, new_rail)
        for reader in self.converter_readers(name):
            reader_rail = 0 if reader == OUTPUT else self.rail_of(reader)
            if reader_rail >= new_rail:
                self.drop_converter((name, reader))

    def resize(self, name: str, cell: Cell) -> None:
        """Bind another size of a gate's cell (same base) in :attr:`cells`.

        The network keeps its cell; a gate resized back to it keeps its
        entry (and its place in the first-resize order).
        """
        base = self.cell(name).base
        if cell.base != base:
            raise ValueError(
                f"resize must stay within one base: {base!r} "
                f"vs {cell.base!r}"
            )
        self._cells[name] = cell
        self._sizing_delta_cache = None
        flat = self._cached_flat()
        self.cells_version += 1
        note_cell_swap(self.calc, self._engine, name)
        plane = self._power_plane
        if plane is not None:
            plane.mark(name)
            for fanin in self.network.nodes[name].fanins:
                plane.mark(fanin)
        if flat is not None:
            flat.resize(flat.pos[name], self.calc)
            flat.version = self.cells_version

    @property
    def n_resized(self) -> int:
        nodes = self.network.nodes
        return sum(c.name != nodes[n].cell.name for n, c in self.cells.items())

    # ------------------------------------------------------------------
    # What-if transactions
    # ------------------------------------------------------------------

    def begin_move(self) -> None:
        """Open a what-if window around a candidate move.

        Between ``begin_move`` and ``commit_move`` / ``rollback_move``
        the caller mutates the state and queries :meth:`timing`; only
        the mutated cone is repaired.  On rollback the caller reverts
        its own mutations (resize back / re-add the edge) and the
        journaled timing values are restored without recomputation.
        """
        self.timing().begin()
        if self._power_plane is not None:
            self._power_plane.begin()

    def commit_move(self) -> None:
        """Keep the candidate move's timing and power updates."""
        if self._engine is not None:
            self._engine.commit()
        if self._power_plane is not None:
            self._power_plane.commit()

    def rollback_move(self) -> None:
        """Restore pre-move timing and power (call after reverting)."""
        if self._engine is not None:
            self._engine.rollback()
        if self._power_plane is not None:
            self._power_plane.rollback()

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise if the multi-Vdd legality invariant is broken.

        Every up-crossing (a driver feeding a reader on a shallower
        rail, including low-driven primary outputs when
        ``lc_at_outputs`` is set) must carry a converter, no converter
        may sit on a high-rail driver's net, and the network must still
        meet ``tspec``.
        """
        network = self.network
        lc_edges = self._lc_edges
        for name, rail in self._levels.items():
            for reader in network.fanouts(name):
                if (
                    self.rail_of(reader) < rail
                    and (name, reader) not in lc_edges
                ):
                    raise AssertionError(
                        f"unconverted low->high edge {name!r} -> {reader!r}"
                    )
            if (
                self.options.lc_at_outputs
                and name in network.outputs
                and (name, OUTPUT) not in lc_edges
            ):
                raise AssertionError(
                    f"unconverted low primary output {name!r}"
                )
        for driver, _ in lc_edges:
            if not self.is_low(driver):
                raise AssertionError(
                    f"converter on edge from high driver {driver!r}"
                )
        analysis = self.timing()
        if not analysis.meets_timing(self.options.timing_tolerance):
            raise AssertionError(
                f"timing violated: {analysis.worst_delay:.4f} ns > "
                f"tspec {self.tspec:.4f} ns"
            )


__all__ = ["ScaleBaseline", "ScalingOptions", "ScalingState"]
