"""Shared mutable state for the multi-Vdd scaling algorithms.

A :class:`ScalingState` owns the mapped network plus the *assignment*
every algorithm reads and writes: the rail of each gate and the set of
edges carrying level converters.  The timing calculator and the power
estimator both read the assignment live, so a demotion is visible to
the next query immediately -- no network surgery happens until
:func:`repro.core.restore.materialize_converters` exports the result.

Rails are indexed: 0 is the high supply
(:attr:`repro.library.cells.Library.rails`).  With a two-rail library
every code path below reduces bit-identically to the dual-Vdd original
(enforced by ``tests/core/test_rail_equivalence.py``).

The state is the only writer of the assignment.  Every write goes
through :meth:`ScalingState.set_rail`, :meth:`ScalingState.add_converter`
or :meth:`ScalingState.drop_converter` (``demote`` / ``promote`` and
the moves' undo paths call them), and each effective write bumps
:attr:`ScalingState.assignment_version` and reports the change to the
shared :class:`~repro.timing.delay.DelayCalculator` cache and to the
lazily created :class:`~repro.timing.incremental.IncrementalTiming`
engine, so :meth:`ScalingState.timing` repairs only the affected cone
instead of rebuilding a full analysis per move.  ``levels`` (the
demoted gates and their rails; a gate on rail 0 has no entry) and
``lc_edges`` are live read-only views: writing through them raises,
so no write can skip the invalidation.  :meth:`ScalingState.full_timing`
is the rebuild-from-scratch oracle the tests compare the engine
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

import repro.netlist.flat
from repro.core.moves import MoveStats
from repro.library.cells import Library
from repro.netlist.flat import FlatNetwork
from repro.netlist.network import Network
from repro.netlist.validate import check_network
from repro.power.activity import Activity, random_activities
from repro.power.estimate import (
    DEFAULT_CLOCK_MHZ,
    PowerBreakdown,
    estimate_power_calc,
)
from repro.timing.delay import DEFAULT_PO_LOAD, OUTPUT, DelayCalculator
from repro.timing.incremental import IncrementalTiming, swap_cell
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


class ScalingState:
    """Mapped network + rail assignments + converter placement."""

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
        check_network(network, require_mapped=True)
        self.network = network
        self.library = library
        self.tspec = tspec
        self.options = options or ScalingOptions()
        self._engine: IncrementalTiming | None = None
        self._flat_cache: FlatNetwork | None = None
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
        # The assignment: the rail of every demoted gate, and the
        # converter edges (a dict used as an insertion-ordered set).
        self._levels: dict[str, int] = {}
        self._lc_edges: dict[tuple[str, str], None] = {}
        self.levels = MappingProxyType(self._levels)
        self.lc_edges = self._lc_edges.keys()
        # Bumped on every effective assignment write; keys the overlay
        # memo of assignment_overlays.
        self.assignment_version = 0
        self._overlay_memo = None
        self.calc = DelayCalculator(
            network,
            library,
            levels=self._levels,
            lc_edges=self._lc_edges,
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
        self.initial_area = self.calc.total_area()
        self.resized: dict[str, tuple[str, str]] = {}
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
        calc.invalidate_variant(name)
        if engine is not None:
            engine.note_variant_changed(name)
        if self._multi_rail:
            nets = [name]
            nets.extend(f for f in fanins if (f, name) in self._lc_edges)
            for net in nets:
                calc.invalidate_net(net)
                if engine is not None:
                    engine.note_net_changed(net)

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
            lc_kind=self.options.lc_kind,
            po_load=self.options.po_load,
        )
        return TimingAnalysis(oracle_calc, self.tspec)

    def flat(self) -> FlatNetwork:
        """The shared CSR snapshot of this state's network.

        Cached on the state and rebuilt only when the network identity
        or its topological revision changes: :meth:`resize` patches a
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

        Current means built (or patched) for this network object, its
        cached topological-order list (a topology edit makes a new
        one) and the current ``cells_version``.
        """
        flat = self._flat_cache
        if (
            flat is not None
            and flat.network is self.network
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
        _, _, _, loads = self.timing().levelized_arrays()
        return estimate_power_calc(
            self.calc,
            self.activity,
            clock_mhz=self.options.clock_mhz,
            include_input_nets=self.options.include_input_nets,
            flat=self.flat(),
            loads=loads,
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
            delta = 0.0
            for old_name, new_name in self.resized.values():
                if old_name != new_name:
                    delta += (
                        self.library.cell(new_name).area
                        - self.library.cell(old_name).area
                    )
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

    def resize(self, name: str, cell) -> None:
        """Swap a gate's bound cell (same base, other size)."""
        node = self.network.nodes[name]
        if cell.base != node.cell.base:
            raise ValueError(
                f"resize must stay within one base: {node.cell.base!r} "
                f"vs {cell.base!r}"
            )
        self.resized.setdefault(name, (node.cell.name, cell.name))
        self.resized[name] = (self.resized[name][0], cell.name)
        self._sizing_delta_cache = None
        flat = self._cached_flat()
        self.cells_version += 1
        swap_cell(self.calc, self._engine, name, cell)
        if flat is not None:
            flat.resize(flat.pos[name], self.calc)
            flat.version = self.cells_version

    @property
    def n_resized(self) -> int:
        return sum(1 for old, new in self.resized.values() if old != new)

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

    def commit_move(self) -> None:
        """Keep the candidate move's timing updates."""
        if self._engine is not None:
            self._engine.commit()

    def rollback_move(self) -> None:
        """Restore pre-move timing (call after reverting the mutations)."""
        if self._engine is not None:
            self._engine.rollback()

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


__all__ = ["ScalingOptions", "ScalingState"]
