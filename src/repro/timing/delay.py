"""Multi-Vdd-aware pin-to-pin delay calculation.

Delay model (the paper's "simple static timing analysis" over a
"pin-to-pin Elmore delay model"): a gate's pin-to-output delay is
``intrinsic[pin] + drive_res * C_load`` with the load summed from fanout
pin capacitances, a fanout-count wire estimate, and the primary-output
load.  A gate assigned to a lower rail uses its derated library twin; an
edge carrying a level converter inserts the converter's own stage delay
and replaces the reader's pin capacitance with the converter's on the
driver's net.

Rails are indexed: ``0`` is the high supply, larger indices are lower
voltages (:attr:`repro.library.cells.Library.rails`).  The ``levels``
table maps node name to rail index; the classic dual-Vdd code wrote
booleans there, which still works because ``bool`` is an ``int``.
Converted readers of one driver are grouped by destination rail -- one
shifter per (net, destination rail), the N-rail generalization of the
Usami [8] per-net restoration scheme.  That grouping is defined once, by
:meth:`DelayCalculator.converter_loads`; net loads, shifter delays,
converter area and power all read its per-net profile.  With two rails
every group lands on rail 0 and the arithmetic reduces term for term to
the dual-Vdd original.

The calculator reads the caller's ``levels`` / ``lc_edges`` collections
*live* -- for a :class:`repro.core.state.ScalingState` these are the
state's private assignment dicts, which only its writers
(``set_rail`` / ``add_converter`` / ``drop_converter``) change -- and
every query reflects the current assignment.

With ``cache=True`` the calculator memoizes per-net loads, per-driver
converter profiles and stage delays, and per-gate cell variants.
Cached entries are dropped *per net* through
:meth:`DelayCalculator.invalidate_net` /
:meth:`DelayCalculator.invalidate_variant` rather than recomputed per
query; :class:`repro.core.state.ScalingState` owns the mutations and
routes every one to the right invalidation, which is what makes cached
queries safe against the live-read contract.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

from repro.library.cells import Cell, Library
from repro.netlist.network import Network

OUTPUT = "@output"
"""Sentinel reader name for the primary-output use of a node."""

DEFAULT_PO_LOAD = 10.0
"""External capacitance (fF) presented by each primary output."""


class DemotionNetChange:
    """Result of :meth:`DelayCalculator.demotion_net_change`.

    ``converter_loads`` maps each *new* shifter's destination rail to
    its output load; edges already carrying a shifter keep theirs and
    only contribute to ``load_after``.
    """

    __slots__ = ("load_after", "converter_loads", "new_edges")

    def __init__(self, load_after: float,
                 converter_loads: dict[int, float],
                 new_edges: list[tuple[str, str]]):
        self.load_after = load_after
        self.converter_loads = converter_loads
        self.new_edges = new_edges


class DelayCalculator:
    """Pin delays, net loads, and converter delays for one network.

    Parameters
    ----------
    network:
        A technology-mapped network (every gate carries a cell).
    library:
        The enriched multi-Vdd library the cells came from.
    levels:
        Mapping from node name to rail index (``0`` / missing = the high
        rail; booleans from the dual-Vdd era still work).  The mapping
        is read live, never written.
    lc_edges:
        Collection of ``(driver, reader)`` pairs carrying a level
        converter, with ``reader == OUTPUT`` for a converter guarding a
        primary output.  Read live as well.
    cache:
        Enable per-net load / converter-delay / variant memoization.
        Only safe when the owner of ``levels`` / ``lc_edges`` / the
        network's cells reports every mutation via
        :meth:`invalidate_net` and :meth:`invalidate_variant` (see
        :class:`repro.core.state.ScalingState`).
    """

    def __init__(self, network: Network, library: Library,
                 levels: Mapping[str, int] | None = None,
                 lc_edges: Collection[tuple[str, str]] | None = None,
                 lc_kind: str = "pg",
                 po_load: float = DEFAULT_PO_LOAD,
                 cache: bool = False):
        self.network = network
        self.library = library
        self.levels = levels if levels is not None else {}
        self.lc_edges = lc_edges if lc_edges is not None else set()
        self.lc_kind = lc_kind
        self.lc_cell = library.level_converter(lc_kind)
        # Shifter variants per destination rail; the lowest rail never
        # receives an up-shift, so it has no entry.
        self._lc_cells: dict[int, Cell] = {0: self.lc_cell}
        for rail in range(1, len(library.rails) - 1):
            self._lc_cells[rail] = library.level_converter(
                lc_kind, library.rails[rail]
            )
        self.po_load = po_load
        self._twin_cache: dict[tuple[str, float], Cell] = {}
        self._load_cache: dict[str, float] | None = {} if cache else None
        self._lc_delay_cache: dict[str, dict[int, float]] | None = (
            {} if cache else None
        )
        self._profile_cache: dict[str, dict[int, float]] | None = (
            {} if cache else None
        )
        self._variant_cache: dict[str, Cell] | None = {} if cache else None

    # ------------------------------------------------------------------
    # Cache invalidation (no-ops when caching is off)
    # ------------------------------------------------------------------

    def invalidate_net(self, name: str) -> None:
        """Drop every cached entry of the net ``name`` drives."""
        if self._load_cache is not None:
            self._load_cache.pop(name, None)
            self._lc_delay_cache.pop(name, None)
            self._profile_cache.pop(name, None)

    def invalidate_variant(self, name: str) -> None:
        """Drop the cached cell variant of gate ``name``."""
        if self._variant_cache is not None:
            self._variant_cache.pop(name, None)

    # ------------------------------------------------------------------
    # Rails and cell selection
    # ------------------------------------------------------------------

    @property
    def n_rails(self) -> int:
        return len(self.library.rails)

    def rail_of(self, name: str) -> int:
        """The rail index ``name`` is assigned to (0 = high supply)."""
        return self.levels.get(name, 0)

    def is_low(self, name: str) -> bool:
        return self.rail_of(name) > 0

    def reader_rail(self, reader: str) -> int:
        """Rail of a fanout connection (primary outputs swing high)."""
        if reader == OUTPUT:
            return 0
        return self.rail_of(reader)

    def converter_rail(self, driver: str, reader: str) -> int:
        """Destination rail of the shifter on edge ``driver -> reader``.

        A shifter lifts the driver's swing toward the reader's rail but
        never *down*: an edge whose reader has meanwhile been demoted to
        (or below) the driver's rail is priced as a shift to the next
        rail up until the cleanup pass removes it.  With two rails this
        is always rail 0, the dual-Vdd converter.
        """
        target = min(self.reader_rail(reader), self.rail_of(driver) - 1)
        return target if target > 0 else 0

    def lc_cell_for(self, rail: int) -> Cell:
        """The shifter cell whose output swings at ``rail``."""
        return self._lc_cells[rail]

    def variant(self, name: str) -> Cell:
        """The cell implementing ``name`` at its current rail."""
        cache = self._variant_cache
        if cache is not None:
            cell = cache.get(name)
            if cell is not None:
                return cell
        node = self.network.nodes[name]
        if node.cell is None:
            raise ValueError(f"node {name!r} is not mapped to a cell")
        rail = self.rail_of(name)
        cell = node.cell if rail == 0 else self.rail_variant_of(
            node.cell, rail
        )
        if cache is not None:
            cache[name] = cell
        return cell

    def rail_variant_of(self, cell: Cell, rail: int) -> Cell:
        """The twin of a high-rail cell at rail index ``rail`` (cached)."""
        if rail == 0:
            return cell
        rails = self.library.rails
        if rail >= len(rails):
            raise ValueError(f"no rail {rail} in {rails}")
        vdd = rails[rail]
        key = (cell.name, vdd)
        twin = self._twin_cache.get(key)
        if twin is None:
            twin = self.library.twin(cell, vdd)
            self._twin_cache[key] = twin
        return twin

    # ------------------------------------------------------------------
    # Net loads
    # ------------------------------------------------------------------

    def reader_pin_cap(self, driver: str, reader: str) -> float:
        """Capacitance the ``driver -> reader`` connection presents.

        Sums every pin of ``reader`` fed by ``driver`` (a gate may read
        the same signal more than once).  Voltage does not change pin
        capacitance, so the reader's nominal cell is consulted.
        """
        node = self.network.nodes[reader]
        return sum(
            node.cell.input_caps[pin]
            for pin, fanin in enumerate(node.fanins)
            if fanin == driver
        )

    def load(self, name: str) -> float:
        """Total capacitance (fF) on the net driven by ``name``.

        Direct readers contribute their pins; a net that carries a
        converter adds one shifter input pin per destination rail of
        its :meth:`converter_loads` profile, in profile order.
        """
        cache = self._load_cache
        if cache is not None:
            cached = cache.get(name)
            if cached is not None:
                return cached
        lc_edges = self.lc_edges
        total = 0.0
        connections = 0
        converted = False
        for reader in self.network.fanouts(name):
            if (name, reader) in lc_edges:
                converted = True
            else:
                connections += 1
                total += self.reader_pin_cap(name, reader)
        if name in self.network.outputs:
            if (name, OUTPUT) in lc_edges:
                converted = True
            else:
                connections += 1
                total += self.po_load
        if converted:
            for rail in self.converter_loads(name):
                connections += 1
                total += self.lc_cell_for(rail).input_caps[0]
        # A level-converting receiver's output stays inside the
        # receiving gates (Usami [8] / Wang [10]), so a materialized
        # converter node's net carries no interconnect estimate --
        # exactly what converter_loads() prices for the virtual
        # converter.
        cell = self.network.nodes[name].cell
        if cell is None or not cell.is_level_converter:
            total += self.library.wire_model.cap(connections)
        if cache is not None:
            cache[name] = total
        return total

    def converter_loads(self, driver: str) -> dict[int, float]:
        """Output load of each of ``driver``'s shifters, by destination rail.

        The one place converted readers are grouped: one converter per
        *(net, destination rail)* (the Usami [8] restoration scheme,
        generalized), so a single shifter on a low driver's output
        feeds every converted reader of one destination rail and its
        cost is amortized across them.  The Usami [8] / Wang [10]
        designs integrate the converter at the receiving gates (a
        level-converting receiver), so its output drives only the
        converted pins with no additional interconnect -- the long
        wire stays on the (low-swing) driver side.  Rails appear in
        first-converted-reader order (fanout order, then the primary
        output), and each load is summed from ``0.0`` over its
        converted readers in that same order.  Memoized per driver with
        ``cache=True`` and dropped by :meth:`invalidate_net`; callers
        must not mutate the returned dict.
        """
        cache = self._profile_cache
        if cache is not None:
            profile = cache.get(driver)
            if profile is not None:
                return profile
        lc_edges = self.lc_edges
        profile = {}
        for reader in self.network.fanouts(driver):
            if (driver, reader) in lc_edges:
                rail = self.converter_rail(driver, reader)
                cap = self.reader_pin_cap(driver, reader)
                profile[rail] = profile.get(rail, 0.0) + cap
        if driver in self.network.outputs and (driver, OUTPUT) in lc_edges:
            profile[0] = profile.get(0, 0.0) + self.po_load
        if cache is not None:
            cache[driver] = profile
        return profile

    # ------------------------------------------------------------------
    # Delays
    # ------------------------------------------------------------------

    def pin_delay(self, name: str, pin: int, load: float | None = None) -> float:
        """Delay from input ``pin`` to the output of gate ``name``."""
        cell = self.variant(name)
        if load is None:
            load = self.load(name)
        return cell.pin_delay(pin, load)

    def lc_delay(self, driver: str, reader: str = "") -> float:
        """Stage delay of the shifter serving ``driver -> reader``.

        With no ``reader`` the rail-0 (dual-Vdd) shifter is assumed, the
        only one a two-rail design ever has.
        """
        rail = self.converter_rail(driver, reader) if reader else 0
        cache = self._lc_delay_cache
        if cache is not None:
            per_driver = cache.get(driver)
            if per_driver is not None:
                cached = per_driver.get(rail)
                if cached is not None:
                    return cached
        delay = self.lc_cell_for(rail).pin_delay(
            0, self.converter_loads(driver).get(rail, 0.0)
        )
        if cache is not None:
            cache.setdefault(driver, {})[rail] = delay
        return delay

    def edge_extra_delay(self, driver: str, reader: str) -> float:
        """Converter delay on an edge, or 0 when no converter sits there."""
        if (driver, reader) in self.lc_edges:
            return self.lc_delay(driver, reader)
        return 0.0

    def demotion_net_change(self, name: str, lc_at_outputs: bool,
                            target: int | None = None
                            ) -> "DemotionNetChange":
        """Hypothetical net profile if ``name`` dropped to ``target`` now.

        ``target=None`` prices the classic one-rail step; a deeper
        ``target`` prices a non-adjacent demotion.  Readers at or below
        the destination rail (and the primary output, when boundary
        conversion is off) stay directly on the driver's -- now
        lower-swing -- net; each higher-rail reader group moves onto
        one new shifter; readers already behind a shifter keep it.
        Returns the driver's new load, the new shifters' output loads
        per destination rail (empty when none is needed), and the
        converter edges to record.
        """
        network = self.network
        wire = self.library.wire_model
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
        direct_cap = 0.0
        direct_count = 0
        converter_loads: dict[int, float] = {}
        kept_rails: list[int] = []
        new_edges: list[tuple[str, str]] = []
        for reader in network.fanouts(name):
            pin_cap = self.reader_pin_cap(name, reader)
            if (name, reader) in self.lc_edges:
                rail = min(self.reader_rail(reader), target - 1)
                rail = rail if rail > 0 else 0
                if rail not in kept_rails:
                    kept_rails.append(rail)
            elif self.rail_of(reader) >= target:
                direct_cap += pin_cap
                direct_count += 1
            else:
                rail = self.rail_of(reader)
                converter_loads[rail] = (
                    converter_loads.get(rail, 0.0) + pin_cap
                )
                new_edges.append((name, reader))
        if name in network.outputs:
            if (name, OUTPUT) in self.lc_edges:
                if 0 not in kept_rails:
                    kept_rails.append(0)
            elif lc_at_outputs:
                converter_loads[0] = converter_loads.get(0, 0.0) + self.po_load
                new_edges.append((name, OUTPUT))
            else:
                direct_cap += self.po_load
                direct_count += 1

        all_rails = list(kept_rails)
        for rail in converter_loads:
            if rail not in all_rails:
                all_rails.append(rail)
        connections = direct_count + len(all_rails)
        load_after = direct_cap + wire.cap(connections)
        for rail in all_rails:
            load_after += self.lc_cell_for(rail).input_caps[0]
        return DemotionNetChange(
            load_after=load_after,
            converter_loads=converter_loads,
            new_edges=new_edges,
        )

    def new_converter_delays(self, change: "DemotionNetChange"
                             ) -> dict[int, float]:
        """Stage delay of each *new* shifter a demotion would splice in.

        Exact only when the driver has no existing shifter on the same
        destination rail; CVS candidates satisfy that by construction
        (no new reader edges at all), Dscale must use
        :meth:`post_demotion_converter_delays` instead.
        """
        return {
            rail: self.lc_cell_for(rail).pin_delay(0, load)
            for rail, load in change.converter_loads.items()
        }

    def post_demotion_converter_delays(self, name: str,
                                       change: "DemotionNetChange"
                                       ) -> dict[int, float]:
        """Per-destination-rail shifter delays *after* demoting ``name``.

        One shifter serves each (net, destination rail), so a new edge
        whose reader rail already has a shifter (e.g. a kept primary-
        output shifter on rail 0) merges into it: the surviving
        shifter's delay is priced at the combined output load, and a
        kept group with no new members keeps its current delay.  With
        no existing groups this reduces exactly to
        :meth:`new_converter_delays`.
        """
        profile = self.converter_loads(name)
        delays: dict[int, float] = {}
        for rail in set(profile) | set(change.converter_loads):
            load = profile.get(rail, 0.0)
            load += change.converter_loads.get(rail, 0.0)
            delays[rail] = self.lc_cell_for(rail).pin_delay(0, load)
        return delays

    # ------------------------------------------------------------------
    # Area
    # ------------------------------------------------------------------

    def total_area(self) -> float:
        """Cell area plus converter area under the current state."""
        area = sum(
            node.cell.area
            for node in self.network.nodes.values()
            if node.cell is not None
        )
        group_counts: dict[int, int] = {}
        for driver in {driver for driver, _ in self.lc_edges}:
            for rail in self.converter_loads(driver):
                group_counts[rail] = group_counts.get(rail, 0) + 1
        for rail in sorted(group_counts):
            area += self.lc_cell_for(rail).area * group_counts[rail]
        return area


__all__ = ["DelayCalculator", "DemotionNetChange", "OUTPUT",
           "DEFAULT_PO_LOAD"]
