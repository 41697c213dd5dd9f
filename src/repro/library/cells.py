"""Cell and library data model.

Units used throughout the project:

========  =======================================
quantity  unit
========  =======================================
time      ns
cap       fF
drive     ns/fF (linearized output resistance)
energy    fJ (internal energy per output switch)
area      relative units (inverter d0 == 1.0)
voltage   V
========  =======================================

A gate's pin-to-pin delay is ``intrinsic[pin] + drive_res * C_load`` --
the linear "pin-to-pin Elmore" model the paper's power/timing estimation
uses.  A cell is characterized *at one supply voltage*; the enriched
dual-Vdd library stores a separate :class:`Cell` per (base, size, vdd).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.functions import TruthTable


@dataclass(frozen=True)
class Cell:
    """One library cell characterized at a single supply voltage."""

    name: str
    base: str
    size: int
    function: TruthTable
    area: float
    input_caps: tuple[float, ...]
    intrinsics: tuple[float, ...]
    drive_res: float
    internal_energy: float
    vdd: float
    is_level_converter: bool = False

    def __post_init__(self):
        n = self.function.n_inputs
        if len(self.input_caps) != n or len(self.intrinsics) != n:
            raise ValueError(
                f"cell {self.name!r}: pin attribute count must equal "
                f"function arity {n}"
            )
        if self.area <= 0 or self.drive_res <= 0:
            raise ValueError(f"cell {self.name!r}: area/drive must be positive")

    @property
    def n_inputs(self) -> int:
        return self.function.n_inputs

    def pin_delay(self, pin: int, load: float) -> float:
        """Pin-to-pin delay (ns) driving ``load`` fF."""
        return self.intrinsics[pin] + self.drive_res * load

    def max_delay(self, load: float) -> float:
        """Worst pin-to-pin delay driving ``load`` fF."""
        return max(self.intrinsics) + self.drive_res * load

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, {self.vdd}V)"


@dataclass(frozen=True)
class WireModel:
    """Fanout-based interconnect capacitance estimate (fF).

    A per-net stand-in for extracted wire parasitics: the original flow
    ran pre-layout with SIS's fanout-count wire loads, which this mirrors.
    """

    base: float = 2.0
    per_fanout: float = 1.5

    def cap(self, n_fanouts: int) -> float:
        if n_fanouts <= 0:
            return 0.0
        return self.base + self.per_fanout * n_fanouts


class Library:
    """Container of cells with the lookups the mapper and scaler need.

    The library is built at a *high* supply voltage; calling
    :meth:`enrich_low_voltage` adds a ``*_lv`` twin for every cell,
    mirroring the paper's "enrich the library by adding the low voltage
    gates" step.  :meth:`enrich_rails` generalizes the enrichment to an
    ordered multi-rail set (``rails[0]`` is always the high supply): one
    derated twin per (cell, rail), plus level-shifter variants for every
    destination rail a lower-rail signal can be converted up to.
    """

    def __init__(self, name: str, vdd_high: float,
                 wire_model: WireModel | None = None):
        self.name = name
        self.vdd_high = vdd_high
        self.vdd_low: float | None = None
        self._rails: tuple[float, ...] = (vdd_high,)
        self.wire_model = wire_model or WireModel()
        self.cells: dict[str, Cell] = {}
        self._variants: dict[tuple[str, float], list[Cell]] = {}
        self._by_function: dict[tuple[TruthTable, float], list[Cell]] = {}

    @property
    def rails(self) -> tuple[float, ...]:
        """Supply rails, descending; ``rails[0]`` is ``vdd_high``."""
        return self._rails

    @property
    def n_rails(self) -> int:
        return len(self._rails)

    def add(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell
        self._variants.setdefault((cell.base, cell.vdd), []).append(cell)
        self._variants[(cell.base, cell.vdd)].sort(key=lambda c: c.size)
        if not cell.is_level_converter:
            self._by_function.setdefault((cell.function, cell.vdd), []).append(cell)
        return cell

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def cell(self, name: str) -> Cell:
        return self.cells[name]

    def variants(self, base: str, vdd: float | None = None) -> list[Cell]:
        """All sizes of one base cell at one voltage, ascending by size."""
        key = (base, self.vdd_high if vdd is None else vdd)
        if key not in self._variants:
            raise KeyError(f"no cell base {base!r} at {key[1]}V")
        return list(self._variants[key])

    def matching(self, function: TruthTable,
                 vdd: float | None = None) -> list[Cell]:
        """Cells computing exactly ``function`` (same input order)."""
        key = (function, self.vdd_high if vdd is None else vdd)
        return list(self._by_function.get(key, ()))

    def twin(self, cell: Cell, vdd: float) -> Cell:
        """The same (base, size) cell characterized at another voltage."""
        for candidate in self.variants(cell.base, vdd):
            if candidate.size == cell.size:
                return candidate
        raise KeyError(f"no {cell.base}/d{cell.size} variant at {vdd}V")

    def next_size_up(self, cell: Cell) -> Cell | None:
        """The next-larger variant at the same voltage, or ``None``."""
        for candidate in self.variants(cell.base, cell.vdd):
            if candidate.size == cell.size + 1:
                return candidate
        return None

    def bases(self, vdd: float | None = None) -> list[str]:
        vdd = self.vdd_high if vdd is None else vdd
        return sorted({base for base, v in self._variants if v == vdd})

    def combinational_cells(self, vdd: float | None = None) -> list[Cell]:
        vdd = self.vdd_high if vdd is None else vdd
        return [
            c
            for c in self.cells.values()
            if c.vdd == vdd and not c.is_level_converter
        ]

    def level_converters(self, vdd: float | None = None) -> list[Cell]:
        vdd = self.vdd_high if vdd is None else vdd
        return [
            c
            for c in self.cells.values()
            if c.vdd == vdd and c.is_level_converter
        ]

    def level_converter(self, kind: str = "pg",
                        vdd: float | None = None) -> Cell:
        """The level restoration cell of ``kind`` whose output swings at
        ``vdd`` (default: the high rail, the classic dual-Vdd shifter).
        """
        vdd = self.vdd_high if vdd is None else vdd
        variants = self._variants.get((f"lc_{kind}", vdd))
        if not variants:
            raise KeyError(
                f"no level converter lc_{kind!s} at {vdd} V in library"
            )
        return variants[0]

    # ------------------------------------------------------------------
    # Multi-Vdd enrichment
    # ------------------------------------------------------------------

    def enrich_low_voltage(self, vdd_low: float, vth: float = 0.8,
                           alpha: float = 2.0) -> None:
        """Add a low-voltage twin of every cell (the paper's enrichment).

        Timing is derated with the alpha-power-law model of
        :mod:`repro.library.characterize`; switching/internal energy
        scales quadratically with voltage.  Level-converter cells are
        *not* twinned: with two rails they exist only at the high rail,
        where their output swings.
        """
        self.enrich_rails((vdd_low,), vth=vth, alpha=alpha)

    def enrich_rails(self, lower_rails, vth: float = 0.8,
                     alpha: float = 2.0) -> None:
        """Enrich the high-voltage library with an ordered rail set.

        ``lower_rails`` lists the additional supplies in strictly
        descending order; the resulting :attr:`rails` tuple is
        ``(vdd_high, *lower_rails)``.  Every combinational cell gains a
        derated twin per rail (the first keeps the classic ``*_lv``
        naming so the two-rail library is unchanged down to cell names),
        and level-converter cells gain a variant at every destination
        rail a deeper signal can be shifted up to (rails ``0..n-2``; the
        lowest rail never receives an up-shift).
        """
        from repro.library.characterize import converter_for_pair, derate_cell

        lower_rails = tuple(float(v) for v in lower_rails)
        if not lower_rails:
            raise ValueError("at least one lower rail is required")
        if self.vdd_low is not None:
            raise ValueError("library already enriched")
        previous = self.vdd_high
        for vdd in lower_rails:
            if vdd >= previous:
                raise ValueError(
                    f"rails must be strictly descending: {vdd} V does not "
                    f"sit below {previous} V"
                )
            previous = vdd
        self._rails = (self.vdd_high, *lower_rails)
        self.vdd_low = lower_rails[0]
        converters = [c for c in self.cells.values() if c.is_level_converter]
        for k, vdd in enumerate(lower_rails, start=1):
            suffix = None if k == 1 else f"_r{k}"
            for cell in list(self.cells.values()):
                if cell.is_level_converter or cell.vdd != self.vdd_high:
                    continue
                self.add(derate_cell(cell, vdd, vth=vth, alpha=alpha,
                                     suffix=suffix))
            # A shifter whose output swings at rail k exists only when a
            # deeper rail can feed it; rail n-1 is never a destination.
            if k < len(lower_rails):
                for lc in converters:
                    self.add(converter_for_pair(
                        lc, from_vdd=self._rails[k + 1], to_vdd=vdd,
                        vth=vth, alpha=alpha, suffix=f"_r{k}",
                    ))

    def __repr__(self) -> str:
        if len(self._rails) > 2:
            tail = ", rails=" + "/".join(f"{v:g}" for v in self._rails)
        elif self.vdd_low is not None:
            tail = f", vlow={self.vdd_low}"
        else:
            tail = ""
        return (
            f"Library({self.name!r}, {len(self.cells)} cells, "
            f"vhigh={self.vdd_high}{tail})"
        )


__all__ = ["Cell", "Library", "WireModel"]
