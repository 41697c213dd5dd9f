"""The eq. (1) power estimator, voltage- and converter-aware.

For every gate-driven net the estimator accumulates

    P_switch   = a01 * f * C_net * Vdd_driver^2
    P_internal = a01 * f * E_internal(variant)

with ``a01`` the rising-transition rate from a measured
:class:`~repro.power.activity.Activity`, ``f`` the clock frequency
(20 MHz in the paper), ``C_net`` the same net load the timing analysis
sees, and the driver's supply deciding the swing.  A low driver with
high-voltage readers carries one level converter on its net (the Usami
[8] per-net restoration scheme); the converter contributes its internal
energy plus its own high-swing output net, toggling at the driver's
rate.

Primary-input nets are excluded by default: their switching energy is
dissipated in the *upstream* block's drivers, so a block-level power
figure -- which is what the paper's per-circuit numbers are -- does not
include it.  Pass ``include_input_nets=True`` for chip-level accounting.

Units: fF * V^2 * MHz = 1e-3 uW, so totals are reported in uW directly.

Given the shared :class:`~repro.netlist.flat.FlatNetwork` snapshot,
the per-node switching, internal and converter terms are NumPy vectors
over its planes (converter terms only at the drivers that carry
shifters, from their cached
:meth:`~repro.timing.delay.DelayCalculator.converter_loads` profiles).
Each total is accumulated with ``np.cumsum`` in topological order --
sequential, like the per-node walk's ``+=``, never the pairwise
``np.sum`` -- so the totals carry the per-node walk's bits exactly.
A :class:`PowerPlane` keeps those term vectors between calls and
recomputes only the nodes its owner marks; its first breakdown is the
full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Collection, Mapping

import numpy as np

from repro.library.cells import Library
from repro.netlist.network import Network
from repro.power.activity import Activity
from repro.timing.delay import DEFAULT_PO_LOAD, DelayCalculator

_UW = 1e-3
"""fF * V^2 * MHz to uW."""

DEFAULT_CLOCK_MHZ = 20.0
"""The paper's random-simulation clock frequency."""


@dataclass(frozen=True)
class PowerBreakdown:
    """Total power and its components, all in uW."""

    switching: float
    internal: float
    converter: float
    total: float
    per_node: Mapping[str, float] = field(default_factory=dict, repr=False)

    def improvement_over(self, baseline: "PowerBreakdown") -> float:
        """Percent reduction relative to ``baseline`` (positive = better)."""
        if baseline.total <= 0:
            return 0.0
        return 100.0 * (baseline.total - self.total) / baseline.total


def estimate_power(network: Network, library: Library, activity: Activity,
                   levels: Mapping[str, bool] | None = None,
                   lc_edges: Collection[tuple[str, str]] | None = None,
                   lc_kind: str = "pg",
                   clock_mhz: float = DEFAULT_CLOCK_MHZ,
                   po_load: float = DEFAULT_PO_LOAD,
                   include_input_nets: bool = False) -> PowerBreakdown:
    """Estimate total power of a mapped network under a dual-Vdd state."""
    calculator = DelayCalculator(
        network, library, levels=levels or {}, lc_edges=lc_edges or set(),
        lc_kind=lc_kind, po_load=po_load,
    )
    return estimate_power_calc(calculator, activity, clock_mhz=clock_mhz,
                               include_input_nets=include_input_nets)


def estimate_power_calc(calculator: DelayCalculator, activity: Activity,
                        clock_mhz: float = DEFAULT_CLOCK_MHZ,
                        include_input_nets: bool = False,
                        flat=None, loads=None,
                        plane: PowerPlane | None = None) -> PowerBreakdown:
    """Estimate power from an existing calculator (live state).

    ``flat`` is an optional shared
    :class:`~repro.netlist.flat.FlatNetwork` snapshot of the
    calculator's network: the per-node switching/internal terms are
    then computed over its planes instead of walking ``network.nodes``
    through the calculator's method surface, bit-identically (same
    float associations, same sequential topological accumulation
    order).  ``loads`` optionally supplies the net loads aligned with
    ``flat.order`` (e.g. the incremental engine's levelized load
    array); otherwise the calculator is queried per net.  ``plane`` is
    a :class:`PowerPlane` the caller keeps across calls (it carries
    its own snapshot, and the other arguments' values); only its
    marked terms are recomputed.
    """
    if plane is not None:
        return plane.breakdown(loads)
    if flat is not None:
        return PowerPlane(
            calculator, activity, clock_mhz, include_input_nets, flat
        ).breakdown(loads)
    network = calculator.network
    library = calculator.library
    rails = library.rails
    vdd_high = library.vdd_high

    switching = 0.0
    internal = 0.0
    converter = 0.0
    per_node: dict[str, float] = {}

    for name in network.topological():
        node = network.nodes[name]
        if node.is_input and not include_input_nets:
            per_node[name] = 0.0
            continue
        a01 = activity.rate01(name)
        load = calculator.load(name)
        if node.is_input:
            vdd = vdd_high
            internal_energy = 0.0
        else:
            variant = calculator.variant(name)
            vdd = variant.vdd
            internal_energy = variant.internal_energy
        node_switch = a01 * clock_mhz * load * vdd * vdd * _UW
        node_internal = a01 * clock_mhz * internal_energy * _UW
        switching += node_switch
        internal += node_internal

        # One shifter per (net, destination rail); each swings its own
        # output net at the destination supply.  A dual-Vdd state has
        # at most one group, on rail 0.
        lc_power = 0.0
        for rail, lc_out_load in calculator.converter_loads(name).items():
            lc_cell = calculator.lc_cell_for(rail)
            lc_vdd = rails[rail]
            lc_power += a01 * clock_mhz * (
                lc_cell.internal_energy + lc_out_load * lc_vdd * lc_vdd
            ) * _UW
        converter += lc_power
        per_node[name] = node_switch + node_internal + lc_power

    total = switching + internal + converter
    return PowerBreakdown(
        switching=switching,
        internal=internal,
        converter=converter,
        total=total,
        per_node=per_node,
    )


def _sequential_sum(terms: np.ndarray) -> float:
    """``0.0 + t0 + t1 + ...`` left to right, as a Python ``+=`` loop."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class _PerNode(Mapping):
    """``per_node`` of a vector breakdown, a dict built on first read.

    Holds the per-position sums in topological order; the dict (same
    content and order as the serial walk's) is made once, when read.
    """

    __slots__ = ("_order", "_values", "_dict")

    def __init__(self, order, values: np.ndarray):
        self._order = order
        self._values = values
        self._dict: dict[str, float] | None = None

    def _built(self) -> dict[str, float]:
        if self._dict is None:
            self._dict = dict(zip(self._order, self._values.tolist()))
        return self._dict

    def __getitem__(self, name: str) -> float:
        return self._built()[name]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._order)


class PowerPlane:
    """The eq. (1) terms of every node over one flat snapshot.

    Keeps the switching, internal and converter terms as vectors by
    topological position.  The first :meth:`breakdown` is the full
    sweep; after it, :meth:`mark` names the nodes whose terms may have
    changed and the next :meth:`breakdown` recomputes only those.  A
    node's terms read its rail, its cell (the snapshot's ``energy``
    plane), its net load and its shifter profile, so the owner marks a
    node wherever it invalidates that node's variant or net in the
    calculator caches (:class:`repro.core.state.ScalingState` does).

    Per-node terms replicate the serial association exactly
    (``a01 * f * load * vdd * vdd * uW`` evaluated left to right, the
    converter term summed per destination rail in first-seen order),
    excluded input nets contribute zeros, and each total is a
    sequential ``np.cumsum`` in topological order -- so every
    breakdown is bit-identical to the per-node walk in
    :func:`estimate_power_calc`.

    :meth:`begin` opens a transaction: every term recomputed inside it
    is journaled once, and :meth:`rollback` restores the journaled
    terms and the dirty set of :meth:`begin`, leaving the plane as if
    the transaction never ran.  The owner reverts its own writes
    before the rollback, as with the timing engine's journal.
    """

    def __init__(self, calculator, activity, clock_mhz, include_input_nets,
                 flat):
        self.calculator = calculator
        self.activity = activity
        self.clock_mhz = clock_mhz
        self.include_input_nets = include_input_nets
        self.flat = flat
        self._terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._dirty: set[int] = set()
        self._journal: tuple[set[int], dict] | None = None
        self._excluded = (
            None if include_input_nets
            else np.asarray(flat.is_input, dtype=bool)
        )

    def mark(self, name: str) -> None:
        """Node ``name``'s variant or net changed: recompute its terms."""
        if self._terms is not None:
            self._dirty.add(self.flat.pos[name])

    def begin(self) -> None:
        """Open a transaction (see the class docstring).

        Before the first sweep there is nothing to journal: the marks
        of the owner's undo repair a plane first swept inside the
        transaction.
        """
        if self._terms is not None:
            self._journal = (set(self._dirty), {})

    def commit(self) -> None:
        """Keep every term recomputed since :meth:`begin`."""
        self._journal = None

    def rollback(self) -> None:
        """Restore the plane of :meth:`begin`."""
        journal = self._journal
        self._journal = None
        if journal is None:
            return
        dirty, saved = journal
        if saved:
            at = list(saved)
            for terms, values in zip(self._terms, zip(*saved.values())):
                terms[at] = values
        self._dirty = dirty

    def breakdown(self, loads=None) -> PowerBreakdown:
        """The current totals, recomputing the dirty terms first.

        ``loads`` are the net loads aligned with ``flat.order``;
        otherwise the calculator is queried per net.
        """
        flat = self.flat
        if self._terms is None:
            if loads is None or len(loads) != flat.n:
                calc = self.calculator
                loads = [calc.load(name) for name in flat.order]
            self._terms = self._sweep(flat.node_idx, loads, None)
        elif self._dirty:
            idx = np.fromiter(sorted(self._dirty), np.intp, len(self._dirty))
            self._dirty.clear()
            if loads is None or len(loads) != flat.n:
                calc = self.calculator
                order = flat.order
                loads = {i: calc.load(order[i]) for i in idx.tolist()}
            journal = self._journal
            if journal is not None:
                saved = journal[1]
                old = [terms[idx].tolist() for terms in self._terms]
                for i, *values in zip(idx.tolist(), *old):
                    saved.setdefault(i, values)
            new = self._sweep(idx, loads, self._levels_at(idx))
            for terms, values in zip(self._terms, new):
                terms[idx] = values
        sw_terms, in_terms, lc_terms = self._terms
        switching = _sequential_sum(sw_terms)
        internal = _sequential_sum(in_terms)
        converter = _sequential_sum(lc_terms)
        total = switching + internal + converter
        return PowerBreakdown(
            switching=switching,
            internal=internal,
            converter=converter,
            total=total,
            per_node=_PerNode(flat.order, sw_terms + in_terms + lc_terms),
        )

    def _levels_at(self, idx: np.ndarray) -> np.ndarray:
        """The current rails of the nodes at positions ``idx``."""
        level = self.calculator.levels.get
        order = self.flat.order
        return np.asarray(
            [int(level(order[i], 0) or 0) for i in idx.tolist()],
            dtype=np.intp,
        )

    def _sweep(self, idx, loads, rails):
        """The three term vectors of the nodes at positions ``idx``.

        ``loads`` maps a position to its net load; ``rails`` holds the
        nodes' rails (``None``: the whole snapshot, ``idx`` being every
        position).
        """
        flat = self.flat
        calculator = self.calculator
        clock_mhz = self.clock_mhz
        rate_vec = flat.rates(self.activity)[idx]
        if rails is None:
            rails = flat.rail_plane(calculator.levels)
            node_loads = np.asarray(loads)
            # Only drivers that carry a converter edge can have a
            # non-zero converter term.
            pos = flat.pos
            drivers = {pos[driver] for driver, _ in calculator.lc_edges}
            lc_at = [(i, i) for i in drivers]
        else:
            node_loads = np.asarray([loads[i] for i in idx.tolist()])
            lc_at = enumerate(idx.tolist())
        vdd = flat.rails_v[rails]
        energy = flat.energy[rails, idx]
        sw_terms = rate_vec * clock_mhz * node_loads * vdd * vdd * _UW
        in_terms = rate_vec * clock_mhz * energy * _UW

        # One shifter per (net, destination rail), each swinging its own
        # output net at the destination supply.
        lc_terms = np.zeros(len(idx))
        rails_lib = calculator.library.rails
        order = flat.order
        for k, i in lc_at:
            a01 = float(rate_vec[k])
            lc_power = 0.0
            profile = calculator.converter_loads(order[i])
            for rail, lc_out_load in profile.items():
                lc_cell = calculator.lc_cell_for(rail)
                lc_vdd = rails_lib[rail]
                lc_power += a01 * clock_mhz * (
                    lc_cell.internal_energy + lc_out_load * lc_vdd * lc_vdd
                ) * _UW
            lc_terms[k] = lc_power

        if self._excluded is not None:
            excluded = self._excluded[idx]
            sw_terms[excluded] = 0.0
            in_terms[excluded] = 0.0
            lc_terms[excluded] = 0.0
        return sw_terms, in_terms, lc_terms


def demotion_gain(calculator: DelayCalculator, activity: Activity, name: str,
                  clock_mhz: float = DEFAULT_CLOCK_MHZ,
                  lc_at_outputs: bool = False,
                  target: int | None = None) -> float:
    """Power saved (uW) by dropping gate ``name`` to rail ``target`` now.

    Mirrors :func:`estimate_power_calc` term by term: the gate's own net
    re-swings at the destination rail with one shifter pin per new
    destination-rail group replacing the shallower readers' pins, the
    internal energy drops to the destination twin's, and each new
    (per-net, per-destination-rail) shifter adds its internal energy
    plus an output net at its own swing carrying the former direct
    pins.  Positive means the demotion saves power.  ``target=None``
    prices the classic one-rail step; a deeper ``target`` prices a
    non-adjacent demotion.  With two rails this is exactly the classic
    Vhigh -> Vlow gain.
    """
    network = calculator.network
    library = calculator.library
    rails = library.rails
    node = network.nodes[name]
    if node.is_input:
        raise ValueError("primary inputs cannot be demoted")
    source = calculator.rail_of(name)
    if target is None:
        target = source + 1
    if target >= len(rails):
        raise ValueError(f"{name!r} is already at the lowest rail")

    a01 = activity.rate01(name)
    vdd_before = rails[source]
    vdd_after = rails[target]

    cell_before = calculator.variant(name)
    cell_after = calculator.rail_variant_of(calculator.cell(name), target)
    change = calculator.demotion_net_change(name, lc_at_outputs, target)

    load_before = calculator.load(name)
    gain = a01 * clock_mhz * (
        load_before * vdd_before * vdd_before
        - change.load_after * vdd_after * vdd_after
    ) * _UW
    gain += a01 * clock_mhz * (
        cell_before.internal_energy - cell_after.internal_energy
    ) * _UW
    for rail, lc_out_load in change.converter_loads.items():
        lc_cell = calculator.lc_cell_for(rail)
        lc_vdd = rails[rail]
        gain -= a01 * clock_mhz * (
            lc_cell.internal_energy
            + lc_out_load * lc_vdd * lc_vdd
        ) * _UW
    return gain


__all__ = [
    "DEFAULT_CLOCK_MHZ",
    "PowerBreakdown",
    "estimate_power",
    "estimate_power_calc",
    "demotion_gain",
    "PowerPlane",
]
