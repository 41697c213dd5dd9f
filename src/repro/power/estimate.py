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
                        flat=None, loads=None) -> PowerBreakdown:
    """Estimate power from an existing calculator (live state).

    ``flat`` is an optional shared
    :class:`~repro.netlist.flat.FlatNetwork` snapshot of the
    calculator's network: the per-node switching/internal terms are
    then computed over its planes instead of walking ``network.nodes``
    through the calculator's method surface, bit-identically (same
    float associations, same sequential topological accumulation
    order).  ``loads`` optionally supplies the net loads aligned with
    ``flat.order`` (e.g. the incremental engine's levelized load
    array); otherwise the calculator is queried per net.
    """
    if flat is not None:
        return _estimate_power_flat(
            calculator, activity, clock_mhz, include_input_nets, flat, loads
        )
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


def _estimate_power_flat(calculator, activity, clock_mhz,
                         include_input_nets, flat, loads) -> PowerBreakdown:
    """The eq. (1) sweep over the shared flat snapshot.

    Per-node terms replicate the serial association exactly
    (``a01 * f * load * vdd * vdd * uW`` evaluated left to right, the
    converter term summed per destination rail in first-seen order),
    excluded input nets contribute zeros, and each total is a
    sequential ``np.cumsum`` in topological order -- so the result is
    bit-identical to the per-node walk in :func:`estimate_power_calc`.
    """
    order = flat.order
    rate_vec = flat.rates(activity)
    if loads is None or len(loads) != flat.n:
        loads = [calculator.load(name) for name in order]

    rails = flat.rail_plane(calculator.levels)
    vdd = flat.rails_v[rails]
    energy = flat.energy[rails, flat.node_idx]
    sw_terms = rate_vec * clock_mhz * np.asarray(loads) * vdd * vdd * _UW
    in_terms = rate_vec * clock_mhz * energy * _UW

    # One shifter per (net, destination rail), each swinging its own
    # output net at the destination supply; only drivers that carry a
    # converter edge can have a non-zero term.
    lc_terms = np.zeros(flat.n)
    rails_lib = calculator.library.rails
    pos = flat.pos
    for driver in {driver for driver, _ in calculator.lc_edges}:
        i = pos[driver]
        a01 = float(rate_vec[i])
        lc_power = 0.0
        for rail, lc_out_load in calculator.converter_loads(driver).items():
            lc_cell = calculator.lc_cell_for(rail)
            lc_vdd = rails_lib[rail]
            lc_power += a01 * clock_mhz * (
                lc_cell.internal_energy + lc_out_load * lc_vdd * lc_vdd
            ) * _UW
        lc_terms[i] = lc_power

    if not include_input_nets:
        excluded = np.asarray(flat.is_input, dtype=bool)
        sw_terms[excluded] = 0.0
        in_terms[excluded] = 0.0
        lc_terms[excluded] = 0.0
    per_node = sw_terms + in_terms + lc_terms

    switching = _sequential_sum(sw_terms)
    internal = _sequential_sum(in_terms)
    converter = _sequential_sum(lc_terms)
    total = switching + internal + converter
    return PowerBreakdown(
        switching=switching,
        internal=internal,
        converter=converter,
        total=total,
        per_node=dict(zip(order, per_node.tolist())),
    )


def _sequential_sum(terms: np.ndarray) -> float:
    """``0.0 + t0 + t1 + ...`` left to right, as a Python ``+=`` loop."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


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
    cell_after = calculator.rail_variant_of(node.cell, target)
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
]
