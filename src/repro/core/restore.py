"""Level-restoration materialization and assignment export.

The scaling algorithms keep converters *virtual* (a set of edges) so
that what-if checks never mutate the netlist.  This module turns a
finished :class:`~repro.core.state.ScalingState` into a concrete
network with shifter cells spliced in -- the form a downstream
place-and-route flow would consume -- and checks that the materialized
network is functionally identical and meets the same timing the virtual
model promised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import ScalingState
from repro.netlist.network import Network
from repro.timing.delay import OUTPUT, DelayCalculator
from repro.timing.sta import TimingAnalysis


@dataclass(frozen=True)
class MaterializedDesign:
    """A physical multi-Vdd netlist plus its per-gate rail map."""

    network: Network
    levels: dict[str, int]
    converters: list[str]


def materialize_converters(state: ScalingState) -> MaterializedDesign:
    """Splice one shifter cell per (converted driver net, destination rail).

    The virtual model amortizes a single converter across every
    converted reader of a net that targets one destination rail (the
    Usami [8] per-net restoration scheme whose per-rail output loads
    :meth:`DelayCalculator.converter_loads` profiles), so
    the physical netlist gets exactly one shifter node per (driver,
    destination rail) -- characterized at the destination supply --
    feeding all of that group's recorded readers and, for a converted
    primary output, taking over the output slot.  A dual-Vdd state has
    one rail-0 group per driver, reproducing the classic layout.  The
    copy binds every resized gate's current cell (:attr:`ScalingState.cells`);
    the state's own network is left as it was.
    """
    network = state.network.copy(f"{state.network.name}_dualvdd")
    for name, cell in state.cells.items():
        network.nodes[name].cell = cell
    calc = state.calc
    levels = dict(state.levels)
    converters: list[str] = []

    by_group: dict[tuple[str, int], list[str]] = {}
    for driver, reader in sorted(state.lc_edges):
        rail = calc.converter_rail(driver, reader)
        by_group.setdefault((driver, rail), []).append(reader)
    for driver, rail in sorted(by_group):
        lc_cell = calc.lc_cell_for(rail)
        name = network.fresh_name(f"lc_{driver}_")
        network.add_node(name, [driver], lc_cell.function, lc_cell)
        for reader in by_group[(driver, rail)]:
            if reader == OUTPUT:
                network.outputs = [
                    name if out == driver else out
                    for out in network.outputs
                ]
            else:
                network.replace_fanin(reader, driver, name)
        # The shifter's own supply is its destination rail; its bound
        # cell is already that rail's characterization, so the rail
        # entry keeps variant() the identity for it.
        levels[name] = rail
        converters.append(name)
    return MaterializedDesign(
        network=network, levels=levels, converters=converters
    )


def materialized_timing(
    state: ScalingState, design: MaterializedDesign
) -> TimingAnalysis:
    """Timing of the physical network (no virtual converter edges)."""
    calculator = DelayCalculator(
        design.network,
        state.library,
        levels=design.levels,
        lc_edges=set(),
        lc_kind=state.options.lc_kind,
        po_load=state.options.po_load,
    )
    return TimingAnalysis(calculator, state.tspec)


__all__ = [
    "MaterializedDesign",
    "materialize_converters",
    "materialized_timing",
]
