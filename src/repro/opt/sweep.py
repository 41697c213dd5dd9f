"""Sweep: constant propagation, wire collapsing, dangling removal.

The cheapest and safest cleanup pass; run before and after every heavier
transformation, exactly as ``sweep`` is sprinkled through
``script.rugged``.
"""

from __future__ import annotations

from repro.netlist.functions import TruthTable
from repro.netlist.network import Network

_BUFFER = TruthTable.identity()


def _propagate_constant(network: Network, name: str, value: int) -> None:
    """Fold a constant node into every reader."""
    for reader in list(network.fanouts(name)):
        node = network.nodes[reader]
        table = node.function
        fanins = list(node.fanins)
        for index in sorted(range(len(fanins)), reverse=True):
            if fanins[index] == name:
                table = table.cofactor(index, value).remove_variable(index)
                fanins.pop(index)
        network.rewire(reader, fanins, table)


def _dedupe_fanins(network: Network, name: str) -> bool:
    """Merge repeated fanin variables of one node into a single one."""
    node = network.nodes[name]
    if node.is_input or len(set(node.fanins)) == len(node.fanins):
        return False
    seen: dict[str, int] = {}
    table = node.function
    fanins = list(node.fanins)
    index = 0
    while index < len(fanins):
        fanin = fanins[index]
        if fanin in seen:
            first = seen[fanin]
            # Force variable `index` equal to variable `first`:
            # f = x_first ? f|x_index=1 : f|x_index=0 evaluated at x_first.
            high = table.cofactor(index, 1)
            low = table.cofactor(index, 0)
            var_first = TruthTable.var(table.n_inputs, first)
            table = (var_first & high) | (~var_first & low)
            table = table.cofactor(index, 0).remove_variable(index)
            fanins.pop(index)
        else:
            seen[fanin] = index
            index += 1
    network.rewire(name, fanins, table)
    return True


def sweep(network: Network) -> int:
    """Iterate cleanups to a fixpoint; returns number of edits applied."""
    edits = 0
    changed = True
    while changed:
        changed = False
        for name in list(network.nodes):
            if name not in network.nodes:
                continue
            node = network.nodes[name]
            if node.is_input:
                continue
            if _dedupe_fanins(network, name):
                edits += 1
                changed = True
                node = network.nodes[name]
            const = node.function.const_value()
            if const is not None and node.fanins:
                # Shrink to an explicit constant node first.
                network.rewire(name, [], TruthTable.const(0, bool(const)))
                edits += 1
                changed = True
            if node.function.n_inputs == 0:
                value = node.function.const_value()
                if network.fanouts(name):
                    _propagate_constant(network, name, value)
                    edits += 1
                    changed = True
            elif node.function == _BUFFER and name not in network.outputs:
                # Keep buffers that *are* primary outputs: their names are
                # part of the block interface.
                network.substitute(name, node.fanins[0])
                edits += 1
                changed = True

        # Remove dangling nodes (no readers, not an output).
        removed = True
        while removed:
            removed = False
            for name in list(network.nodes):
                node = network.nodes[name]
                if node.is_input or name in network.outputs:
                    continue
                if not network.fanouts(name):
                    network.remove_node(name)
                    edits += 1
                    changed = True
                    removed = True
    return edits


__all__ = ["sweep"]
