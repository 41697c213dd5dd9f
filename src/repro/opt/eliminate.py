"""Eliminate: collapse low-value nodes into their fanouts.

A node whose logic is cheap to replicate (single fanout, or a tiny
function) adds structure without earning its keep; collapsing it exposes
larger functions that the two-level minimizer and the mapper's cut
enumeration can exploit -- the same role ``eliminate`` plays in
``script.rugged``.
"""

from __future__ import annotations

from repro.netlist.functions import TruthTable
from repro.netlist.network import Network

_MAX_COLLAPSED_INPUTS = 10
"""Never grow a reader beyond this arity (keeps QM exact and tables small)."""


def _collapse_into_reader(network: Network, name: str, reader: str) -> bool:
    """Substitute node ``name``'s function into one reader; True on success."""
    node = network.nodes[name]
    reader_node = network.nodes[reader]
    new_fanins: list[str] = []
    for fanin in reader_node.fanins:
        if fanin == name:
            for sub in node.fanins:
                if sub not in new_fanins:
                    new_fanins.append(sub)
        elif fanin not in new_fanins:
            new_fanins.append(fanin)
    if len(new_fanins) > _MAX_COLLAPSED_INPUTS:
        return False

    position = {fanin: k for k, fanin in enumerate(new_fanins)}
    m = len(new_fanins)
    substitutions = []
    for fanin in reader_node.fanins:
        if fanin == name:
            node_subs = [
                TruthTable.var(m, position[sub]) for sub in node.fanins
            ]
            substitutions.append(node.function.compose(node_subs))
        else:
            substitutions.append(TruthTable.var(m, position[fanin]))
    network.rewire(reader, new_fanins,
                   reader_node.function.compose(substitutions))
    return True


def eliminate(network: Network, max_fanouts: int = 2,
              max_node_inputs: int = 4) -> int:
    """Collapse small nodes into their readers; returns nodes removed.

    A node is a candidate when it is not a primary output, has at most
    ``max_fanouts`` readers, and at most ``max_node_inputs`` inputs.  The
    collapse is skipped for readers that would grow too wide.
    """
    removed = 0
    progress = True
    while progress:
        progress = False
        for name in list(network.nodes):
            if name not in network.nodes:
                continue
            node = network.nodes[name]
            if node.is_input or name in network.outputs:
                continue
            readers = network.fanouts(name)
            if not readers or len(readers) > max_fanouts:
                continue
            if node.function.n_inputs > max_node_inputs:
                continue
            for reader in list(readers):
                _collapse_into_reader(network, name, reader)
            if not network.fanouts(name):
                network.remove_node(name)
                removed += 1
                progress = True
    return removed


__all__ = ["eliminate"]
