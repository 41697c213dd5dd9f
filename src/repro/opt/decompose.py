"""Decompose wide nodes into 2-input AND/OR/INV trees.

Serves two masters: as the ``decomp`` step of the optimization script
(bounding node arity so exact minimization stays cheap) and as the
subject-graph builder for technology mapping, which wants a fine-grained
network whose cuts it can enumerate.

Each node's minimized sum-of-products becomes: shared inverters for
complemented literals, a balanced AND2 tree per cube, and a balanced OR2
tree across cubes.  The original node becomes an identity wrapper over
the tree root so that its name (and its readers) survive; a follow-up
:func:`repro.opt.sweep.sweep` collapses the non-output wrappers.
Functionality is preserved exactly.
"""

from __future__ import annotations

from repro.netlist.functions import TruthTable, _var_pattern
from repro.netlist.network import Network
from repro.opt.simplify import minimize_cubes
from repro.opt.sweep import sweep

_AND2 = TruthTable.and_(2)
_OR2 = TruthTable.or_(2)
_INV = TruthTable.inverter()

_Parity = tuple[tuple[int, ...], bool]
"""A parity function's ``(support, inverted)``."""


class _Builder:
    """Creates shared 2-input structure inside one network."""

    def __init__(self, network: Network, prefix: str):
        self.network = network
        self.prefix = prefix
        self._cache: dict[tuple, str] = {}

    def inverter(self, signal: str) -> str:
        key = ("inv", signal)
        if key not in self._cache:
            name = self.network.fresh_name(f"{self.prefix}inv_")
            self.network.add_node(name, [signal], _INV)
            self._cache[key] = name
        return self._cache[key]

    def _tree(self, kind: str, table: TruthTable, signals: list[str]) -> str:
        if len(signals) == 1:
            return signals[0]
        key = (kind, tuple(sorted(signals)))
        if key in self._cache:
            return self._cache[key]
        middle = len(signals) // 2
        left = self._tree(kind, table, signals[:middle])
        right = self._tree(kind, table, signals[middle:])
        name = self.network.fresh_name(f"{self.prefix}{kind}_")
        self.network.add_node(name, [left, right], table)
        self._cache[key] = name
        return name

    def and_tree(self, signals: list[str]) -> str:
        return self._tree("and", _AND2, signals)

    def or_tree(self, signals: list[str]) -> str:
        return self._tree("or", _OR2, signals)


def _parity_structure(table: TruthTable) -> _Parity | None:
    """Detect (support, inverted) when the function is a pure parity.

    XOR chains collapse into wide XOR/XNOR nodes during elimination; a
    sum-of-products rebuild would shred them into 2**(n-1) cubes that no
    XOR cell pattern can be recovered from, so parity gets its own
    balanced-tree decomposition.
    """
    support = table.support()
    if len(support) < 2:
        return None
    n = table.n_inputs
    parity_bits = 0
    for k in support:
        parity_bits ^= _var_pattern(n, k)
    if table.bits == parity_bits:
        return support, False
    if table.bits == parity_bits ^ ((1 << (1 << n)) - 1):
        return support, True
    return None


def decompose_node(network: Network, name: str, builder: _Builder) -> None:
    """Rewrite one node as a 2-input tree, keeping its name and readers."""
    node = network.nodes[name]
    const = node.function.const_value()
    if const is not None:
        network.rewire(name, [], TruthTable.const(0, bool(const)))
        return

    parity = _parity_structure(node.function)
    if parity is not None:
        support, inverted = parity
        signals = [node.fanins[k] for k in support]
        root = builder._tree("xor", TruthTable.xor(2), signals)
        if inverted:
            root = builder.inverter(root)
        network.rewire(name, [root], TruthTable.identity())
        return

    cubes = minimize_cubes(node.function)
    fanins = list(node.fanins)
    cube_signals: list[str] = []
    for cube in cubes:
        literals: list[str] = []
        for k, ch in enumerate(cube):
            if ch == "1":
                literals.append(fanins[k])
            elif ch == "0":
                literals.append(builder.inverter(fanins[k]))
        cube_signals.append(builder.and_tree(literals))
    root = builder.or_tree(cube_signals)

    network.rewire(name, [root], TruthTable.identity())


def decompose_network(
    network: Network, max_inputs: int = 2, prefix: str = "d_"
) -> int:
    """Decompose every node wider than ``max_inputs``; returns edit count.

    With the default ``max_inputs=2`` the result is a 2-bounded subject
    graph suitable for cut-based mapping.  Identity wrappers left behind
    are swept away (primary-output wrappers are kept by name).
    """
    if max_inputs < 2:
        raise ValueError("max_inputs must be at least 2")
    builder = _Builder(network, prefix)
    edits = 0
    for name in list(network.gates()):
        node = network.nodes[name]
        if node.function.n_inputs <= max_inputs:
            continue
        decompose_node(network, name, builder)
        edits += 1
    if edits:
        sweep(network)
    return edits


__all__ = ["decompose_network", "decompose_node"]
