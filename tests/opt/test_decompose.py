"""Decomposition tests (SOP trees and parity awareness)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.functions import TruthTable, all_functions, random_table
from repro.netlist.network import Network
from repro.netlist.validate import networks_equivalent
from repro.opt.decompose import _parity_structure, decompose_network


def wide_node_network(table: TruthTable) -> Network:
    net = Network()
    fanins = [f"i{k}" for k in range(table.n_inputs)]
    for name in fanins:
        net.add_input(name)
    net.add_node("f", fanins, table)
    net.set_output("f")
    return net


def test_wide_and_becomes_two_input_tree():
    net = wide_node_network(TruthTable.and_(5))
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    widths = [n.function.n_inputs for n in net.nodes.values()
              if not n.is_input]
    assert max(widths) <= 2


def test_narrow_nodes_untouched(control_network):
    before = set(control_network.nodes)
    decompose_network(control_network, max_inputs=4)
    assert set(control_network.nodes) == before


def test_rejects_trivial_bound(control_network):
    with pytest.raises(ValueError):
        decompose_network(control_network, max_inputs=1)


def test_parity_detection_xor():
    support, inverted = _parity_structure(TruthTable.xor(4))
    assert support == (0, 1, 2, 3)
    assert not inverted


def test_parity_detection_xnor():
    support, inverted = _parity_structure(TruthTable.xnor(3))
    assert inverted


def test_parity_detection_with_dead_variable():
    table = TruthTable.from_function(3, lambda a, b, c: a ^ c)
    support, inverted = _parity_structure(table)
    assert support == (0, 2)


def test_parity_detection_rejects_non_parity():
    assert _parity_structure(TruthTable.majority()) is None
    assert _parity_structure(TruthTable.and_(3)) is None


def _row_loop_parity(table):
    """The per-row popcount parity detector, kept as the oracle."""
    support = table.support()
    if len(support) < 2:
        return None
    parity_bits = 0
    for row in range(1 << table.n_inputs):
        if sum(row >> k & 1 for k in support) & 1:
            parity_bits |= 1 << row
    if table.bits == parity_bits:
        return support, False
    if table.bits == parity_bits ^ ((1 << (1 << table.n_inputs)) - 1):
        return support, True
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_detection_matches_row_loop_on_every_function(n):
    found = 0
    for table in all_functions(n):
        expected = _row_loop_parity(table)
        assert _parity_structure(table) == expected
        found += expected is not None
    # Every XOR/XNOR over a support of at least two variables.
    assert found == 2 * sum(math.comb(n, k) for k in range(2, n + 1))


def test_wide_xor_becomes_xor_tree():
    """Parity must decompose to ~n xor2 gates, not 2^(n-1) cubes."""
    net = wide_node_network(TruthTable.xor(6))
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    gates = [n for n in net.nodes.values() if not n.is_input]
    assert len(gates) <= 8  # 5 xor2 + output wrapper, not ~80 SOP nodes
    xor2 = TruthTable.xor(2)
    assert sum(1 for n in gates if n.function == xor2) == 5


def test_wide_xnor_gets_final_inverter():
    net = wide_node_network(TruthTable.xnor(4))
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)


def test_shared_inverters():
    # Two nodes using complemented a must share one inverter.
    net = Network()
    for name in ("a", "b", "c", "d", "e"):
        net.add_input(name)
    table = TruthTable.from_function(3, lambda a, b, c: (not a) and b and c)
    net.add_node("f", ["a", "b", "c"], table)
    net.add_node("g", ["a", "d", "e"], table)
    net.set_output("f")
    net.set_output("g")
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    inverters = [
        n for n in net.nodes.values()
        if not n.is_input and n.function == TruthTable.inverter()
        and n.fanins == ["a"]
    ]
    assert len(inverters) == 1


@given(st.integers(min_value=3, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_random_functions_survive_decomposition(n, seed):
    rng = random.Random(seed)
    table = random_table(n, rng)
    if table.is_const():
        return
    net = wide_node_network(table)
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    assert all(
        node.function.n_inputs <= 2
        for node in net.nodes.values()
        if not node.is_input
    )


# -- edge cases of decompose_node / decompose_network ------------------

def test_constant_node_collapses_to_const():
    """A wide node whose function is constant loses its fanins."""
    net = Network()
    for name in ("a", "b", "c"):
        net.add_input(name)
    # f = (a & ~a) | (b & ~b) | ... degenerates to constant 0.
    net.add_node("f", ["a", "b", "c"], TruthTable.const(3, False))
    net.set_output("f")
    decompose_network(net, max_inputs=2)
    node = net.nodes["f"]
    assert node.function.const_value() == 0
    assert node.fanins == []


def test_constant_true_node_collapses_to_const():
    net = Network()
    for name in ("a", "b", "c"):
        net.add_input(name)
    net.add_node("f", ["a", "b", "c"], TruthTable.const(3, True))
    net.set_output("f")
    decompose_network(net, max_inputs=2)
    assert net.nodes["f"].function.const_value() == 1


def test_cube_literal_polarities_mix():
    """A cube mixing plain and complemented literals inverts only the
    complemented ones."""
    table = TruthTable.from_function(
        3, lambda a, b, c: a and (not b) and c)
    net = wide_node_network(table)
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    inverters = [
        n for n in net.nodes.values()
        if not n.is_input and n.function == TruthTable.inverter()
    ]
    assert len(inverters) == 1
    assert inverters[0].fanins == ["i1"]  # only b is complemented


def test_and_or_trees_are_shared_across_cubes():
    """Identical subtrees (same sorted signal set) build only once."""
    # f = abc + abd: the ab pair should be one shared AND2.
    table = TruthTable.from_function(
        4, lambda a, b, c, d: (a and b and c) or (a and b and d))
    net = wide_node_network(table)
    reference = net.copy()
    decompose_network(net, max_inputs=2)
    assert networks_equivalent(reference, net)
    and2 = TruthTable.and_(2)
    and_gates = [n for n in net.nodes.values()
                 if not n.is_input and n.function == and2]
    # abc + abd needs at most 4 AND2s with sharing ((ab), (ab)c, (ab)d
    # -- not 2 independent 3-literal chains).
    assert len(and_gates) <= 4


def test_repeated_decomposition_is_stable():
    net = wide_node_network(TruthTable.majority())
    decompose_network(net, max_inputs=2)
    after_first = set(net.nodes)
    assert decompose_network(net, max_inputs=2) == 0
    assert set(net.nodes) == after_first
