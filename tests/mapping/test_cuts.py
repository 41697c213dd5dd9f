"""Integer cut algebra against the object-building reference."""

import random
from itertools import product

import pytest

from repro.bench.mcnc import load_circuit
from repro.mapping.mapper import DEFAULT_CUTS_PER_NODE, enumerate_cuts
from repro.mapping.subject import to_subject_graph
from repro.netlist.functions import TruthTable, random_table
from repro.netlist.network import Network
from repro.opt.script import rugged

CIRCUITS = ["C432", "gen:layered:width=8:depth=8:seed=3"]


def _object_compose(table, substitutions):
    """Composition built from one TruthTable per literal."""
    m = substitutions[0].n_inputs
    result = TruthTable.const(m, False)
    for row in range(1 << table.n_inputs):
        if not table.bits >> row & 1:
            continue
        term = TruthTable.const(m, True)
        for k in range(table.n_inputs):
            sub = substitutions[k]
            term = term & (sub if row >> k & 1 else ~sub)
            if term.bits == 0:
                break
        result = result | term
    return result


def _rebase(table, old_leaves, new_leaves):
    position = {leaf: k for k, leaf in enumerate(new_leaves)}
    m = len(new_leaves)
    return _object_compose(
        table, [TruthTable.var(m, position[leaf]) for leaf in old_leaves]
    )


def _reference_cuts(subject, max_leaves, per_node):
    """Priority cuts as ``{node: [(leaves, table), ...]}``, the slow way."""
    cuts = {}
    depth = {}
    projection = TruthTable.var(1, 0)
    for name in subject.topological():
        node = subject.nodes[name]
        if node.is_input:
            depth[name] = 0
            cuts[name] = [((name,), projection)]
            continue
        depth[name] = 1 + max(depth[f] for f in node.fanins)
        candidates = {}
        for combo in product(*(cuts[f] for f in node.fanins)):
            leaf_set = set()
            for leaves, _ in combo:
                leaf_set.update(leaves)
            if len(leaf_set) > max_leaves:
                continue
            merged = tuple(sorted(leaf_set))
            if merged in candidates:
                continue
            substitutions = [
                _rebase(table, leaves, merged) for leaves, table in combo
            ]
            candidates[merged] = (
                merged,
                _object_compose(node.function, substitutions),
            )
        ranked = sorted(
            candidates.values(),
            key=lambda cut: (
                len(cut[0]),
                sum(depth[leaf] for leaf in cut[0]),
                cut[0],
            ),
        )
        cuts[name] = ranked[:per_node] + [((name,), projection)]
    return cuts


def _assert_matches_reference(subject, max_leaves, per_node):
    got = enumerate_cuts(subject, max_leaves, per_node)
    expected = _reference_cuts(subject, max_leaves, per_node)
    assert list(got) == list(expected)
    for name, cuts in got.items():
        assert [(cut.leaves, cut.table) for cut in cuts] == expected[name]


# ``None`` budgets are the flow's own: the library's widest cell and
# the default priority-cut budget.
CASES = [pytest.param(circuit, None, None, id=circuit) for circuit in CIRCUITS]
CASES += [
    pytest.param(circuit, leaves, per, id=f"{circuit}-leaves{leaves}-per{per}")
    for circuit in CIRCUITS
    for leaves in (3, 4)
    for per in (1, 3, 8)
]


@pytest.mark.parametrize("circuit,max_leaves,per_node", CASES)
def test_enumerate_cuts_matches_reference(
    circuit, max_leaves, per_node, match_table
):
    network = load_circuit(circuit)
    rugged(network)
    _assert_matches_reference(
        to_subject_graph(network),
        max_leaves or match_table.max_arity,
        per_node or DEFAULT_CUTS_PER_NODE,
    )


def _reconvergent_subject():
    """Reconvergence, a doubled fanin and a 3-input node.

    ``dup`` reads ``s`` on both pins, so one cut list feeds both sides
    of the product and most combinations repeat a leaf set.  ``t`` fans
    out to ``r`` and to the 3-input ``w``, and ``z``'s cone reconverges
    on ``a`` through ``s``, ``t`` and its own fanin.
    """
    net = Network("reconvergent")
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    net.add_node("s", ["a", "b"], TruthTable.and_(2))
    net.add_node("t", ["a", "c"], TruthTable.xor(2))
    net.add_node("dup", ["s", "s"], TruthTable.or_(2))
    net.add_node("r", ["t", "d"], TruthTable.nand(2))
    net.add_node("n", ["dup"], TruthTable.inverter())
    net.add_node("w", ["n", "t", "r"], TruthTable.majority())
    net.add_node("z", ["w", "a"], TruthTable.xor(2))
    net.set_output("z")
    net.set_output("t")
    return net


@pytest.mark.parametrize("per_node", [1, 3, 8])
@pytest.mark.parametrize("max_leaves", [3, 4])
def test_reconvergent_subject_matches_reference(per_node, max_leaves):
    _assert_matches_reference(_reconvergent_subject(), max_leaves, per_node)


def _random_dag(seed, n_inputs=5, n_gates=40):
    """Mixed-arity DAG with doubled fanins and unread gates."""
    rng = random.Random(seed)
    net = Network(f"dag{seed}")
    names = [f"i{k}" for k in range(n_inputs)]
    for name in names:
        net.add_input(name)
    for k in range(n_gates):
        arity = rng.choice([1, 2, 2, 2, 3])
        window = names[-8:]
        fanins = [rng.choice(window) for _ in range(arity)]
        name = f"g{k}"
        net.add_node(name, fanins, random_table(arity, rng))
        names.append(name)
    net.set_output(names[-1])
    return net


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_node", [1, 3, 8])
def test_random_dags_match_reference(seed, per_node):
    _assert_matches_reference(_random_dag(seed), 4, per_node)
