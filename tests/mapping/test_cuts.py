"""Integer cut algebra against the object-building reference."""

from itertools import product

import pytest

from repro.bench.mcnc import load_circuit
from repro.mapping.mapper import DEFAULT_CUTS_PER_NODE, enumerate_cuts
from repro.mapping.subject import to_subject_graph
from repro.netlist.functions import TruthTable
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


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_enumerate_cuts_matches_reference(circuit, match_table):
    network = load_circuit(circuit)
    rugged(network)
    subject = to_subject_graph(network)
    max_leaves = match_table.max_arity
    got = enumerate_cuts(subject, max_leaves)
    expected = _reference_cuts(subject, max_leaves, DEFAULT_CUTS_PER_NODE)
    assert list(got) == list(expected)
    for name, cuts in got.items():
        assert [(cut.leaves, cut.table) for cut in cuts] == expected[name]
