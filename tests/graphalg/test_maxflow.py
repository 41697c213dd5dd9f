"""Dinic max-flow kernel tests.

Small hand-checked networks go through the labelled ``max_flow``
helper below; larger ones are checked against the Edmonds-Karp oracle
in ``tests/maxflow_oracle.py``, on random split-node networks shaped
like the separator's and the antichain's, and on every network a real
Dscale and Gscale hand to the kernel.
"""

import itertools
import random
from collections.abc import Hashable, Iterable

import pytest
from hypothesis import given, settings, strategies as st

from maxflow_oracle import arcs_of, edmonds_karp
from repro.api import Flow, FlowConfig
from repro.graphalg.maxflow import INFINITY, ResidualGraph


def max_flow(
    edges: Iterable[tuple[Hashable, Hashable, int]],
    source: Hashable,
    sink: Hashable,
) -> tuple[int, set[Hashable]]:
    """Labelled kernel call: (flow value, source side of the min cut).

    Maps hashable labels to the kernel's integer nodes; the source side
    is the minimal one, as :meth:`ResidualGraph.max_flow` reads it.
    """
    edges = list(edges)
    index: dict[Hashable, int] = {}
    for label in [source, sink] + [x for u, v, _ in edges for x in (u, v)]:
        index.setdefault(label, len(index))
    graph = ResidualGraph(len(index))
    for u, v, capacity in edges:
        graph.add_arc(index[u], index[v], capacity)
    value, reachable = graph.max_flow(index[source], index[sink])
    return value, {label for label, k in index.items() if reachable[k]}


def test_single_edge():
    value, cut = max_flow([("s", "t", 5)], "s", "t")
    assert value == 5
    assert cut == {"s"}


def test_series_bottleneck():
    value, _ = max_flow([("s", "a", 10), ("a", "t", 3)], "s", "t")
    assert value == 3


def test_parallel_paths_add():
    edges = [("s", "a", 4), ("a", "t", 4), ("s", "b", 6), ("b", "t", 6)]
    value, _ = max_flow(edges, "s", "t")
    assert value == 10


def test_classic_clrs_network():
    # The textbook example the paper cites (CLRS ch. 26/27), max flow 23.
    edges = [
        ("s", "v1", 16),
        ("s", "v2", 13),
        ("v1", "v3", 12),
        ("v2", "v1", 4),
        ("v2", "v4", 14),
        ("v3", "v2", 9),
        ("v3", "t", 20),
        ("v4", "v3", 7),
        ("v4", "t", 4),
    ]
    value, cut = max_flow(edges, "s", "t")
    assert value == 23
    assert cut == {"s", "v1", "v2", "v4"}


def test_disconnected_graph_zero_flow():
    value, cut = max_flow([("s", "a", 5), ("b", "t", 5)], "s", "t")
    assert value == 0
    assert cut == {"s", "a"}


def test_min_cut_separates():
    # Both a->b and b->t are minimum cuts; the source side reachable in
    # the residual graph is the smaller one.
    edges = [("s", "a", 2), ("a", "b", 1), ("b", "t", 1)]
    value, cut = max_flow(edges, "s", "t")
    assert value == 1
    assert cut == {"s", "a"}


def test_parallel_edges_merge():
    graph = ResidualGraph(2)
    graph.add_arc(0, 1, 2)
    graph.add_arc(0, 1, 3)
    assert graph.max_flow(0, 1) == (5, [True, False])
    assert max_flow([("s", "t", 2), ("s", "t", 3)], "s", "t")[0] == 5


def test_self_loop_ignored():
    graph = ResidualGraph(2)
    graph.add_arc(0, 0, 5)
    graph.add_arc(0, 1, 1)
    assert graph.to == [1, 0]
    assert graph.max_flow(0, 1)[0] == 1
    assert max_flow([("s", "s", 5), ("s", "t", 1)], "s", "t")[0] == 1


def test_negative_capacity_rejected():
    graph = ResidualGraph(2)
    with pytest.raises(ValueError):
        graph.add_arc(0, 1, -1)
    with pytest.raises(ValueError):
        graph.add_arc(0, 1, 1, -1)
    with pytest.raises(ValueError):
        max_flow([("a", "b", -1)], "a", "b")


def test_same_source_sink_rejected():
    graph = ResidualGraph(2)
    graph.add_arc(0, 1, 1)
    with pytest.raises(ValueError):
        graph.max_flow(0, 0)
    with pytest.raises(ValueError):
        max_flow([("s", "t", 1)], "s", "s")


def test_flow_conservation():
    # Nodes: s=0, t=1, a=2, b=3.
    arcs = [(0, 2, 7), (0, 3, 5), (2, 3, 3), (2, 1, 4), (3, 1, 8)]
    graph = ResidualGraph(4)
    for u, v, capacity in arcs:
        graph.add_arc(u, v, capacity)
    total, _ = graph.max_flow(0, 1)
    assert total == 12
    # Arc k is stored as 2k; the flow it carries is its reverse residual.
    flow = [graph.res[2 * k + 1] for k in range(len(arcs))]
    for k, (_, _, capacity) in enumerate(arcs):
        assert 0 <= flow[k] <= capacity
        assert graph.res[2 * k] == capacity - flow[k]
    for node in (2, 3):
        inflow = sum(f for (_, v, _), f in zip(arcs, flow) if v == node)
        outflow = sum(f for (u, _, _), f in zip(arcs, flow) if u == node)
        assert inflow == outflow
    assert sum(f for (u, _, _), f in zip(arcs, flow) if u == 0) == total


def test_shortest_path_flow_is_rerouted():
    # The one shortest path s-a-b-t blocks both longer paths; a maximum
    # flow must undo its middle arc through the reverse residual.
    edges = [("s", "a", 1), ("a", "b", 1), ("b", "t", 1)]
    edges += [("a", "c", 1), ("c", "d", 1), ("d", "t", 1)]
    edges += [("s", "e", 1), ("e", "f", 1), ("f", "b", 1)]
    value, cut = max_flow(edges, "s", "t")
    assert value == 2
    assert cut == {"s"}


def test_seeded_reverse_residual_carries_flow():
    # A pre-seeded reverse residual is ordinary capacity the other way.
    graph = ResidualGraph(3)
    graph.add_arc(2, 0, 0, 4)
    graph.add_arc(2, 1, 9)
    assert graph.max_flow(0, 1) == (4, [True, False, False])


def test_infinity_is_effectively_unbounded():
    value, _ = max_flow([("s", "t", INFINITY)], "s", "t")
    assert value == INFINITY


_CAPACITIES = st.one_of(
    st.sampled_from([0, INFINITY]), st.integers(min_value=0, max_value=9)
)


@st.composite
def _networks(draw):
    # Nodes 0 (source), 1 (sink) and up to 7 inner nodes; arcs may be
    # parallel or self-loops and carry a seeded reverse residual.
    n = 2 + draw(st.integers(min_value=0, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    arc = st.tuples(node, node, _CAPACITIES, _CAPACITIES)
    return n, draw(st.lists(arc, max_size=16))


@given(_networks())
@settings(max_examples=200, deadline=None)
def test_matches_brute_force_minimum_cuts(network):
    n, arcs = network
    graph = ResidualGraph(n)
    for u, v, capacity, reverse in arcs:
        graph.add_arc(u, v, capacity, reverse)
    value, reachable = graph.max_flow(0, 1)

    cuts = {}
    for inner in itertools.product((False, True), repeat=n - 2):
        side = (True, False, *inner)
        cut = 0
        for u, v, capacity, reverse in arcs:
            if side[u] and not side[v]:
                cut += capacity
            elif side[v] and not side[u]:
                cut += reverse
        cuts[side] = cut
    best = min(cuts.values())
    assert value == best
    minimal = [
        all(side[k] for side, cut in cuts.items() if cut == best)
        for k in range(n)
    ]
    assert reachable == minimal


# -- differential tests against the Edmonds-Karp oracle -----------------

_TIED_WEIGHTS = (0, 1, 2, 2, 3, 3, 3, 7)


def _split_dag(rng):
    """A random DAG on 9..99 elements (20..200 network nodes).

    Elements are numbered in topological order; weights come from a
    short list, so many cuts tie and only the minimal one is right.
    """
    n = rng.randint(9, 99)
    density = rng.choice((0.02, 0.05, 0.1, 0.25))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(pairs)
    weights = [rng.choice(_TIED_WEIGHTS) for _ in range(n)]
    return n, pairs, weights


def _separator_network(rng):
    """Node-split network of the separator, flow from 0 to 1."""
    n, pairs, weights = _split_dag(rng)
    arcs = [(2 + 2 * k, 3 + 2 * k, weights[k], 0) for k in range(n)]
    arcs += [(3 + 2 * u, 2 + 2 * v, INFINITY, 0) for u, v in pairs]
    for k in range(n):
        if rng.random() < 0.3:
            arcs.append((0, 2 + 2 * k, INFINITY, 0))
        if rng.random() < 0.3:
            arcs.append((3 + 2 * k, 1, INFINITY, 0))
    return 2 + 2 * n, arcs, 0, 1


def _antichain_network(rng):
    """Lower-bound network of the antichain, seeded with a feasible flow
    merged greedily along the pairs; the flow is reduced from 1 to 0."""
    n, pairs, weights = _split_dag(rng)
    start, end = list(weights), list(weights)
    arcs = []
    for u, v in pairs:
        flow = min(end[u], start[v]) if rng.random() < 0.8 else 0
        end[u] -= flow
        start[v] -= flow
        arcs.append((3 + 2 * u, 2 + 2 * v, INFINITY - flow, flow))
    for k in range(n):
        arcs.append((0, 2 + 2 * k, INFINITY - start[k], start[k]))
        arcs.append((2 + 2 * k, 3 + 2 * k, INFINITY - weights[k], 0))
        arcs.append((3 + 2 * k, 1, INFINITY - end[k], end[k]))
    return 2 + 2 * n, arcs, 1, 0


@given(
    st.sampled_from((_separator_network, _antichain_network)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_split_networks_match_the_oracle(shape, seed):
    n, arcs, source, sink = shape(random.Random(seed))
    graph = ResidualGraph(n)
    for u, v, capacity, reverse in arcs:
        graph.add_arc(u, v, capacity, reverse)
    assert graph.max_flow(source, sink) == edmonds_karp(n, arcs, source, sink)


def test_scaling_networks_match_the_oracle(monkeypatch):
    """Every network a 3-rail Dscale (both N-rail moves) and a Gscale
    hand to the kernel, replayed through the oracle."""
    recorded = []
    solve = ResidualGraph.max_flow

    def recording(self, source, sink):
        network = (len(self.adj), arcs_of(self), source, sink)
        result = solve(self, source, sink)
        recorded.append((network, result))
        return result

    monkeypatch.setattr(ResidualGraph, "max_flow", recording)
    config = FlowConfig(
        circuit="gen:layered:width=10:depth=10:seed=1", rails=(1.8, 1.0, 0.6)
    )
    prepared = Flow(config).prepare()
    jobs = [
        config.replace(
            method="dscale", non_adjacent=True, retarget_shifters=True
        ),
        config.replace(method="gscale"),
    ]
    for job in jobs:
        Flow(job).execute(prepared=prepared)
    kinds = {network[2:] for network, _ in recorded}
    assert kinds == {(1, 0), (0, 1)}  # antichains and separators
    for network, result in recorded:
        assert result == edmonds_karp(*network)
