"""Dinic max-flow kernel tests, plus its labelled ``max_flow`` adapter."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphalg.maxflow import INFINITY, ResidualGraph, max_flow


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
