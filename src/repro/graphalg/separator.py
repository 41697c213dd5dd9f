"""Minimum-weight vertex separator via max-flow min-cut.

Gscale must pick, among the critical-path network (CPN) nodes, a set that
(a) intersects every source-to-sink path -- so that *every* path into the
time-critical boundary is sped up by a resize -- and (b) has minimum total
weight, where the weight is the area-penalty-per-unit-of-timing-gain of
resizing that node.  That is exactly a minimum-weight vertex separator,
computed with the classic node-splitting reduction to edge min-cut on
the Dinic kernel of :mod:`repro.graphalg.maxflow`, whose phases level
the nodes by residual distance to the super-sink.  The paper runs
Edmonds-Karp, but every maximum flow leaves the same unique minimal
residual cut, where the separator is read, so the choice changes nothing.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.graphalg.maxflow import INFINITY, ResidualGraph

_SOURCE, _SINK = 0, 1


def min_weight_separator(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    weights: Mapping[Hashable, int],
    sources: Iterable[Hashable],
    sinks: Iterable[Hashable],
) -> tuple[list[Hashable], int]:
    """Minimum-weight set of nodes whose removal cuts all source→sink paths.

    Parameters
    ----------
    nodes, edges:
        The DAG to separate; repeated nodes count once.  Every node is
        removable (including sources and sinks themselves); ``weights``
        gives each node's non-negative integer removal cost.
    sources, sinks:
        Path endpoints.  Paths are directed source → sink.

    Returns
    -------
    (separator, weight):
        Node list (deterministically ordered) and its total weight.  If
        no source reaches a sink the separator is empty.

    Notes
    -----
    Construction: node ``k`` splits into in-node ``2 + 2k`` -> out-node
    ``3 + 2k`` with capacity ``weights[v]``; each DAG edge ``u -> v``
    becomes ``out(u) -> in(v)`` with infinite capacity; the super-source
    (node 0) feeds every source's in-node and every sink's out-node feeds
    the super-sink (node 1), both with infinite capacity.  Saturated
    split arcs crossing the min cut are the separator.
    """
    node_list = list(dict.fromkeys(nodes))
    index = {v: k for k, v in enumerate(node_list)}
    for node in node_list:
        if weights[node] < 0:
            raise ValueError(f"negative weight on node {node!r}")

    graph = ResidualGraph(2 + 2 * len(node_list))
    for k, v in enumerate(node_list):
        graph.add_arc(2 + 2 * k, 3 + 2 * k, weights[v])
    for u, v in edges:
        if u in index and v in index:
            graph.add_arc(3 + 2 * index[u], 2 + 2 * index[v], INFINITY)
    for v in sources:
        if v in index:
            graph.add_arc(_SOURCE, 2 + 2 * index[v], INFINITY)
    for v in sinks:
        if v in index:
            graph.add_arc(3 + 2 * index[v], _SINK, INFINITY)

    value, source_side = graph.max_flow(_SOURCE, _SINK)
    if value >= INFINITY:
        raise ValueError(
            "no finite separator exists (a zero-weight-free path was "
            "expected; check that weights cover every path)"
        )

    separator = [
        v
        for k, v in enumerate(node_list)
        if source_side[2 + 2 * k] and not source_side[3 + 2 * k]
    ]
    return separator, value


def is_separator(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    sources: Iterable[Hashable],
    sinks: Iterable[Hashable],
    candidate: Iterable[Hashable],
) -> bool:
    """True if removing ``candidate`` disconnects all source→sink paths."""
    removed = set(candidate)
    node_set = set(nodes) - removed
    adjacency: dict[Hashable, list[Hashable]] = {v: [] for v in node_set}
    for u, v in edges:
        if u in node_set and v in node_set:
            adjacency[u].append(v)
    sink_set = {v for v in sinks if v in node_set}
    stack = [v for v in sources if v in node_set]
    seen = set(stack)
    while stack:
        u = stack.pop()
        if u in sink_set:
            return False
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return True


__all__ = ["min_weight_separator", "is_separator"]
