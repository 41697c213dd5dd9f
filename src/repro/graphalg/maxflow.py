"""Integer-array maximum flow (Dinic), shared by both graph kernels.

The paper cites Edmonds-Karp (Cormen et al. ch. 27) for Gscale's
separator; Dscale's antichain is a flow problem too.  Both run on this
one kernel, Dinic's algorithm: a BFS level graph, then a blocking flow
by an iterative current-arc DFS.  The deviation changes speed, never
results: after *any* maximum flow, the nodes reachable from the source
in the residual graph are the unique inclusion-minimal min-cut source
side, and that cut is all the callers read.

Nodes are ints ``0 .. n-1``.  Arc ``e`` and its reverse ``e ^ 1`` live
in flat ``to`` (head) and ``res`` (residual capacity) lists; each node
lists its arc ids.  Capacities are integers -- callers scale real
weights first so flow arithmetic is exact.  The kernel is pure Python.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

INFINITY = 10**15
"""Effectively unbounded integer capacity (safe against overflow in sums)."""


class ResidualGraph:
    """Residual graph over integer nodes with paired arcs ``e``/``e ^ 1``."""

    __slots__ = ("adj", "to", "res")

    def __init__(self, n: int):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.res: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int, reverse: int = 0) -> None:
        """Arc ``u -> v`` with residual ``capacity``; its twin ``reverse``.

        A nonzero ``reverse`` seeds an existing flow directly as residual
        capacity.  Parallel arcs add up; self-loops carry no flow and are
        dropped.
        """
        if capacity < 0 or reverse < 0:
            raise ValueError(f"negative capacity on arc {u!r}->{v!r}")
        if u != v:
            arc = len(self.to)
            self.to += (v, u)
            self.res += (capacity, reverse)
            self.adj[u].append(arc)
            self.adj[v].append(arc + 1)

    def max_flow(self, source: int, sink: int) -> tuple[int, list[bool]]:
        """Push a maximum flow; returns ``(value, reachable-from-source)``.

        The flags mark the nodes reachable from ``source`` in the final
        residual graph: the minimal min-cut source side.  ``res`` is left
        holding the residual capacities of the maximum flow.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        adj, to, res = self.adj, self.to, self.res
        total = 0
        while True:
            level = [-1] * len(adj)
            level[source] = 0
            queue = [source]
            for u in queue:
                if u == sink:
                    break
                depth = level[u] + 1
                for arc in adj[u]:
                    v = to[arc]
                    if res[arc] and level[v] < 0:
                        level[v] = depth
                        queue.append(v)
            if level[sink] < 0:
                return total, [depth >= 0 for depth in level]
            total += self._blocking_flow(source, sink, level)

    def _blocking_flow(self, source: int, sink: int, level: list[int]) -> int:
        """Saturate the level graph's shortest paths; returns the push."""
        adj, to, res = self.adj, self.to, self.res
        current = [0] * len(adj)
        path: list[int] = []
        pushed = 0
        u = source
        while True:
            if u == sink:
                push = min(res[arc] for arc in path)
                for arc in path:
                    res[arc] -= push
                    res[arc ^ 1] += push
                pushed += push
                # Resume from the tail of the first saturated arc.
                cut = next(k for k, arc in enumerate(path) if not res[arc])
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            depth = level[u] + 1
            k = current[u]
            while k < len(arcs):
                arc = arcs[k]
                if res[arc] and level[to[arc]] == depth:
                    break
                k += 1
            current[u] = k
            if k < len(arcs):
                path.append(arc)
                u = to[arc]
            elif path:
                level[u] = -1  # dead end: prune it for the rest of the phase
                u = to[path.pop() ^ 1]
            else:
                return pushed


def max_flow(
    edges: Iterable[tuple[Hashable, Hashable, int]],
    source: Hashable,
    sink: Hashable,
) -> tuple[int, set[Hashable]]:
    """Labelled adapter: returns (flow value, source side of the min cut).

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


__all__ = ["INFINITY", "ResidualGraph", "max_flow"]
