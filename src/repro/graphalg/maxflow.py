"""Integer-array maximum flow (Dinic), shared by both graph kernels.

The paper cites Edmonds-Karp (Cormen et al. ch. 27) for Gscale's
separator; Dscale's antichain is a flow problem too.  Both run on this
one kernel, Dinic's algorithm levelled from the sink.  Each phase labels
every node with its residual distance *to* the sink, by a reverse BFS
over arcs with positive residual that stops once the source is
labelled; an iterative current-arc DFS from the source then saturates
the shortest paths, stepping only along arcs one level nearer the sink,
so it never walks into a branch that cannot reach it.  When the source
is no longer labelled the flow is maximum, and one forward search from
the source over positive residuals reads the cut.

The deviation from the paper changes speed, never results: after *any*
maximum flow, the nodes reachable from the source in the residual graph
are the unique inclusion-minimal min-cut source side, and that cut is
all the callers read.

Nodes are ints ``0 .. n-1``.  Arc ``e`` and its reverse ``e ^ 1`` live
in flat ``to`` (head) and ``res`` (residual capacity) lists; each node
lists its arc ids.  Capacities are integers -- callers scale real
weights first so flow arithmetic is exact.  The kernel is pure Python.
"""

from __future__ import annotations

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
        n = len(adj)
        total = 0
        while True:
            # Residual distance to the sink, by a reverse BFS that stops
            # once the source is labelled: arc ``arc ^ 1`` runs u -> v.
            dist = [-1] * n
            dist[sink] = 0
            queue = [sink]
            for v in queue:
                if dist[source] >= 0:
                    break
                depth = dist[v] + 1
                for arc in adj[v]:
                    u = to[arc]
                    if dist[u] < 0 and res[arc ^ 1]:
                        dist[u] = depth
                        queue.append(u)
            if dist[source] < 0:
                break
            total += self._blocking_flow(source, sink, dist)
        reachable = [False] * n
        reachable[source] = True
        queue = [source]
        for u in queue:
            for arc in adj[u]:
                v = to[arc]
                if res[arc] and not reachable[v]:
                    reachable[v] = True
                    queue.append(v)
        return total, reachable

    def _blocking_flow(self, source: int, sink: int, dist: list[int]) -> int:
        """Saturate the shortest source-sink paths; returns the push.

        Every step follows a residual arc one level nearer the sink.
        """
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
            depth = dist[u] - 1
            k = current[u]
            while k < len(arcs):
                arc = arcs[k]
                if res[arc] and dist[to[arc]] == depth:
                    break
                k += 1
            current[u] = k
            if k < len(arcs):
                path.append(arc)
                u = to[arc]
            elif path:
                dist[u] = -1  # dead end: prune it for the rest of the phase
                u = to[path.pop() ^ 1]
            else:
                return pushed


__all__ = ["INFINITY", "ResidualGraph"]
