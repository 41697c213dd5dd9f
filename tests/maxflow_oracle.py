"""Test-only serial max-flow oracle for the graphalg suites.

``edmonds_karp`` is the textbook augmenting-path algorithm the paper
cites (Cormen et al.): repeatedly push flow along one shortest residual
path found by BFS from the source.  It keeps its own residual table and
shares no code with :mod:`repro.graphalg.maxflow`, so the kernel can be
checked against it on any network.  ``arcs_of`` reads a
:class:`~repro.graphalg.maxflow.ResidualGraph` back as the arc list the
oracle takes.
"""

from __future__ import annotations

from collections import deque


def arcs_of(graph) -> list[tuple[int, int, int, int]]:
    """``(u, v, capacity, reverse)`` of each arc pair of ``graph``.

    Arc ``2k`` runs ``u -> v`` with residual ``capacity``; its twin
    ``2k + 1`` runs back with residual ``reverse``.
    """
    to, res = graph.to, graph.res
    return [
        (to[arc + 1], to[arc], res[arc], res[arc + 1])
        for arc in range(0, len(to), 2)
    ]


def edmonds_karp(
    n: int, arcs, source: int, sink: int
) -> tuple[int, list[bool]]:
    """Maximum flow value and the nodes reachable from ``source`` after it.

    ``arcs`` holds ``(u, v, capacity, reverse)``: residual ``capacity``
    from ``u`` to ``v`` and ``reverse`` from ``v`` back to ``u``.
    Parallel arcs add up and self-loops carry nothing.  The reachable
    flags are the residual graph's source side once no augmenting path
    is left: the inclusion-minimal minimum cut.
    """
    residual = [dict() for _ in range(n)]
    for u, v, capacity, reverse in arcs:
        if u != v:
            residual[u][v] = residual[u].get(v, 0) + capacity
            residual[v][u] = residual[v].get(u, 0) + reverse

    def parents_from_source():
        parent = [None] * n
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and parent[v] is None:
                    parent[v] = u
                    queue.append(v)
        return parent

    value = 0
    while True:
        parent = parents_from_source()
        if parent[sink] is None:
            return value, [p is not None for p in parent]
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        value += push
