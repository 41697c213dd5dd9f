"""Test-only antichain oracles shared by the graphalg and Dscale suites.

``brute_force_antichain`` is the exponential subset-search reference
for :func:`repro.graphalg.antichain.max_weight_antichain`;
``is_antichain`` checks that no two chosen elements are comparable
through the given order pairs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping


def brute_force_antichain(
    elements: Iterable[Hashable],
    order_pairs: Iterable[tuple[Hashable, Hashable]],
    weights: Mapping[Hashable, int],
) -> int:
    """Exponential reference: maximum antichain weight by subset search.

    Comparability is taken as reachability through the given pairs
    restricted to ``elements``.
    """
    element_list = list(elements)
    index = {v: i for i, v in enumerate(element_list)}
    n = len(element_list)
    adjacency = [[] for _ in range(n)]
    for u, v in order_pairs:
        if u in index and v in index:
            adjacency[index[u]].append(index[v])

    reach = [0] * n
    # Repeated relaxation handles arbitrary pair orderings (the graph is
    # a DAG by contract, so n rounds surely converge).
    for _ in range(n):
        changed = False
        for i in range(n):
            combined = reach[i]
            for j in adjacency[i]:
                combined |= reach[j] | (1 << j)
            if combined != reach[i]:
                reach[i] = combined
                changed = True
        if not changed:
            break

    comparable = [reach[i] for i in range(n)]
    best = 0
    for mask in range(1 << n):
        ok = True
        weight = 0
        for i in range(n):
            if mask >> i & 1:
                if comparable[i] & mask:
                    ok = False
                    break
                weight += weights[element_list[i]]
        if ok and weight > best:
            best = weight
    return best


def is_antichain(
    order_pairs: Iterable[tuple[Hashable, Hashable]],
    candidate: Iterable[Hashable],
) -> bool:
    """True if no two candidate elements are related through the pairs.

    Builds reachability over the full pair set, then checks candidates.
    """
    candidate_set = set(candidate)
    adjacency: dict[Hashable, list[Hashable]] = {}
    for u, v in order_pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, [])
    for start in candidate_set:
        if start not in adjacency:
            continue
        stack = list(adjacency.get(start, ()))
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in candidate_set:
                return False
            stack.extend(adjacency.get(node, ()))
    return True
