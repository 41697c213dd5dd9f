"""Maximum-weight antichain == MWIS on a transitive graph (Dscale's core).

Dscale must choose, among all individually-demotable gates, a maximum-
power-gain subset such that no two chosen gates lie on a common path --
otherwise their delay penalties would accumulate on that path and the
per-gate slack checks would no longer be valid.  "No two on a common
path" is exactly *incomparability* in the circuit DAG's reachability
partial order, so the chosen set is a maximum-weight antichain; the paper
cites Kagaris-Tragoudas's polynomial MWIS-on-transitive-graphs algorithm.

We solve the problem exactly through LP duality: the chain-covering dual
of the antichain LP is a *minimum flow with lower bounds* on a split-node
network.  A feasible flow is seeded directly as residual capacities,
reduced to minimality by a reverse (sink-to-source) maximum flow on the
Dinic kernel of :mod:`repro.graphalg.maxflow` (the paper's reference
solves it by augmenting paths; any maximum flow leaves the same unique
minimal residual cut, so the antichain does not depend on the choice),
and the optimal antichain is read off that cut.

The seeded flow already merges chains along the given pairs: each
element's weight enters from the source and leaves to the sink, and one
greedy walk over the pairs routes ``min(leaving u, entering v)`` of it
across each pair arc instead.  Every split arc still carries exactly
its weight, so the flow is feasible, and the network -- nodes, arcs,
capacities, lower bounds -- is the one an unseeded solver builds, so
the minimal cut and the antichain are too.  The walk does the work of
the first Dinic phase without a search.  Total weight of the
antichain equals the minimum flow value, which the implementation
asserts -- strong duality doubles as a built-in self-check.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.graphalg.maxflow import INFINITY, ResidualGraph

_SOURCE, _SINK = 0, 1


def max_weight_antichain(
    elements: Iterable[Hashable],
    order_pairs: Iterable[tuple[Hashable, Hashable]],
    weights: Mapping[Hashable, int],
) -> tuple[list[Hashable], int]:
    """Maximum-weight antichain of a finite partial order.

    Parameters
    ----------
    elements:
        The ground set; repeated elements count once.
    order_pairs:
        Pairs ``(u, v)`` meaning ``u < v``.  The relation need not be
        transitively closed as long as comparability is preserved by
        paths (DAG edges are fine: reachability through intermediate
        *elements* is captured by the flow network's paths).  Pairs whose
        endpoints are outside ``elements``, and ``(v, v)``, are ignored.
    weights:
        Non-negative integer weight per element.  Scale floats to
        integers before calling; exact arithmetic keeps the duality
        check meaningful.

    Returns
    -------
    (antichain, weight):
        Deterministically-ordered list of chosen elements (zero-weight
        elements are never chosen) and its total weight.
    """
    element_list = list(dict.fromkeys(elements))
    index = {v: k for k, v in enumerate(element_list)}
    for element in element_list:
        if weights[element] < 0:
            raise ValueError(f"negative weight on element {element!r}")

    # --- a feasible flow, with chains merged along the pairs -----------
    # Every element starts as its own chain, source -> v -> sink with
    # its weight; a pair arc u -> v joins u's chain into v's for as much
    # as u still sends to the sink and v still takes from the source.
    start = [weights[v] for v in element_list]
    end = list(start)
    pair_flows: list[tuple[int, int, int]] = []
    for u, v in order_pairs:
        ku, kv = index.get(u), index.get(v)
        if ku is not None and kv is not None and ku != kv:
            flow = min(end[ku], start[kv])
            end[ku] -= flow
            start[kv] -= flow
            pair_flows.append((ku, kv, flow))

    # --- the lower-bound network, seeded with that flow -----------------
    # Element k splits into in-node 2 + 2k and out-node 3 + 2k.  Every
    # arc has capacity INFINITY, so its forward residual is INFINITY - f
    # and its reverse may shed the flow f -- except the split arc, whose
    # lower bound w leaves it f - l = 0 to shed.
    graph = ResidualGraph(2 + 2 * len(element_list))
    for k, v in enumerate(element_list):
        graph.add_arc(_SOURCE, 2 + 2 * k, INFINITY - start[k], start[k])
        graph.add_arc(2 + 2 * k, 3 + 2 * k, INFINITY - weights[v])
        graph.add_arc(3 + 2 * k, _SINK, INFINITY - end[k], end[k])
    for ku, kv, flow in pair_flows:
        graph.add_arc(3 + 2 * ku, 2 + 2 * kv, INFINITY - flow, flow)
    total = sum(start)

    # --- minimize the flow: max residual flow from sink back to source -
    reduction, reachable = graph.max_flow(_SINK, _SOURCE)
    minimum_flow = total - reduction

    # --- read the antichain off the final residual cut -----------------
    antichain = [
        v
        for k, v in enumerate(element_list)
        if weights[v] > 0 and reachable[3 + 2 * k] and not reachable[2 + 2 * k]
    ]
    chosen_weight = sum(weights[v] for v in antichain)
    if chosen_weight != minimum_flow:
        raise AssertionError(
            f"duality violated: antichain weight {chosen_weight} != "
            f"minimum flow {minimum_flow}"
        )
    return antichain, chosen_weight


__all__ = ["max_weight_antichain"]
