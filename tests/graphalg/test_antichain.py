"""Max-weight antichain (MWIS on transitive graphs) tests.

The flow formulation is checked against brute-force subset search on
random DAGs -- the duality assertion inside the implementation already
guards each call, so these tests focus on end-to-end optimality and the
independence property.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from antichain_oracle import brute_force_antichain, is_antichain
from repro.graphalg.antichain import max_weight_antichain
from repro.graphalg.maxflow import INFINITY, ResidualGraph


def test_empty_poset():
    chain, weight = max_weight_antichain([], [], {})
    assert chain == [] and weight == 0


def test_singleton():
    chain, weight = max_weight_antichain(["a"], [], {"a": 7})
    assert chain == ["a"] and weight == 7


def test_two_element_chain_picks_heavier():
    chain, weight = max_weight_antichain(
        ["a", "b"], [("a", "b")], {"a": 2, "b": 9}
    )
    assert chain == ["b"] and weight == 9


def test_incomparable_pair_takes_both():
    _, weight = max_weight_antichain(["a", "b"], [], {"a": 2, "b": 9})
    assert weight == 11


def test_diamond():
    #   a < b, a < c, b < d, c < d: best antichain is {b, c}.
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    weights = {"a": 3, "b": 4, "c": 5, "d": 6}
    chain, weight = max_weight_antichain("abcd", pairs, weights)
    assert sorted(chain) == ["b", "c"] and weight == 9


def test_heavy_single_beats_wide_antichain():
    pairs = [("top", x) for x in "abc"]
    weights = {"top": 100, "a": 10, "b": 10, "c": 10}
    chain, weight = max_weight_antichain(
        ["top", "a", "b", "c"], pairs, weights
    )
    assert chain == ["top"] and weight == 100


def test_zero_weight_elements_never_chosen():
    chain, weight = max_weight_antichain(["a", "b"], [], {"a": 0, "b": 3})
    assert chain == ["b"] and weight == 3


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        max_weight_antichain(["a"], [], {"a": -1})


def test_comparability_through_intermediate_elements():
    # a < m < b with m an element: a and b must not be chosen together
    # even without the explicit (a, b) pair.
    pairs = [("a", "m"), ("m", "b")]
    weights = {"a": 5, "m": 1, "b": 5}
    chain, weight = max_weight_antichain("amb", pairs, weights)
    assert is_antichain(pairs, chain)
    assert weight == 5


def test_layered_dag():
    # Three layers of 3; middle layer heaviest.
    elements = [f"{layer}{k}" for layer in "abc" for k in range(3)]
    pairs = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
    pairs += [(f"b{i}", f"c{j}") for i in range(3) for j in range(3)]
    weights = {e: (20 if e[0] == "b" else 7) for e in elements}
    chain, weight = max_weight_antichain(elements, pairs, weights)
    assert sorted(chain) == ["b0", "b1", "b2"] and weight == 60


def test_repeated_elements_count_once():
    chain, weight = max_weight_antichain(["a", "a", "b"], [], {"a": 3, "b": 2})
    assert chain == ["a", "b"] and weight == 5


def test_self_pairs_ignored():
    pairs = [("a", "a"), ("a", "b")]
    chain, weight = max_weight_antichain("ab", pairs, {"a": 4, "b": 3})
    assert chain == ["a"] and weight == 4


def test_is_antichain_helper():
    pairs = [("a", "b"), ("b", "c")]
    assert is_antichain(pairs, ["a"])
    assert not is_antichain(pairs, ["a", "c"])  # related through b
    assert is_antichain(pairs, [])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_matches_brute_force_on_random_dags(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    elements = list(range(n))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    weights = {e: rng.randint(0, 12) for e in elements}
    chain, weight = max_weight_antichain(elements, pairs, weights)
    assert is_antichain(pairs, chain)
    assert weight == sum(weights[e] for e in chain)
    assert weight == brute_force_antichain(elements, pairs, weights)


def _unseeded_antichain(elements, order_pairs, weights):
    """The solver without the pair-merged seed: one chain per element.

    The same lower-bound network, started from the flow that sends each
    weight straight from source to sink.
    """
    element_list = list(dict.fromkeys(elements))
    index = {v: k for k, v in enumerate(element_list)}
    graph = ResidualGraph(2 + 2 * len(element_list))
    total = 0
    for k, v in enumerate(element_list):
        weight = weights[v]
        graph.add_arc(0, 2 + 2 * k, INFINITY - weight, weight)
        graph.add_arc(2 + 2 * k, 3 + 2 * k, INFINITY - weight)
        graph.add_arc(3 + 2 * k, 1, INFINITY - weight, weight)
        total += weight
    for u, v in order_pairs:
        ku, kv = index.get(u), index.get(v)
        if ku is not None and kv is not None and ku != kv:
            graph.add_arc(3 + 2 * ku, 2 + 2 * kv, INFINITY)
    reduction, reachable = graph.max_flow(1, 0)
    antichain = [
        v
        for k, v in enumerate(element_list)
        if weights[v] > 0 and reachable[3 + 2 * k] and not reachable[2 + 2 * k]
    ]
    assert sum(weights[v] for v in antichain) == total - reduction
    return antichain, total - reduction


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_seeded_flow_picks_the_unseeded_antichain(seed):
    """Seeding the pair merges changes the flow, never the cut: on
    random posets with deliberately tied weights -- where another
    minimum cut would pick another antichain -- the list is the same."""
    rng = random.Random(seed)
    n = rng.randint(1, 24)
    elements = list(range(n))
    rng.shuffle(elements)
    density = rng.choice((0.1, 0.25, 0.5))
    pairs = [
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(pairs)
    palette = rng.choice(((1,), (0, 2), (1, 2, 3), (5, 5, 10)))
    weights = {e: rng.choice(palette) for e in elements}
    got = max_weight_antichain(elements, pairs, weights)
    assert got == _unseeded_antichain(elements, pairs, weights)
