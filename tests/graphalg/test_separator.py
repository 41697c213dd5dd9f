"""Min-weight vertex separator tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphalg.separator import is_separator, min_weight_separator


def test_single_chain_cuts_cheapest_node():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c")]
    weights = {"a": 3, "b": 1, "c": 5}
    cut, weight = min_weight_separator(nodes, edges, weights, ["a"], ["c"])
    assert cut == ["b"] and weight == 1


def test_source_or_sink_can_be_cut():
    nodes = ["a", "b"]
    edges = [("a", "b")]
    weights = {"a": 1, "b": 9}
    cut, weight = min_weight_separator(nodes, edges, weights, ["a"], ["b"])
    assert cut == ["a"] and weight == 1


def test_parallel_paths_need_both_cut():
    nodes = ["s1", "p", "q", "t1"]
    edges = [("s1", "p"), ("s1", "q"), ("p", "t1"), ("q", "t1")]
    weights = {"s1": 100, "p": 2, "q": 3, "t1": 100}
    cut, weight = min_weight_separator(nodes, edges, weights, ["s1"], ["t1"])
    assert sorted(cut) == ["p", "q"] and weight == 5


def test_chokepoint_preferred_over_wide_layer():
    # Two paths reconverging on one cheap node.
    nodes = ["s1", "s2", "m", "t1", "t2"]
    edges = [("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")]
    weights = {"s1": 4, "s2": 4, "m": 5, "t1": 4, "t2": 4}
    cut, weight = min_weight_separator(
        nodes, edges, weights, ["s1", "s2"], ["t1", "t2"]
    )
    assert cut == ["m"] and weight == 5


def test_disconnected_needs_nothing():
    cut, weight = min_weight_separator(
        ["a", "b"], [], {"a": 1, "b": 1}, ["a"], ["b"]
    )
    assert cut == [] and weight == 0


def test_source_equals_sink_cuts_itself():
    cut, weight = min_weight_separator(["a"], [], {"a": 4}, ["a"], ["a"])
    assert cut == ["a"] and weight == 4


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        min_weight_separator(["a"], [], {"a": -2}, ["a"], ["a"])


def test_edges_outside_node_set_ignored():
    cut, weight = min_weight_separator(
        ["a", "b"],
        [("a", "zz"), ("a", "b")],
        {"a": 2, "b": 3},
        ["a"],
        ["b"],
    )
    assert weight == 2


def test_repeated_nodes_count_once():
    # A repeated node must not double its split capacity.
    cut, weight = min_weight_separator(
        ["a", "a", "b"], [("a", "b")], {"a": 3, "b": 5}, ["a"], ["b"]
    )
    assert cut == ["a"] and weight == 3


def test_is_separator_helper():
    nodes = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c")]
    assert is_separator(nodes, edges, ["a"], ["c"], ["b"])
    assert not is_separator(nodes, edges, ["a"], ["c"], [])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_separator_is_valid_and_not_beaten_by_singletons(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    nodes = list(range(n))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    weights = {v: rng.randint(1, 10) for v in nodes}
    sources = [0]
    sinks = [n - 1]
    cut, weight = min_weight_separator(nodes, edges, weights, sources, sinks)
    assert is_separator(nodes, edges, sources, sinks, cut)
    assert weight == sum(weights[v] for v in cut)
    # No strictly cheaper separator among all subsets (exact check).
    import itertools

    best = weight
    for r in range(n + 1):
        for subset in itertools.combinations(nodes, r):
            subset_weight = sum(weights[v] for v in subset)
            if subset_weight >= best:
                continue
            if is_separator(nodes, edges, sources, sinks, subset):
                best = subset_weight
    assert best == weight
