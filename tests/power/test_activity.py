"""Switching-activity extraction tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.mcnc import load_circuit
from repro.netlist.functions import TruthTable
from repro.netlist.network import Network
from repro.power.activity import (
    Activity,
    probabilistic_activities,
    random_activities,
)


def chain_network(depth=3):
    net = Network()
    net.add_input("a")
    prev = "a"
    for k in range(depth):
        name = f"inv{k}"
        net.add_node(name, [prev], TruthTable.inverter())
        prev = name
    net.set_output(prev)
    return net


def test_inverter_preserves_activity():
    net = chain_network()
    activity = random_activities(net, n_vectors=256, seed=1)
    for k in range(3):
        assert activity.toggles[f"inv{k}"] == pytest.approx(
            activity.toggles["a"]
        )


def test_random_input_statistics():
    net = chain_network(1)
    activity = random_activities(net, n_vectors=4096, seed=3)
    # Random data: p(1) ~ 0.5, transitions/cycle ~ 0.5.
    assert activity.probability["a"] == pytest.approx(0.5, abs=0.05)
    assert activity.toggles["a"] == pytest.approx(0.5, abs=0.05)
    assert activity.rate01("a") == pytest.approx(0.25, abs=0.03)


def test_and_gate_activity_lower_than_inputs(control_network):
    activity = random_activities(control_network, n_vectors=2048, seed=5)
    # p1 = a & b has p ~ 0.25 -> toggles ~ 2*0.25*0.75 = 0.375 < 0.5.
    assert activity.toggles["p1"] < activity.toggles["a"]
    assert activity.probability["p1"] == pytest.approx(0.25, abs=0.05)


def test_deterministic_given_seed(control_network):
    a = random_activities(control_network, n_vectors=512, seed=7)
    b = random_activities(control_network, n_vectors=512, seed=7)
    assert a.toggles == b.toggles


def test_seed_changes_samples(control_network):
    a = random_activities(control_network, n_vectors=128, seed=1)
    b = random_activities(control_network, n_vectors=128, seed=2)
    assert a.toggles != b.toggles


def test_needs_two_vectors(control_network):
    with pytest.raises(ValueError):
        random_activities(control_network, n_vectors=1)


def test_transition_counting_across_word_boundaries(control_network):
    # 100 vectors spans two 64-lane words; totals must still be ~0.5
    # per input (a boundary bug would bias this noticeably).
    activity = random_activities(control_network, n_vectors=100, seed=11)
    assert activity.toggles["a"] == pytest.approx(0.5, abs=0.17)


def test_probabilistic_matches_exact_for_tree_logic():
    # Fanout-free network: independence assumption is exact.
    net = Network()
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    net.add_node("x", ["a", "b"], TruthTable.and_(2))
    net.add_node("y", ["c", "d"], TruthTable.or_(2))
    net.add_node("f", ["x", "y"], TruthTable.xor(2))
    net.set_output("f")
    exact = probabilistic_activities(net)
    assert exact.probability["x"] == pytest.approx(0.25)
    assert exact.probability["y"] == pytest.approx(0.75)
    # p(f) = p(x)(1-p(y)) + (1-p(x))p(y)
    assert exact.probability["f"] == pytest.approx(
        0.25 * 0.25 + 0.75 * 0.75
    )
    sampled = random_activities(net, n_vectors=8192, seed=13)
    for name in ("x", "y", "f"):
        assert sampled.probability[name] == pytest.approx(
            exact.probability[name], abs=0.03
        )
        assert sampled.toggles[name] == pytest.approx(
            exact.toggles[name], abs=0.05
        )


def test_probabilistic_biased_inputs():
    net = chain_network(1)
    activity = probabilistic_activities(net, input_probability=0.9)
    assert activity.probability["a"] == pytest.approx(0.9)
    assert activity.probability["inv0"] == pytest.approx(0.1)
    assert activity.toggles["inv0"] == pytest.approx(2 * 0.9 * 0.1)


def test_rate01_is_half_of_toggles(control_network):
    activity = random_activities(control_network, n_vectors=256, seed=17)
    for name in control_network.nodes:
        assert activity.rate01(name) == pytest.approx(
            activity.toggles[name] / 2
        )


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_toggles_bounded_by_one_per_cycle(depth, seed):
    net = chain_network(depth)
    activity = random_activities(net, n_vectors=128, seed=seed)
    for name, value in activity.toggles.items():
        assert 0.0 <= value <= 1.0


def _chunked_activities(
    network, n_vectors=512, seed=1999, input_probability=0.5
):
    """The 64-lane chunk-by-chunk simulation, kept as the oracle."""
    rng = random.Random(seed)
    toggles = {name: 0 for name in network.nodes}
    ones = {name: 0 for name in network.nodes}
    previous_bit = {}
    remaining = n_vectors
    first_chunk = True
    while remaining > 0:
        width = min(64, remaining)
        remaining -= width
        width_mask = (1 << width) - 1
        input_words = {}
        for input_name in network.inputs:
            word = 0
            for lane in range(width):
                if rng.random() < input_probability:
                    word |= 1 << lane
            input_words[input_name] = word
        words = network.evaluate_words(input_words, width_mask)
        for name, word in words.items():
            ones[name] += bin(word).count("1")
            transitions = (word ^ (word >> 1)) & (width_mask >> 1)
            count = bin(transitions).count("1")
            if not first_chunk and (word & 1) != previous_bit[name]:
                count += 1
            toggles[name] += count
            previous_bit[name] = word >> (width - 1) & 1
        first_chunk = False
    cycles = n_vectors - 1
    return Activity(
        toggles={name: toggles[name] / cycles for name in toggles},
        probability={name: ones[name] / n_vectors for name in ones},
        n_vectors=n_vectors,
    )


@pytest.fixture(
    scope="module", params=["C432", "gen:layered:width=8:depth=8:seed=3"]
)
def circuit_network(request):
    return load_circuit(request.param)


@pytest.mark.parametrize("n_vectors", [2, 63, 64, 65, 100, 512, 513])
def test_one_word_simulation_equals_chunked(circuit_network, n_vectors):
    got = random_activities(circuit_network, n_vectors=n_vectors, seed=23)
    expected = _chunked_activities(circuit_network, n_vectors, seed=23)
    assert got == expected
    assert list(got.toggles) == list(circuit_network.nodes)
    assert list(got.probability) == list(circuit_network.nodes)


@pytest.mark.parametrize("input_probability", [0.0, 0.3, 1.0])
def test_biased_inputs_equal_chunked(control_network, input_probability):
    got = random_activities(
        control_network, 130, seed=4, input_probability=input_probability
    )
    expected = _chunked_activities(
        control_network, 130, seed=4, input_probability=input_probability
    )
    assert got == expected


def test_network_without_inputs():
    net = Network("const")
    net.add_node("one", [], TruthTable.const(0, True))
    net.set_output("one")
    got = random_activities(net, n_vectors=70)
    assert got == _chunked_activities(net, 70)
    assert got.probability["one"] == 1.0
    assert got.toggles["one"] == 0.0
