"""Dscale tests: MWIS selection, converter legality, monotone power."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dscale as dscale_module
from repro.api import Flow, FlowConfig
from repro.bench.generators import layered_network, mixed_datapath, sec_decoder
from repro.core.cvs import run_cvs
from repro.core.dscale import (
    candidate_order_pairs,
    check_demotion,
    run_dscale,
)
from antichain_oracle import is_antichain
from repro.core.state import ScalingState


def _prepare(library, match_table, network):
    return Flow(
        FlowConfig(), library=library, match_table=match_table
    ).prepare(network)


@pytest.fixture(scope="module")
def prepared(library, match_table):
    network = mixed_datapath(width=8, n_control=6, n_products=14, seed=33)
    return _prepare(library, match_table, network)


@pytest.fixture(scope="module")
def sec_prepared(library, match_table):
    """The XOR-dominated SEC decoder, where CVS stalls early and Dscale
    demonstrably finds interior candidates."""
    return _prepare(library, match_table, sec_decoder(data_bits=32))


def fresh_state(prepared, library):
    return ScalingState(
        prepared.fresh_copy(),
        library,
        tspec=prepared.tspec,
        activity=prepared.activity,
    )


def test_dscale_at_least_as_good_as_cvs(prepared, library):
    cvs_state = fresh_state(prepared, library)
    run_cvs(cvs_state)
    cvs_power = cvs_state.power().total

    dscale_state = fresh_state(prepared, library)
    run_dscale(dscale_state)
    assert dscale_state.power().total <= cvs_power + 1e-9


def test_dscale_meets_timing_and_legality(prepared, library):
    state = fresh_state(prepared, library)
    run_dscale(state)
    state.validate()  # timing + every low->high edge converted


def test_dscale_demotes_scattered_nodes(prepared, library):
    """Beyond CVS's cluster, Dscale reaches interior slack."""
    state = fresh_state(prepared, library)
    result = run_dscale(state)
    if result.demoted:
        # At least one demoted gate has a high fanout (needs a converter
        # and is therefore outside any CVS cluster).
        converted_drivers = {d for d, _ in state.lc_edges}
        assert converted_drivers <= set(state.low_nodes())


def test_converters_only_on_low_to_high_edges(prepared, library):
    state = fresh_state(prepared, library)
    run_dscale(state)
    for driver, reader in state.lc_edges:
        assert state.is_low(driver)
        if reader != "@output":
            assert not state.is_low(reader)


def test_check_demotion_agrees_with_timing(prepared, library):
    """Applying one approved demotion must keep the circuit legal."""
    state = fresh_state(prepared, library)
    run_cvs(state)
    analysis = state.timing()
    approved = [
        name
        for name in state.network.gates()
        if not state.is_low(name)
        and analysis.slack(name) > 0
        and check_demotion(state, analysis, name)
    ]
    for victim in approved[:10]:
        state.demote(victim)
        assert state.timing().meets_timing(), victim
        state.promote(victim)


def test_candidate_order_pairs_capture_paths(prepared, library):
    state = fresh_state(prepared, library)
    gates = state.network.gates()
    candidates = gates[:: max(1, len(gates) // 12)]
    pairs = candidate_order_pairs(state, candidates)
    fanout_closure = {
        name: state.network.transitive_fanout([name]) for name in candidates
    }
    # Soundness: every reported pair is a real reachability pair.
    for u, v in pairs:
        assert v in fanout_closure[u]
    # Completeness through the reduction: every reachable candidate pair
    # is reachable in the reported pair graph.
    adjacency = {}
    for u, v in pairs:
        adjacency.setdefault(u, set()).add(v)

    def reachable(start):
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for u in candidates:
        closure = fanout_closure[u]
        expected = {v for v in candidates if v != u and v in closure}
        assert reachable(u) == expected


def _order_pairs_oracle(state, candidates):
    """Whole-network reachability + set-based transitive reduction.

    Per candidate, the covers come out in candidate order.
    """
    network = state.network
    below = {}
    for name in candidates:
        cone = network.transitive_fanout([name])
        below[name] = {v for v in candidates if v != name and v in cone}
    pairs = []
    for name in candidates:
        via = set()
        for mid in below[name]:
            via |= below[mid]
        for v in candidates:
            if v in below[name] and v not in via:
                pairs.append((name, v))
    return pairs


ORDER_CIRCUITS = (
    lambda: mixed_datapath(width=8, n_control=6, n_products=14, seed=33),
    lambda: layered_network(width=10, depth=12, seed=5),
    lambda: sec_decoder(data_bits=16),
)


@pytest.fixture(scope="module")
def order_states(library, match_table):
    """Read-only states for the order-pair property tests."""
    return [
        fresh_state(_prepare(library, match_table, make()), library)
        for make in ORDER_CIRCUITS
    ]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_candidate_order_pairs_match_whole_network_oracle(order_states, seed):
    """The reach-table reduction emits exactly the oracle's pairs: the
    same list for topologically ordered candidates (Dscale's case), the
    same set for shuffled ones."""
    rng = random.Random(seed)
    for state in order_states:
        gates = state.network.gates()
        position = state.network.topo_index()
        count = rng.randrange(1, min(len(gates), 24) + 1)
        candidates = sorted(rng.sample(gates, count), key=position.__getitem__)
        pairs = candidate_order_pairs(state, candidates)
        assert pairs == _order_pairs_oracle(state, candidates)
        rng.shuffle(candidates)
        pairs = candidate_order_pairs(state, candidates)
        oracle = _order_pairs_oracle(state, candidates)
        assert sorted(pairs) == sorted(oracle)


def test_reach_is_the_strict_transitive_fanout(order_states):
    for state in order_states:
        network = state.network
        flat = state.flat()
        reach = flat.reach()
        for name, i in flat.pos.items():
            below = {flat.order[j] for j in range(flat.n) if reach[i] >> j & 1}
            assert below == network.transitive_fanout([name]) - {name}


def test_every_round_order_pairs_equal_the_oracle(
    sec_prepared, library, monkeypatch
):
    """On a real Dscale run, every round's pair list is the oracle's."""
    rounds = []
    original = dscale_module.candidate_order_pairs

    def spy(state, candidates):
        pairs = original(state, candidates)
        rounds.append(len(candidates))
        assert pairs == _order_pairs_oracle(state, candidates)
        return pairs

    monkeypatch.setattr(dscale_module, "candidate_order_pairs", spy)
    run_dscale(fresh_state(sec_prepared, library))
    assert len(rounds) > 1 and max(rounds) > 1


def test_each_round_selection_is_antichain(sec_prepared, library, monkeypatch):
    """Spy on the MWIS call: every selected LowSet is path-independent."""
    recorded = []
    original = dscale_module.max_weight_antichain

    def spy(elements, pairs, weights):
        result = original(elements, pairs, weights)
        recorded.append((list(pairs), list(result[0])))
        return result

    monkeypatch.setattr(dscale_module, "max_weight_antichain", spy)
    run_dscale(fresh_state(sec_prepared, library))
    assert recorded, "Dscale never reached MWIS selection"
    for pairs, chosen in recorded:
        assert is_antichain(pairs, chosen)
        assert chosen


def test_round_cap_respected(prepared, library):
    state = fresh_state(prepared, library)
    result = run_dscale(state, max_rounds=1)
    assert result.rounds <= 1
    state.validate()


def test_converter_cleanup_is_sound(prepared, library):
    state = fresh_state(prepared, library)
    result = run_dscale(state)
    # After cleanup no converter feeds a low reader.
    for driver, reader in state.lc_edges:
        if reader != "@output":
            assert not state.is_low(reader)
    assert result.converters_removed >= 0


def test_multirail_po_shifter_demotion_respects_tspec():
    """Regression: a rail>=1 primary-output driver carrying a kept
    rail-0 shifter (lc_at_outputs) must charge that shifter's delay --
    at its post-demotion merged load -- in check_demotion, or Dscale
    approves demotions past tspec and validate() explodes."""
    from repro.core.state import ScalingOptions
    from repro.library.compass import build_compass_library
    from repro.mapping.match import MatchTable

    rails_library = build_compass_library(rails=(5.0, 4.3, 3.6))
    network = mixed_datapath(width=4, n_control=3, n_products=6, seed=0)
    prep = _prepare(rails_library, MatchTable(rails_library), network)
    state = ScalingState(
        prep.network,
        rails_library,
        tspec=1.25 * prep.min_delay,
        activity=prep.activity,
        options=ScalingOptions(lc_at_outputs=True),
    )
    run_dscale(state)  # validates internally; must not raise
    engine = state.timing()
    oracle = state.full_timing()
    assert engine.worst_delay == pytest.approx(oracle.worst_delay, abs=1e-9)
    assert oracle.meets_timing(state.options.timing_tolerance)
