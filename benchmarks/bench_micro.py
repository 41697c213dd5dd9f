"""Micro-benchmarks of the substrates behind the headline tables.

These isolate the costs the paper's complexity section discusses: the
O(n+e) CVS pass and timing sweeps, the flow-based MWIS (Dscale's inner
engine), the max-flow min-cut separator (Gscale's inner engine; both
run on one Dinic kernel levelled from the sink), mapping, and power
estimation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cvs import run_cvs
from repro.core.state import ScalingState
from repro.graphalg.antichain import max_weight_antichain
from repro.graphalg.separator import min_weight_separator
from repro.mapping.mapper import map_network
from repro.opt.script import rugged
from repro.power.activity import random_activities
from repro.power.estimate import estimate_power_calc

CIRCUIT = "C432"


@pytest.fixture(scope="module")
def prepared(prepared_cache):
    return prepared_cache(CIRCUIT)


@pytest.fixture(scope="module")
def state(prepared, library):
    return ScalingState(prepared.network, library,
                        tspec=prepared.tspec, activity=prepared.activity)


def test_sta_full_sweep(benchmark, state):
    # full_timing() rebuilds from scratch on an uncached calculator --
    # state.timing() would just return the already-clean incremental
    # engine and measure nothing.
    analysis = benchmark(lambda: state.full_timing())
    assert analysis.meets_timing()


def test_sta_incremental_update(benchmark, state):
    """One demote/promote cycle repaired by the incremental engine."""
    engine = state.timing()
    engine.refresh()
    victim = next(
        name for name in state.network.gates() if not state.is_low(name)
    )

    def cycle():
        state.demote(victim)
        engine.refresh()
        state.promote(victim)
        return engine.refresh()

    analysis = benchmark(cycle)
    assert analysis.meets_timing()


def test_cvs_single_pass(benchmark, prepared, library):
    def setup():
        fresh = ScalingState(prepared.network, library,
                             tspec=prepared.tspec,
                             activity=prepared.activity)
        return (fresh,), {}

    result = benchmark.pedantic(run_cvs, setup=setup, rounds=5,
                                iterations=1)
    assert result.demoted or result.tcb


def test_activity_extraction(benchmark, prepared):
    activity = benchmark(
        lambda: random_activities(prepared.network, n_vectors=256, seed=7)
    )
    assert activity.n_vectors == 256


def test_power_estimation(benchmark, state):
    power = benchmark(
        lambda: estimate_power_calc(state.calc, state.activity)
    )
    assert power.total > 0


def test_technology_mapping(benchmark, library, match_table):
    from repro.bench.mcnc import load_circuit

    source = rugged(load_circuit(CIRCUIT))
    mapped = benchmark(
        lambda: map_network(source.copy(), library, match_table=match_table)
    )
    assert mapped.gates()


def _random_poset(n, density, seed):
    rng = random.Random(seed)
    elements = list(range(n))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    weights = {e: rng.randint(1, 1000) for e in elements}
    return elements, pairs, weights


@pytest.mark.parametrize("n", [50, 150])
def test_mwis_antichain(benchmark, n):
    elements, pairs, weights = _random_poset(n, 0.08, seed=n)
    chain, weight = benchmark(
        lambda: max_weight_antichain(elements, pairs, weights)
    )
    assert weight > 0


@pytest.mark.parametrize("n", [50, 150])
def test_min_weight_separator(benchmark, n):
    rng = random.Random(n)
    nodes = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [
        (i, min(n - 1, i + rng.randint(2, 5)))
        for i in range(0, n - 3, 2)
    ]
    weights = {v: rng.randint(1, 100) for v in nodes}
    cut, weight = benchmark(
        lambda: min_weight_separator(nodes, edges, weights, [0], [n - 1])
    )
    assert cut and weight > 0
