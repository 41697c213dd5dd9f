"""Vectorized full-build equivalence against the serial oracle.

The flat-core refactor replaces the incremental engine's from-scratch
build (and the power walk, and Dscale's slack-set scan) with
level-by-level sweeps over the shared :class:`FlatNetwork` snapshot.
These tests pin the contract those sweeps carry: **bit identity** with
the serial kernels (``state.full_timing()`` for timing) -- not
approximate equality -- across random mutation histories that exercise
rail overlays, converter-edge fallbacks, and snapshot invalidation by
resize.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath, pla_control
from repro.core.dscale import _slack_set
from repro.core.state import ScalingState
from repro.mapping.match import MatchTable
from repro.netlist.flat import build_flat, flat_of
from repro.power.estimate import estimate_power_calc
from repro.timing.incremental import IncrementalTiming

GENERATORS = {
    "mixed": lambda: mixed_datapath(
        width=5, n_control=4, n_products=8, seed=21
    ),
    "pla": lambda: pla_control(
        n_inputs=10, n_outputs=5, n_products=12, seed=5
    ),
}

RELAXED = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def prepared(request, library):
    flow = Flow(FlowConfig(), library=library, match_table=MatchTable(library))
    return flow.prepare(GENERATORS[request.param]())


def make_state(prepared, library):
    return ScalingState(
        prepared.fresh_copy(),
        library,
        tspec=1.5 * prepared.tspec,
        activity=prepared.activity,
    )


def mutate(rng, state, steps):
    """A random demote / resize / converter-edge history."""
    gates = state.network.gates()
    for _ in range(steps):
        kind = rng.choice(["demote", "promote", "resize", "edge"])
        if kind == "demote":
            high = [g for g in gates if not state.is_low(g)]
            if high:
                state.demote(rng.choice(high))
        elif kind == "promote":
            low = state.low_nodes()
            if low:
                state.promote(rng.choice(low))
        elif kind == "resize":
            name = rng.choice(gates)
            cell = state.network.nodes[name].cell
            state.resize(name, rng.choice(state.library.variants(cell.base)))
        else:
            low = state.low_nodes()
            if low:
                driver = rng.choice(low)
                readers = sorted(state.network.fanouts(driver))
                if readers:
                    state.lc_edges.add((driver, rng.choice(readers)))


def oracle_arrays(state):
    """``state.full_timing()`` laid out like ``levelized_arrays()``."""
    oracle = state.full_timing()
    order = state.network.topological()
    return (
        order,
        [oracle.arrival[name] for name in order],
        [oracle.required[name] for name in order],
        [oracle.load[name] for name in order],
    )


def assert_builds_bit_identical(state):
    """The vectorized full build == the serial oracle build, exactly."""
    engine = IncrementalTiming(state.calc, state.tspec, flat_source=state.flat)
    assert engine.levelized_arrays() == oracle_arrays(state)


class TestFullBuild:
    def test_initial_build_matches_oracle(self, prepared, library):
        assert_builds_bit_identical(make_state(prepared, library))

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_mutated_builds_match_oracle(self, prepared, library, seed):
        state = make_state(prepared, library)
        mutate(random.Random(seed), state, steps=10)
        assert_builds_bit_identical(state)

    def test_converter_fallback_paths_match_oracle(self, prepared, library):
        # Force converters onto every low driver's fanout: lc drivers
        # take the loads+required fallback kernels, their readers the
        # arrival fallback, and the rest stays vectorized.
        state = make_state(prepared, library)
        rng = random.Random(7)
        for gate in state.network.gates():
            if rng.random() < 0.5:
                state.demote(gate)
        for driver in state.low_nodes():
            for reader in sorted(state.network.fanouts(driver)):
                if not state.is_low(reader):
                    state.lc_edges.add((driver, reader))
        assert state.lc_edges, "scenario must exercise the lc fallback"
        assert_builds_bit_identical(state)

    def test_invalidate_rebuild_matches_oracle(self, prepared, library):
        # A full_invalidate() on a live engine must rebuild through the
        # same vectorized path and land on the oracle again.
        state = make_state(prepared, library)
        mutate(random.Random(3), state, steps=6)
        engine = state.timing()
        mutate(random.Random(4), state, steps=6)
        engine.full_invalidate()
        assert engine.levelized_arrays() == oracle_arrays(state)


class TestSnapshotCache:
    def test_snapshot_cached_until_resize(self, prepared, library):
        state = make_state(prepared, library)
        first = state.flat()
        state.demote(state.network.gates()[0])  # rails are overlays
        assert state.flat() is first
        name = state.network.gates()[1]
        cell = state.network.nodes[name].cell
        state.resize(name, state.library.variants(cell.base)[-1])
        rebuilt = state.flat()
        assert rebuilt is not first
        assert rebuilt.version == state.cells_version

    def test_flat_of_matches_direct_build(self, prepared, library):
        state = make_state(prepared, library)
        flat = flat_of(state)
        direct = build_flat(state.network, state.calc, activity=state.activity)
        assert flat.order is state.network.topological()
        assert np.array_equal(flat.drive, direct.drive)
        assert np.array_equal(flat.energy, direct.energy)
        assert np.array_equal(flat.fi_ptr, direct.fi_ptr)


class TestFlatPower:
    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_flat_power_equals_serial(self, prepared, library, seed):
        state = make_state(prepared, library)
        mutate(random.Random(seed), state, steps=8)
        serial = estimate_power_calc(
            state.calc,
            state.activity,
            clock_mhz=state.options.clock_mhz,
            include_input_nets=state.options.include_input_nets,
        )
        flat = state.power()
        assert flat.total == serial.total
        assert flat.switching == serial.switching
        assert flat.internal == serial.internal
        assert flat.converter == serial.converter
        assert dict(flat.per_node) == dict(serial.per_node)


class TestFlatSlackSet:
    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_slack_set_matches_serial_filter(self, prepared, library, seed):
        state = make_state(prepared, library)
        mutate(random.Random(seed), state, steps=6)
        analysis = state.timing()
        lowest = state.n_rails - 1
        tolerance = state.options.timing_tolerance
        expected = [
            g
            for g in state.network.gates()
            if state.rail_of(g) < lowest and analysis.slack(g) > tolerance
        ]
        assert _slack_set(state, analysis, lowest) == expected
