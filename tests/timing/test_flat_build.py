"""Vectorized full-build equivalence against the serial oracle.

The flat-core refactor replaces the incremental engine's from-scratch
build (and the power walk, and Dscale's slack-set scan) with
level-by-level sweeps over the shared :class:`FlatNetwork` snapshot.
These tests pin the contract those sweeps carry: **bit identity** with
the serial kernels (``state.full_timing()`` for timing) -- not
approximate equality -- across random mutation histories that exercise
rail overlays, level-shifter edges, and snapshots patched in
place by resize (rolled-back resizes included).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath, pla_control
from repro.core.dscale import _slack_mask
from repro.core.moves import DemoteMove, MoveEngine, PromoteMove, ResizeMove
from repro.core.state import ScalingOptions, ScalingState
from repro.mapping.match import MatchTable
from flat_planes import assert_planes_equal
from repro.netlist.flat import build_flat
from repro.power.estimate import estimate_power_calc
from repro.timing.delay import OUTPUT, DelayCalculator
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


THREE_RAILS = (1.8, 1.0, 0.6)


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def prepared(request, library):
    flow = Flow(FlowConfig(), library=library, match_table=MatchTable(library))
    return flow.prepare(GENERATORS[request.param]())


@pytest.fixture(scope="module")
def three_rail():
    """A prepared circuit and its 1.8 / 1.0 / 0.6 V library."""
    flow = Flow(FlowConfig(rails=THREE_RAILS))
    return flow.prepare(GENERATORS["mixed"]()), flow.library


def make_state(prepared, library, options=None):
    return ScalingState(
        prepared.network,
        library,
        tspec=1.5 * prepared.tspec,
        activity=prepared.activity,
        options=options,
    )


def random_resize(rng, state):
    """A ResizeMove of a random gate to another size of its base."""
    name = rng.choice(state.network.gates())
    cell = state.cell(name)
    sizes = state.library.variants(cell.base)
    others = [size for size in sizes if size.name != cell.name]
    return ResizeMove(name, rng.choice(others or sizes))


def mutate(rng, state, steps):
    """A random demote / resize / converter-edge history."""
    gates = state.network.gates()
    lowest = state.n_rails - 1
    for _ in range(steps):
        kind = rng.choice(["demote", "promote", "resize", "edge"])
        if kind == "demote":
            high = [g for g in gates if state.rail_of(g) < lowest]
            if high:
                state.demote(rng.choice(high))
        elif kind == "promote":
            low = state.low_nodes()
            if low:
                state.promote(rng.choice(low))
        elif kind == "resize":
            random_resize(rng, state).apply(state)
        else:
            low = state.low_nodes()
            if low:
                driver = rng.choice(low)
                readers = sorted(state.network.fanouts(driver))
                if readers:
                    state.add_converter((driver, rng.choice(readers)))


def transact(rng, state, steps):
    """Random moves through ``MoveEngine.try_move``, half forced back.

    A negative worst-delay cap makes the timing check fail, so the
    move is applied, undone and its timing journal rolled back.
    """
    engine = MoveEngine(state)
    lowest = state.n_rails - 1
    for _ in range(steps):
        kind = rng.choice(["demote", "promote", "resize"])
        if kind == "demote":
            gates = state.network.gates()
            high = [g for g in gates if state.rail_of(g) < lowest]
            if not high:
                continue
            move = DemoteMove(rng.choice(high))
        elif kind == "promote":
            low = state.low_nodes()
            if not low:
                continue
            move = PromoteMove(rng.choice(low))
        else:
            move = random_resize(rng, state)
        if rng.random() < 0.5:
            assert not engine.try_move(move, worst_delay_cap=-1.0)
        else:
            engine.try_move(move)


def history(rng, state, steps):
    """Direct mutations interleaved with committed and rolled-back moves."""
    for _ in range(steps):
        mutate(rng, state, 2)
        transact(rng, state, 2)


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
    engine = IncrementalTiming(state.calc, state.tspec, flat=state.flat())
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
        # Force converters onto every low driver's fanout: the sweep
        # prices each converter edge's shifter delay on its arrival and
        # required rows, and its drivers take their loads from calc.load.
        state = make_state(prepared, library)
        rng = random.Random(7)
        for gate in state.network.gates():
            if rng.random() < 0.5:
                state.demote(gate)
        for driver in state.low_nodes():
            for reader in sorted(state.network.fanouts(driver)):
                if not state.is_low(reader):
                    state.add_converter((driver, reader))
        assert state.lc_edges, "scenario must exercise converter edges"
        assert_builds_bit_identical(state)


def oracle_calc(state):
    """An uncached calculator over the state's live tables."""
    return DelayCalculator(
        state.network,
        state.library,
        levels=state.levels,
        lc_edges=state.lc_edges,
        cells=state.cells,
        lc_kind=state.options.lc_kind,
        po_load=state.options.po_load,
    )


class TestSnapshotCache:
    def test_snapshot_survives_resize(self, prepared, library):
        state = make_state(prepared, library)
        first = state.flat()
        state.demote(state.network.gates()[0])  # rails are overlays
        assert state.flat() is first
        name = state.network.gates()[1]
        cell = state.cell(name)
        state.resize(name, state.library.variants(cell.base)[-1])
        # The library's sizes share pin intrinsics; a size with its own
        # makes the fi_intr / rp_intr patch observable.
        cell = state.cell(name)
        slow = dataclasses.replace(
            cell,
            name=f"{cell.name}_slow",
            intrinsics=tuple(t + 0.25 for t in cell.intrinsics),
        )
        state.resize(name, slow)
        assert state.flat() is first
        fresh = build_flat(state.network, state.calc)
        assert_planes_equal(first, fresh)

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_patched_snapshot_equals_fresh_build(
        self, prepared, library, seed
    ):
        state = make_state(prepared, library)
        first = state.flat()
        engine = MoveEngine(state)
        rng = random.Random(seed)
        for _ in range(4):
            history(rng, state, 2)
            move = random_resize(rng, state)
            assert not engine.try_move(move, worst_delay_cap=-1.0)
            assert state.flat() is first
            fresh = build_flat(state.network, state.calc)
            assert_planes_equal(first, fresh)

    def test_flat_of_matches_direct_build(self, prepared, library):
        state = make_state(prepared, library)
        flat = state.flat()
        direct = build_flat(state.network, state.calc)
        assert flat.order is state.network.topological()
        assert np.array_equal(flat.drive, direct.drive)
        assert np.array_equal(flat.energy, direct.energy)
        assert np.array_equal(flat.fi_ptr, direct.fi_ptr)


def assert_power_bit_exact(state):
    """``state.power()`` == the serial walk on an uncached calculator."""
    serial = estimate_power_calc(
        oracle_calc(state),
        state.activity,
        clock_mhz=state.options.clock_mhz,
        include_input_nets=state.options.include_input_nets,
    )
    fast = state.power()
    assert fast.total == serial.total
    assert fast.switching == serial.switching
    assert fast.internal == serial.internal
    assert fast.converter == serial.converter
    assert list(fast.per_node.items()) == list(serial.per_node.items())
    return fast


def add_output_edges(rng, state):
    """Converters on some low primary outputs, ``(name, OUTPUT)``."""
    for name in state.network.outputs:
        if state.is_low(name) and rng.random() < 0.5:
            state.add_converter((name, OUTPUT))


def add_stale_edges(state):
    """Demote converted readers onto their driver's rail.

    The converter edge stays behind (stale) until a cleanup pass, so
    its shifter is priced toward the next rail up.
    """
    stale = 0
    for driver, reader in sorted(state.lc_edges):
        if reader == OUTPUT:
            continue
        target = state.rail_of(driver)
        if state.rail_of(reader) < target:
            state.demote(reader, target=target)
        stale += (driver, reader) in state.lc_edges
    return stale


class TestFlatPower:
    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_flat_power_equals_serial(self, prepared, library, seed):
        state = make_state(prepared, library)
        mutate(random.Random(seed), state, steps=8)
        assert_power_bit_exact(state)

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_three_rails(self, three_rail, seed):
        state = make_state(*three_rail)
        assert state.n_rails == 3
        history(random.Random(seed), state, 4)
        assert_power_bit_exact(state)

    @pytest.mark.parametrize("include", [False, True])
    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_input_nets(self, prepared, library, include, seed):
        options = ScalingOptions(include_input_nets=include)
        state = make_state(prepared, library, options)
        rng = random.Random(seed)
        mutate(rng, state, steps=8)
        # Converters on input nets: no legal state has them, but the
        # serial walk prices them only when input nets are included.
        inputs = state.network.inputs
        for name in inputs:
            readers = sorted(state.network.fanouts(name))
            if readers:
                state.add_converter((name, rng.choice(readers)))
        power = assert_power_bit_exact(state)
        assert any(power.per_node[name] for name in inputs) == include

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_output_converters(self, prepared, library, seed):
        options = ScalingOptions(lc_at_outputs=True)
        state = make_state(prepared, library, options)
        rng = random.Random(seed)
        mutate(rng, state, steps=8)
        nodes = state.network.nodes
        outputs = [o for o in state.network.outputs if not nodes[o].is_input]
        for k, name in enumerate(outputs):
            if not state.is_low(name) and (k == 0 or rng.random() < 0.5):
                state.demote(name)
        add_output_edges(rng, state)
        assert any(reader == OUTPUT for _, reader in state.lc_edges)
        power = assert_power_bit_exact(state)
        assert power.converter > 0.0

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_stale_converters(self, three_rail, seed):
        state = make_state(*three_rail)
        rng = random.Random(seed)
        for gate in state.network.gates():
            if rng.random() < 0.3:
                state.demote(gate)
        assert add_stale_edges(state), "scenario needs a stale edge"
        add_output_edges(rng, state)
        assert_power_bit_exact(state)


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
        mask = _slack_mask(state, analysis, lowest)
        order = state.flat().order
        assert [order[i] for i in np.flatnonzero(mask)] == expected


def reference_profile(state, driver):
    """Converter output loads of ``driver``, summed in fanout order."""
    network = state.network
    converted = [
        reader
        for reader in network.fanouts(driver)
        if (driver, reader) in state.lc_edges
    ]
    if driver in network.outputs and (driver, OUTPUT) in state.lc_edges:
        converted.append(OUTPUT)
    profile = {}
    for reader in converted:
        if reader == OUTPUT:
            rail, cap = 0, state.options.po_load
        else:
            rail = min(state.rail_of(reader), state.rail_of(driver) - 1)
            node = network.nodes[reader]
            cap = sum(
                state.cell(reader).input_caps[pin]
                for pin, fanin in enumerate(node.fanins)
                if fanin == driver
            )
        rail = max(rail, 0)
        profile[rail] = profile.get(rail, 0.0) + cap
    return profile


def assert_profiles_track_history(state, seed):
    """Cached profiles == uncached == the reference, after each step."""
    state.timing()
    oracle = oracle_calc(state)
    rng = random.Random(seed)
    names = state.network.topological()
    for _ in range(5):
        # Warm every profile first, so a missed invalidation by the
        # next mutations would surface as a stale cached entry.
        for name in names:
            state.calc.converter_loads(name)
        history(rng, state, 1)
        add_stale_edges(state)
        for name in names:
            cached = state.calc.converter_loads(name)
            want = reference_profile(state, name)
            assert list(cached.items()) == list(want.items())
            assert cached == oracle.converter_loads(name)


class TestConverterProfiles:
    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_two_rails(self, prepared, library, seed):
        assert_profiles_track_history(make_state(prepared, library), seed)

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_three_rails(self, three_rail, seed):
        assert_profiles_track_history(make_state(*three_rail), seed)


def reference_groups(calc, name):
    """Converted readers of ``name`` grouped by ``converter_rail``.

    The grouping the calculator once derived separately for net loads,
    shifter delays, area and power: fanout order, then the primary
    output, each reader under its shifter's destination rail.
    """
    network = calc.network
    readers = [r for r in network.fanouts(name) if (name, r) in calc.lc_edges]
    if name in network.outputs and (name, OUTPUT) in calc.lc_edges:
        readers.append(OUTPUT)
    groups = {}
    for reader in readers:
        rail = calc.converter_rail(name, reader)
        groups.setdefault(rail, []).append(reader)
    return groups


def reference_group_load(calc, name, rail):
    """Output load of ``name``'s rail-``rail`` shifter, from its group."""
    load = 0.0
    for reader in reference_groups(calc, name).get(rail, ()):
        if reader == OUTPUT:
            load += calc.po_load
        else:
            load += calc.reader_pin_cap(name, reader)
    return load


def reference_load(calc, name):
    """Direct pins, then one shifter input pin per group, plus wire."""
    network = calc.network
    total = 0.0
    connections = 0
    for reader in network.fanouts(name):
        if (name, reader) not in calc.lc_edges:
            connections += 1
            total += calc.reader_pin_cap(name, reader)
    if name in network.outputs and (name, OUTPUT) not in calc.lc_edges:
        connections += 1
        total += calc.po_load
    for rail in reference_groups(calc, name):
        connections += 1
        total += calc.lc_cell_for(rail).input_caps[0]
    cell = calc.cell(name)
    if cell is None or not cell.is_level_converter:
        total += calc.library.wire_model.cap(connections)
    return total


def reference_area(calc):
    """Cell area plus one shifter per distinct (driver, rail) group."""
    area = sum(
        calc.cell(name).area
        for name, node in calc.network.nodes.items()
        if node.cell is not None
    )
    counts = {}
    for driver in {driver for driver, _ in calc.lc_edges}:
        for rail in reference_groups(calc, driver):
            counts[rail] = counts.get(rail, 0) + 1
    for rail in sorted(counts):
        area += calc.lc_cell_for(rail).area * counts[rail]
    return area


def reference_power(state, calc):
    """The serial eq. (1) walk with shifters priced per group."""
    clock = state.options.clock_mhz
    rails = state.library.rails
    uw = 1e-3
    switching = internal = converter = 0.0
    per_node = {}
    for name in state.network.topological():
        node = state.network.nodes[name]
        if node.is_input:
            per_node[name] = 0.0
            continue
        a01 = state.activity.rate01(name)
        variant = calc.variant(name)
        vdd = variant.vdd
        load = reference_load(calc, name)
        node_switch = a01 * clock * load * vdd * vdd * uw
        node_internal = a01 * clock * variant.internal_energy * uw
        switching += node_switch
        internal += node_internal
        lc_power = 0.0
        for rail in reference_groups(calc, name):
            lc_vdd = rails[rail]
            out_load = reference_group_load(calc, name, rail)
            out_energy = out_load * lc_vdd * lc_vdd
            energy = calc.lc_cell_for(rail).internal_energy + out_energy
            lc_power += a01 * clock * energy * uw
        converter += lc_power
        per_node[name] = node_switch + node_internal + lc_power
    return switching, internal, converter, per_node


def assert_grouping_matches_reference(state, calc):
    """Loads, shifter delays, area and serial power == the reference."""
    for name in state.network.topological():
        assert calc.load(name) == reference_load(calc, name)
    for driver, reader in state.lc_edges:
        rail = calc.converter_rail(driver, reader)
        load = reference_group_load(calc, driver, rail)
        want = calc.lc_cell_for(rail).pin_delay(0, load)
        assert calc.lc_delay(driver, reader) == want
    assert calc.total_area() == reference_area(calc)
    power = estimate_power_calc(calc, state.activity)
    switching, internal, converter, per_node = reference_power(state, calc)
    assert power.switching == switching
    assert power.internal == internal
    assert power.converter == converter
    assert power.total == switching + internal + converter
    assert list(power.per_node.items()) == list(per_node.items())


class TestShifterGroupingOracle:
    """Every consumer of the converter profile == a test-local grouping.

    Random three-rail states carry primary-output shifters and stale
    edges (a reader at or below its driver's rail, priced toward the
    next rail up), on the state's cached calculator and on an uncached
    one.
    """

    @given(seed=st.integers(0, 2**16))
    @RELAXED
    def test_three_rails(self, three_rail, seed):
        state = make_state(*three_rail)
        rng = random.Random(seed)
        state.timing()
        for _ in range(3):
            # Warm the cached calculator, so a missed invalidation by
            # the next mutations would surface as a stale entry.
            assert_grouping_matches_reference(state, state.calc)
            history(rng, state, 1)
            for gate in state.network.gates():
                if not state.is_low(gate) and rng.random() < 0.2:
                    state.demote(gate)
            add_stale_edges(state)
            add_output_edges(rng, state)
            assert_grouping_matches_reference(state, state.calc)
            assert_grouping_matches_reference(state, oracle_calc(state))
        assert any(reader == OUTPUT for _, reader in state.lc_edges)
        stale = [
            (d, r)
            for d, r in state.lc_edges
            if r != OUTPUT and state.rail_of(r) >= state.rail_of(d)
        ]
        assert stale, "scenario needs a stale edge"
