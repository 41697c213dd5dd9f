"""ScalingState bookkeeping, legality and single-writer tests."""

import pytest

from repro.core.state import ScalingOptions, ScalingState
from repro.timing.delay import OUTPUT


def make_state(mapped, library, slack=1.5):
    from repro.timing.delay import DelayCalculator
    from repro.timing.sta import TimingAnalysis

    dmin = TimingAnalysis(DelayCalculator(mapped, library), 0.0).worst_delay
    return ScalingState(mapped, library, tspec=slack * dmin)


def assert_engine_equals_oracle(state):
    engine = state.timing()
    oracle = state.full_timing()
    for name in state.network.nodes:
        assert engine.load[name] == oracle.load[name], name
        assert engine.arrival[name] == oracle.arrival[name], name
        assert engine.required[name] == oracle.required[name], name
    assert engine.worst_delay == oracle.worst_delay


def test_requires_enriched_library(mapped_adder):
    from repro.library.compass import build_compass_library

    single = build_compass_library(vdd_low=None)
    with pytest.raises(ValueError, match="enriched"):
        ScalingState(mapped_adder, single, tspec=100.0)


def test_counts_start_at_zero(mapped_adder, library):
    state = make_state(mapped_adder, library)
    assert state.n_low == 0
    assert state.low_ratio == 0.0
    assert state.area_increase_ratio == 0.0
    assert state.n_resized == 0


def test_demote_marks_level_and_converters(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = next(
        n
        for n in mapped_adder.gates()
        if mapped_adder.fanouts(n) and n not in mapped_adder.outputs
    )
    edges = state.demote(victim)
    assert state.is_low(victim)
    assert set(edges) == {(victim, r) for r in mapped_adder.fanouts(victim)}
    assert state.n_low == 1


def test_demote_guards(mapped_adder, library):
    state = make_state(mapped_adder, library)
    with pytest.raises(ValueError):
        state.demote(mapped_adder.inputs[0])
    victim = mapped_adder.gates()[0]
    state.demote(victim)
    with pytest.raises(ValueError):
        state.demote(victim)


def test_promote_rolls_back(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = mapped_adder.gates()[0]
    state.demote(victim)
    state.promote(victim)
    assert not state.is_low(victim)
    assert not any(d == victim for d, _ in state.lc_edges)
    with pytest.raises(ValueError):
        state.promote(victim)


def test_no_converter_toward_low_reader(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = next(
        n
        for n in mapped_adder.gates()
        if mapped_adder.fanouts(n) and n not in mapped_adder.outputs
    )
    for reader in mapped_adder.fanouts(victim):
        state.set_rail(reader, True)
    assert state.demote(victim) == []


def test_output_converter_policy(mapped_adder, library):
    out = next(
        o
        for o in mapped_adder.outputs
        if not mapped_adder.nodes[o].is_input and not mapped_adder.fanouts(o)
    )
    state = make_state(mapped_adder, library)
    assert (out, OUTPUT) not in state.demote(out)

    fresh = mapped_adder.copy()
    state2 = ScalingState(
        fresh,
        library,
        tspec=state.tspec,
        options=ScalingOptions(lc_at_outputs=True),
    )
    assert (out, OUTPUT) in state2.demote(out)


def test_resize_same_base_only(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = mapped_adder.gates()[0]
    cell = mapped_adder.nodes[victim].cell
    other_base = next(
        c for c in library.combinational_cells() if c.base != cell.base
    )
    with pytest.raises(ValueError, match="base"):
        state.resize(victim, other_base)


def test_resize_round_trip_not_counted(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = mapped_adder.gates()[0]
    original = mapped_adder.nodes[victim].cell
    other = next(
        c for c in library.variants(original.base) if c.size != original.size
    )
    state.resize(victim, other)
    assert state.n_resized == 1
    state.resize(victim, original)
    assert state.n_resized == 0


def test_validate_catches_unconverted_crossing(mapped_adder, library):
    state = make_state(mapped_adder, library)
    victim = next(n for n in mapped_adder.gates() if mapped_adder.fanouts(n))
    state.set_rail(victim, True)  # bypass demote() on purpose
    with pytest.raises(AssertionError, match="unconverted"):
        state.validate()


def test_validate_catches_converter_on_high_driver(mapped_adder, library):
    state = make_state(mapped_adder, library)
    name = mapped_adder.gates()[0]
    reader = next(iter(mapped_adder.fanouts(name)), OUTPUT)
    state.add_converter((name, reader))
    with pytest.raises(AssertionError, match="high driver"):
        state.validate()


def test_validate_catches_timing_violation(mapped_adder, library):
    from repro.timing.delay import DelayCalculator
    from repro.timing.sta import TimingAnalysis

    dmin = TimingAnalysis(
        DelayCalculator(mapped_adder, library), 0.0
    ).worst_delay
    state = ScalingState(mapped_adder, library, tspec=0.5 * dmin)
    with pytest.raises(AssertionError, match="timing"):
        state.validate()


def test_power_and_area_reporting(mapped_adder, library):
    state = make_state(mapped_adder, library)
    power = state.power()
    assert power.total > 0
    assert state.area() == pytest.approx(state.initial_area)


def test_converter_index_tracks_edges(mapped_adder, library):
    """converter_readers stays in sync through every writer."""
    state = make_state(mapped_adder, library)
    victim = next(
        n
        for n in mapped_adder.gates()
        if mapped_adder.fanouts(n) and n not in mapped_adder.outputs
    )
    state.demote(victim)
    assert set(state.converter_readers(victim)) == {
        r for d, r in state.lc_edges if d == victim
    }
    # The edge writers keep it consistent too.
    extra = next(iter(mapped_adder.fanouts(victim)))
    state.drop_converter((victim, extra))
    assert extra not in state.converter_readers(victim)
    state.add_converter((victim, extra))
    assert extra in state.converter_readers(victim)
    state.promote(victim)
    assert state.converter_readers(victim) == ()
    assert not state.lc_edges


def test_sizing_area_delta_matches_full_rescan(mapped_adder, library):
    """The memoized delta always equals the from-scratch dict scan."""
    state = make_state(mapped_adder, library)

    def rescan():
        total = 0.0
        for name, new in state.cells.items():
            old = mapped_adder.nodes[name].cell
            if old.name != new.name:
                total += new.area - old.area
        return total

    assert state.sizing_area_delta == rescan() == 0.0
    rng_gates = mapped_adder.gates()[:4]
    for name in rng_gates:
        cell = mapped_adder.nodes[name].cell
        other = next(
            (c for c in library.variants(cell.base) if c.size != cell.size),
            None,
        )
        if other is not None:
            state.resize(name, other)
            assert state.sizing_area_delta == rescan()
    # Round-tripping back to the original cells zeroes the delta.
    for name in rng_gates:
        state.resize(name, mapped_adder.nodes[name].cell)
    assert state.sizing_area_delta == pytest.approx(0.0)


def test_set_rail_invalidates_timing(mapped_adder, library):
    """set_rail writes reach the engine without demote()/promote()."""
    state = make_state(mapped_adder, library)
    victim = mapped_adder.gates()[-1]
    before = state.timing().arrival[victim]
    state.set_rail(victim, True)
    after = state.timing().arrival[victim]
    assert after > before
    oracle = state.full_timing()
    assert after == pytest.approx(oracle.arrival[victim], abs=1e-9)
    state.set_rail(victim, False)
    assert state.timing().arrival[victim] == pytest.approx(before, abs=1e-9)


def test_views_reject_writes(mapped_adder, library):
    """levels and lc_edges are read-only views: no write skips the
    invalidation."""
    state = make_state(mapped_adder, library)
    name = mapped_adder.gates()[0]
    reader = next(iter(mapped_adder.fanouts(name)), OUTPUT)
    with pytest.raises(TypeError):
        state.levels[name] = 1
    with pytest.raises(AttributeError):
        state.lc_edges.add((name, reader))
    assert not state.levels
    assert not state.lc_edges
    # The views are live: writer updates show through them.
    edges = state.demote(name)
    assert dict(state.levels) == {name: 1}
    assert set(state.lc_edges) == set(edges)


def test_levels_hold_exactly_the_demoted_gates(mapped_adder, library):
    state = make_state(mapped_adder, library)
    name = mapped_adder.gates()[0]
    state.set_rail(name, 1)
    assert dict(state.levels) == {name: 1}
    assert state.low_nodes() == [name]
    state.set_rail(name, 0)
    assert name not in state.levels
    assert state.n_low == 0
    assert state.low_nodes() == []


def test_noop_write_keeps_assignment_version(mapped_adder, library):
    state = make_state(mapped_adder, library)
    name = mapped_adder.gates()[0]
    edge = (name, next(iter(mapped_adder.fanouts(name)), OUTPUT))
    version = state.assignment_version
    state.set_rail(name, 0)
    state.drop_converter(edge)
    assert state.assignment_version == version
    state.set_rail(name, 1)
    state.add_converter(edge)
    assert state.assignment_version == version + 2
    version = state.assignment_version
    state.set_rail(name, True)
    state.add_converter(edge)
    assert state.assignment_version == version
    state.set_rail(name, 0)
    state.drop_converter(edge)
    assert state.assignment_version == version + 2


def test_gscale_fallback_restores_the_cvs_assignment(library, match_table):
    """On my_adder, Gscale's sizing loses to plain CVS and its no-harm
    fallback restores the post-CVS snapshot through the writers."""
    from repro.api import Flow, FlowConfig
    from repro.core.cvs import run_cvs
    from repro.core.gscale import run_gscale

    prepared = Flow(
        FlowConfig(circuit="my_adder"),
        library=library,
        match_table=match_table,
    ).prepare()

    def fresh_state():
        return ScalingState(
            prepared.network,
            library,
            tspec=prepared.tspec,
            activity=prepared.activity,
        )

    snapshot = fresh_state()
    run_cvs(snapshot)
    state = fresh_state()
    result = run_gscale(state)
    # The fallback fired: resizes were committed, then all undone.
    assert state.move_stats.count("resize") > 0
    assert result.resized == []
    assert state.n_resized == 0
    assert dict(state.levels) == dict(snapshot.levels)
    assert set(state.lc_edges) == set(snapshot.lc_edges)
    assert_engine_equals_oracle(state)
