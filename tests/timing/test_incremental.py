"""Incremental-engine equivalence tests against the full-STA oracle.

Property-style: random generated networks x random demote / resize /
promote / converter-edge sequences, asserting after every step that the
incremental engine's arrival / required / load / slack / worst_delay
agree with a rebuild-from-scratch :class:`TimingAnalysis` on an
uncached calculator to 1e-9 (they are bit-identical in practice, since
the engine recomputes with the same kernels).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import (
    mixed_datapath,
    pla_control,
    ripple_adder,
    sec_decoder,
)
from repro.core.moves import (
    DemoteMove,
    DropConverterMove,
    ResizeMove,
    RetargetShifterMove,
)
from repro.core.state import ScalingOptions, ScalingState
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.timing.delay import DelayCalculator, OUTPUT
from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import TimingAnalysis

GENERATORS = {
    "adder": lambda: ripple_adder(width=6),
    "mixed": lambda: mixed_datapath(width=6, n_control=4, n_products=10,
                                    seed=11),
    "pla": lambda: pla_control(n_inputs=12, n_outputs=6, n_products=14,
                               seed=4),
    "sec": lambda: sec_decoder(data_bits=8),
}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def scaling_state(request, library):
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(GENERATORS[request.param]())
    return ScalingState(prepared.network, library, tspec=2.0 * prepared.tspec,
                        activity=prepared.activity)


def assert_equivalent(state, tolerance=1e-9):
    """Engine values must match a fresh full analysis on every query."""
    engine = state.timing()
    oracle = state.full_timing()
    assert isinstance(engine, IncrementalTiming)
    for name in state.network.nodes:
        assert engine.load[name] == pytest.approx(
            oracle.load[name], abs=tolerance), name
        assert engine.arrival[name] == pytest.approx(
            oracle.arrival[name], abs=tolerance), name
        assert engine.required[name] == pytest.approx(
            oracle.required[name], abs=tolerance), name
        assert engine.slack(name) == pytest.approx(
            oracle.slack(name), abs=tolerance), name
    assert engine.worst_delay == pytest.approx(oracle.worst_delay,
                                               abs=tolerance)
    assert engine.worst_slack == pytest.approx(oracle.worst_slack,
                                               abs=tolerance)
    assert engine.meets_timing() == oracle.meets_timing()


def random_move(rng, state):
    """Apply one random legal-ish mutation; returns a description."""
    gates = state.network.gates()
    kind = rng.choice(["demote", "promote", "resize", "edge", "direct"])
    if kind == "demote":
        high = [g for g in gates if not state.is_low(g)]
        if not high:
            return "noop"
        state.demote(rng.choice(high))
    elif kind == "promote":
        low = state.low_nodes()
        if not low:
            return "noop"
        state.promote(rng.choice(low))
    elif kind == "resize":
        name = rng.choice(gates)
        cell = state.cell(name)
        variants = state.library.variants(cell.base)
        state.resize(name, rng.choice(variants))
    elif kind == "edge":
        # Toggle a converter on a random low->high edge (or drop one).
        if state.lc_edges and rng.random() < 0.5:
            state.drop_converter(rng.choice(sorted(state.lc_edges)))
        else:
            low = state.low_nodes()
            if not low:
                return "noop"
            driver = rng.choice(low)
            readers = sorted(state.network.fanouts(driver))
            if not readers:
                return "noop"
            state.add_converter((driver, rng.choice(readers)))
    else:
        # Direct rail writes must invalidate through set_rail.
        name = rng.choice(gates)
        state.set_rail(name, not state.is_low(name))
    return kind


def test_initial_state_matches_oracle(scaling_state):
    assert_equivalent(scaling_state)


def test_random_move_sequences_match_oracle(scaling_state):
    rng = random.Random(1999)
    for step in range(60):
        random_move(rng, scaling_state)
        assert_equivalent(scaling_state)


def test_interleaved_queries_and_batches(scaling_state):
    """Batched mutations between queries converge to the same answer."""
    rng = random.Random(7)
    for _ in range(10):
        for _ in range(rng.randint(1, 6)):
            random_move(rng, scaling_state)
        assert_equivalent(scaling_state)


def _resizable_gate(state):
    for name in state.network.gates():
        bigger = state.library.next_size_up(state.cell(name))
        if bigger is not None:
            return name, bigger
    return None, None


def test_transaction_commit_matches_oracle(scaling_state):
    state = scaling_state
    name, bigger = _resizable_gate(state)
    if name is None:
        pytest.skip("no larger variant to try")
    cell = state.cell(name)
    state.begin_move()
    state.resize(name, bigger)
    state.timing().refresh()
    state.commit_move()
    assert_equivalent(state)
    state.resize(name, cell)  # leave the fixture as we found it
    assert_equivalent(state)


def test_transaction_rollback_restores_exact_values(scaling_state):
    state = scaling_state
    engine = state.timing()
    before_arrival = dict(engine.arrival.items())
    before_required = dict(engine.required.items())
    before_load = dict(engine.load.items())

    name, bigger = _resizable_gate(state)
    if name is None:
        pytest.skip("no larger variant to try")
    cell = state.cell(name)

    state.begin_move()
    state.resize(name, bigger)
    assert state.timing().worst_delay >= 0  # force a refresh inside
    state.resize(name, cell)
    state.rollback_move()

    after = state.timing()
    assert dict(after.arrival.items()) == before_arrival
    assert dict(after.required.items()) == before_required
    assert dict(after.load.items()) == before_load
    assert_equivalent(state)


def test_rejected_demotion_rolls_back_cleanly(scaling_state):
    state = scaling_state
    high = [g for g in state.network.gates() if not state.is_low(g)]
    if not high:
        pytest.skip("every gate already low")
    victim = high[0]
    state.begin_move()
    state.demote(victim)
    state.timing().refresh()
    state.promote(victim)
    state.rollback_move()
    assert_equivalent(state)


def test_engine_matches_after_full_scaling_run(library):
    """End-to-end: after run_dscale the engine still equals the oracle."""
    from repro.core.dscale import run_dscale

    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(mixed_datapath(width=6, n_control=4, n_products=10, seed=23))
    state = ScalingState(prepared.network, library, tspec=prepared.tspec,
                         activity=prepared.activity)
    run_dscale(state)
    assert_equivalent(state)


LOOP_CIRCUITS = {
    "mixed": lambda: mixed_datapath(width=6, n_control=4, n_products=10,
                                    seed=31),
    "pla": lambda: pla_control(n_inputs=12, n_outputs=6, n_products=14,
                               seed=5),
}


def assert_engine_is_oracle(state):
    """The engine's levelized arrays and worst delay equal a full
    rebuild *bitwise* (``==``, no tolerance)."""
    engine = state.timing()
    order, arrival, required, load = engine.levelized_arrays()
    oracle = state.full_timing()
    assert arrival == [oracle.arrival[name] for name in order]
    assert required == [oracle.required[name] for name in order]
    assert load == [oracle.load[name] for name in order]
    assert engine.worst_delay == oracle.worst_delay


@pytest.mark.parametrize("circuit", sorted(LOOP_CIRCUITS))
@pytest.mark.parametrize("rails", [(5.0, 4.3), (5.0, 4.3, 3.6)],
                         ids=["2rails", "3rails"])
def test_engine_equals_oracle_after_every_move(monkeypatch, rails, circuit):
    """Oracle in the loop: after every applied, committed or rolled-back
    move of CVS, Dscale and Gscale the engine equals a full rebuild."""
    from repro.core.cvs import run_cvs
    from repro.core.dscale import run_dscale
    from repro.core.gscale import run_gscale
    from repro.core.moves import MoveEngine

    library = build_compass_library(rails=rails)
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(LOOP_CIRCUITS[circuit]())
    checks = []

    def checked(method):
        def wrapper(self, *args):
            method(self, *args)
            state = self.state if isinstance(self, MoveEngine) else self
            assert_engine_is_oracle(state)
            checks.append(method.__name__)
        return wrapper

    monkeypatch.setattr(MoveEngine, "apply", checked(MoveEngine.apply))
    for name in ("commit_move", "rollback_move"):
        monkeypatch.setattr(ScalingState, name,
                            checked(getattr(ScalingState, name)))
    runs = {
        "cvs": run_cvs,
        "dscale": lambda state: run_dscale(
            state, non_adjacent=True, retarget_shifters=True),
        "gscale": run_gscale,
    }
    for method, run in runs.items():
        state = ScalingState(prepared.network, library,
                             tspec=prepared.tspec,
                             activity=prepared.activity)
        before = len(checks)
        run(state)
        assert len(checks) > before, method
        state.validate()
        assert_engine_is_oracle(state)
    # Rollbacks occur on 3rails-mixed (12 of them); every case commits.
    assert {"apply", "commit_move"} <= set(checks)


def test_view_reads_refresh_after_mutation(scaling_state):
    """Stale reads are impossible: views repair themselves on access."""
    state = scaling_state
    engine = state.timing()
    high = [g for g in state.network.gates() if not state.is_low(g)]
    if not high:
        pytest.skip("every gate already low")
    victim = high[-1]
    before = engine.arrival[victim]
    state.demote(victim)
    after = engine.arrival[victim]  # no explicit refresh() call
    assert after >= before  # Vlow twin is never faster
    assert after == pytest.approx(state.full_timing().arrival[victim],
                                  abs=1e-9)
    state.promote(victim)


def test_standalone_engine_tracks_manual_notes(mapped_adder, library):
    """The engine works without ScalingState when notes are hand-routed."""
    levels: dict[str, bool] = {}
    lc_edges: set[tuple[str, str]] = set()
    calc = DelayCalculator(mapped_adder, library, levels=levels,
                           lc_edges=lc_edges)
    engine = IncrementalTiming(calc, tspec=100.0)
    victim = next(
        n for n in mapped_adder.gates()
        if mapped_adder.fanouts(n) and n not in mapped_adder.outputs
    )
    levels[victim] = True
    for reader in mapped_adder.fanouts(victim):
        lc_edges.add((victim, reader))
    engine.note_variant_changed(victim)
    engine.note_net_changed(victim)
    oracle = TimingAnalysis(
        DelayCalculator(mapped_adder, library, levels=levels,
                        lc_edges=lc_edges), 100.0)
    for name in mapped_adder.nodes:
        assert engine.arrival[name] == pytest.approx(oracle.arrival[name],
                                                     abs=1e-9)
        assert engine.required[name] == pytest.approx(oracle.required[name],
                                                      abs=1e-9)
    assert engine.worst_delay == pytest.approx(oracle.worst_delay, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rails", [(5.0, 4.3), (5.0, 4.3, 3.6)],
                         ids=["2rails", "3rails"])
@pytest.mark.parametrize("circuit", ["mixed", "pla"])
def test_swap_cell_rule_keeps_engine_equal_to_oracle(circuit, rails, seed):
    """The shared swap rule alone keeps a cached calculator and an engine
    exact: random resizes, plain and inside committed or rolled-back
    transactions, over fixed random rails and converter edges, with no
    ScalingState in between.  Checked bitwise after every step."""
    from repro.mapping.mapper import map_network
    from repro.opt.script import rugged
    from repro.timing.incremental import swap_cell

    library = build_compass_library(rails=rails)
    network = GENERATORS[circuit]()
    rugged(network)
    mapped = map_network(network, library, match_table=MatchTable(library))
    rng = random.Random(seed)
    gates = mapped.gates()
    levels = {
        name: rng.randrange(len(rails)) for name in gates if rng.random() < 0.4
    }
    lc_edges = {
        (driver, reader)
        for driver in levels
        for reader in mapped.fanouts(driver)
        if levels.get(reader, 0) < levels[driver]
    }
    calc = DelayCalculator(mapped, library, levels=levels, lc_edges=lc_edges,
                           cache=True)
    tspec = 50.0
    engine = IncrementalTiming(calc, tspec)

    def assert_bitwise():
        oracle = TimingAnalysis(
            DelayCalculator(mapped, library, levels=levels,
                            lc_edges=lc_edges), tspec)
        for name in mapped.nodes:
            assert engine.arrival[name] == oracle.arrival[name], name
            assert engine.load[name] == oracle.load[name], name
            assert engine.required[name] == oracle.required[name], name

    for _ in range(40):
        name = rng.choice(gates)
        original = mapped.nodes[name].cell
        others = [cell for cell in library.variants(original.base)
                  if cell is not original]
        if not others:
            continue
        cell = rng.choice(others)
        mode = rng.choice(("plain", "commit", "rollback"))
        if mode == "plain":
            swap_cell(calc, engine, name, cell)
        else:
            engine.begin()
            swap_cell(calc, engine, name, cell)
            engine.worst_delay  # repair inside the transaction
            if mode == "commit":
                engine.commit()
            else:
                swap_cell(calc, engine, name, original)
                engine.rollback()
        assert_bitwise()


# ---------------------------------------------------------------------
# Multi-rail (3 and 4 rails) oracle properties.  Hypothesis drives
# random rail assignments and mutation sequences over the shared state;
# after every step the incremental engine must equal a rebuilt
# TimingAnalysis on an uncached calculator, including across what-if
# rollbacks.  The state is module-scoped on purpose: every reachable
# (levels, lc_edges, sizing) configuration is a valid input to the
# equivalence property, so examples legitimately compound.
# ---------------------------------------------------------------------

MULTI_RAILS = {
    "3rails": (5.0, 4.3, 3.6),
    "4rails": (5.0, 4.3, 3.6, 3.0),
}

_MOVE_KINDS = ("demote", "promote", "assign", "resize", "edge")


@pytest.fixture(scope="module", params=sorted(MULTI_RAILS))
def multirail_state(request):
    library = build_compass_library(rails=MULTI_RAILS[request.param])
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(mixed_datapath(width=5, n_control=3, n_products=8, seed=13))
    return ScalingState(prepared.network, library,
                        tspec=2.5 * prepared.tspec,
                        activity=prepared.activity)


def multirail_move(rng, state, kind):
    """One random legal-ish multi-rail mutation through the observers."""
    gates = state.network.gates()
    lowest = state.n_rails - 1
    if kind == "demote":
        cands = [g for g in gates if state.rail_of(g) < lowest]
        if not cands:
            return
        state.demote(rng.choice(cands))
    elif kind == "promote":
        cands = [g for g in gates if state.rail_of(g) > 0]
        if not cands:
            return
        state.promote(rng.choice(cands))
    elif kind == "assign":
        # Direct rail-index writes must reach the engine via
        # set_rail, including multi-step jumps (0 -> 3, 2 -> 1, ...).
        state.set_rail(rng.choice(gates), rng.randrange(state.n_rails))
    elif kind == "resize":
        name = rng.choice(gates)
        cell = state.cell(name)
        state.resize(name, rng.choice(state.library.variants(cell.base)))
    else:
        if state.lc_edges and rng.random() < 0.5:
            state.drop_converter(rng.choice(sorted(state.lc_edges)))
        else:
            drivers = [g for g in gates
                       if state.rail_of(g) > 0 and state.network.fanouts(g)]
            if not drivers:
                return
            driver = rng.choice(drivers)
            readers = sorted(state.network.fanouts(driver))
            state.add_converter((driver, rng.choice(readers)))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_MOVE_KINDS), min_size=1, max_size=8))
def test_multirail_random_sequences_match_oracle(multirail_state, seed,
                                                 kinds):
    rng = random.Random(seed)
    for kind in kinds:
        multirail_move(rng, multirail_state, kind)
        assert_equivalent(multirail_state)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_MOVE_KINDS), min_size=1, max_size=4))
def test_multirail_rollback_restores_exact_values(multirail_state, seed,
                                                  kinds):
    """A what-if window over random multi-rail moves rolls back exactly."""
    state = multirail_state
    engine = state.timing()
    engine.refresh()
    before_arrival = dict(engine.arrival.items())
    before_required = dict(engine.required.items())
    before_load = dict(engine.load.items())
    levels_before = dict(state.levels)
    edges_before = set(state.lc_edges)
    cells_before = {name: state.cell(name)
                    for name, node in state.network.nodes.items()
                    if node.cell is not None}

    rng = random.Random(seed)
    state.begin_move()
    for kind in kinds:
        multirail_move(rng, state, kind)
    assert state.timing().worst_delay >= 0  # force a refresh inside

    # Revert our own mutations (the journal only covers the arrays) ...
    for name, cell in cells_before.items():
        if state.cell(name) is not cell:
            state.resize(name, cell)
    for name in list(state.levels):
        state.set_rail(name, levels_before.get(name, 0))
    for name, rail in levels_before.items():
        state.set_rail(name, rail)
    for edge in list(state.lc_edges):
        if edge not in edges_before:
            state.drop_converter(edge)
    for edge in edges_before:
        state.add_converter(edge)
    # ... then restore the timing arrays from the journal.
    state.rollback_move()

    after = state.timing()
    assert dict(after.arrival.items()) == before_arrival
    assert dict(after.required.items()) == before_required
    assert dict(after.load.items()) == before_load
    assert_equivalent(state)


def test_multirail_full_dscale_matches_oracle():
    """End-to-end on three rails: Dscale leaves engine == oracle and a
    legal state that actually uses the deepest rail."""
    from repro.core.dscale import run_dscale

    library = build_compass_library(rails=(5.0, 4.3, 3.6))
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(mixed_datapath(width=6, n_control=4, n_products=10, seed=23))
    state = ScalingState(prepared.network, library,
                         tspec=1.6 * prepared.tspec,
                         activity=prepared.activity)
    run_dscale(state)
    assert_equivalent(state)
    # The third rail is genuinely exercised.
    assert any(state.rail_of(name) == 2 for name in state.network.gates())
    assert state.power().total > 0


def test_output_boundary_converter_equivalence(library):
    """lc_at_outputs: the (out, OUTPUT) edge flows through the engine."""
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(ripple_adder(width=4))
    state = ScalingState(
        prepared.network, library, tspec=3.0 * prepared.tspec,
        activity=prepared.activity,
        options=ScalingOptions(lc_at_outputs=True))
    out = next(
        o for o in state.network.outputs
        if not state.network.nodes[o].is_input
    )
    state.demote(out)
    assert (out, OUTPUT) in state.lc_edges
    assert_equivalent(state)
    state.promote(out)
    assert_equivalent(state)


# ---------------------------------------------------------------------
# Bounded what-if probes: ``exceeds(limit)`` inside a transaction may
# stop the forward repair at the first path certificate.  The answer
# must equal the oracle's ``worst_delay > limit`` at every limit,
# including the two floats adjacent to the exact worst delay, and the
# rollback must restore the arrays bit for bit whether or not the
# repair stopped early.
# ---------------------------------------------------------------------

_PROBE_KINDS = ("demote", "deep", "retarget", "resize", "drop")


def _probe_move(rng, state, kind):
    """One random :mod:`repro.core.moves` move of ``kind``, or None."""
    gates = state.network.gates()
    lowest = state.n_rails - 1
    if kind == "demote":
        cands = [g for g in gates if state.rail_of(g) < lowest]
        return DemoteMove(rng.choice(cands)) if cands else None
    if kind == "deep":
        cands = [g for g in gates if state.rail_of(g) < lowest - 1]
        return DemoteMove(rng.choice(cands), target=lowest) if cands else None
    if kind == "retarget":
        cands = [g for g in gates
                 if state.rail_of(g) < lowest
                 and state.converter_readers(g)]
        return RetargetShifterMove(rng.choice(cands)) if cands else None
    if kind == "resize":
        name = rng.choice(gates)
        cell = state.cell(name)
        return ResizeMove(name, rng.choice(state.library.variants(cell.base)))
    if state.lc_edges:
        return DropConverterMove(rng.choice(sorted(state.lc_edges)))
    return None


def _arrays(engine):
    _, arrival, required, load = engine.levelized_arrays()
    return list(arrival), list(required), list(load)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       setup=st.lists(st.sampled_from(_PROBE_KINDS), max_size=3),
       kind=st.sampled_from(_PROBE_KINDS),
       factor=st.floats(0.5, 1.5))
def test_exceeds_matches_oracle_and_rolls_back(multirail_state, seed, setup,
                                               kind, factor):
    state = multirail_state
    rng = random.Random(seed)
    # Committed set-up moves vary the starting point (shifters to
    # retarget or drop, mixed rails) across examples.
    for setup_kind in setup:
        move = _probe_move(rng, state, setup_kind)
        if move is not None:
            move.apply(state)
    move = _probe_move(rng, state, kind)
    if move is None:
        return
    engine = state.timing()
    before = _arrays(engine)

    move.apply(state)
    worst = state.full_timing().worst_delay
    move.undo(state)
    assert _arrays(engine) == before
    limits = (
        worst,
        math.nextafter(worst, -math.inf),
        math.nextafter(worst, math.inf),
        state.tspec + state.options.timing_tolerance,
        factor * worst,
    )
    for limit in limits:
        state.begin_move()
        move.apply(state)
        assert engine.exceeds(limit) == (worst > limit), limit
        move.undo(state)
        state.rollback_move()
        assert _arrays(engine) == before, limit
    assert_equivalent(state)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       setup=st.lists(st.sampled_from(_PROBE_KINDS), max_size=3))
def test_path_bound_is_a_tight_lower_bound(multirail_state, seed, setup):
    """The certificate walk from any node's arrival never overshoots
    the exact worst delay, and from the critical path it reaches it."""
    state = multirail_state
    rng = random.Random(seed)
    for setup_kind in setup:
        move = _probe_move(rng, state, setup_kind)
        if move is not None:
            move.apply(state)
    engine = state.timing()
    _, arrival, _, _ = engine.levelized_arrays()
    worst = state.full_timing().worst_delay
    bounds = [engine._path_bound(i, at, []) for i, at in enumerate(arrival)]
    assert max(bounds) <= worst
    assert max(bounds) == pytest.approx(worst, rel=1e-12)


def _early_reject(state):
    """Open a transaction whose ``exceeds`` stopped the repair early.

    A resize seeds only the gate's fanin cones backward, so the gate
    is popped past every backward seed.  Under a limit below zero it is
    a certificate at the latest, before the repair reaches its readers.
    Returns the applied move.
    """
    engine = state.timing()
    for name in state.network.gates():
        cell = state.cell(name)
        others = [v for v in state.library.variants(cell.base)
                  if v is not cell]
        if not others:
            continue
        move = ResizeMove(name, others[0])
        state.begin_move()
        move.apply(state)
        assert engine.exceeds(-1.0)
        if not engine._fwd_clean:
            return move
        move.undo(state)
        state.rollback_move()
    raise AssertionError("no resize stopped the forward repair early")


def _first_name(engine):
    return next(iter(engine.arrival))


_SPENT_QUERIES = {
    "worst_delay": lambda e: e.worst_delay,
    "exceeds": lambda e: e.exceeds(math.inf),
    "arrival": lambda e: e.arrival[_first_name(e)],
    "load": lambda e: e.load[_first_name(e)],
    "required": lambda e: e.required[_first_name(e)],
    "slack": lambda e: e.slack(_first_name(e)),
    "refresh": lambda e: e.refresh(),
    "levelized_arrays": lambda e: e.levelized_arrays(),
    "commit": lambda e: e.commit(),
}


@pytest.mark.parametrize("query", sorted(_SPENT_QUERIES))
def test_early_reject_is_rollback_only(multirail_state, query):
    """After an early reject every query raises until rollback()."""
    state = multirail_state
    engine = state.timing()
    before = _arrays(engine)
    move = _early_reject(state)
    with pytest.raises(RuntimeError, match="rollback"):
        _SPENT_QUERIES[query](engine)
    move.undo(state)  # the caller's own revert still reaches the engine
    state.rollback_move()
    assert _arrays(engine) == before
    assert_equivalent(state)


def test_exceeds_outside_a_transaction_is_worst_delay(multirail_state):
    engine = multirail_state.timing()
    worst = engine.worst_delay
    assert engine.exceeds(math.nextafter(worst, -math.inf))
    assert not engine.exceeds(worst)
    assert not engine._spent
