"""Move-engine tests: apply/undo exactness, cost models, oracle properties.

The move layer's contract is that every move routes its mutations
through the state's observed collections, so the incremental timing
engine must equal a rebuilt-from-scratch analysis after *every* apply
and every undo -- including non-adjacent demotions and shifter
retargets, the two N-rail capabilities the layer exists for.
Hypothesis drives random move sequences on 3- and 4-rail states; the
end-to-end tests pin the capabilities' value on real MCNC circuits.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath
from repro.core.dscale import _round_pairs, check_demotion, run_dscale
from repro.core.moves import (
    BUILTIN_COST_MODELS,
    CostModel,
    DemoteMove,
    DropConverterMove,
    MoveEngine,
    MoveStats,
    PaperCostModel,
    PlacementAwareCostModel,
    PromoteMove,
    ResizeMove,
    RetargetShifterMove,
    get_cost_model,
    register_cost_model,
    registered_cost_models,
    unregister_cost_model,
)
from repro.core.state import ScalingOptions, ScalingState
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.power.estimate import demotion_gain
from repro.timing import batch as timing_batch
from repro.timing.delay import OUTPUT
from repro.timing.incremental import IncrementalTiming

MULTI_RAILS = {
    "3rails": (5.0, 4.3, 3.6),
    "4rails": (5.0, 4.3, 3.6, 3.0),
}


def assert_equivalent(state, tolerance=1e-9):
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
    assert engine.worst_delay == pytest.approx(oracle.worst_delay,
                                               abs=tolerance)


def snapshot(state):
    return (
        dict(state.levels),
        set(state.lc_edges),
        {name: state.cell(name) for name, node in state.network.nodes.items()
         if node.cell is not None},
    )


def _prepared_state(library, options=None):
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(mixed_datapath(width=5, n_control=3, n_products=8, seed=29))
    return ScalingState(prepared.network, library,
                        tspec=2.5 * prepared.tspec,
                        activity=prepared.activity, options=options)


def _multirail_state(rails):
    return _prepared_state(build_compass_library(rails=MULTI_RAILS[rails]))


@pytest.fixture(scope="module", params=sorted(MULTI_RAILS))
def multirail_state(request):
    return _multirail_state(request.param)


# -- MoveStats ---------------------------------------------------------


def test_move_stats_counts_and_snapshot():
    stats = MoveStats()
    stats.note("demote", committed=True)
    stats.note("demote", committed=False)
    stats.note("resize", committed=True)
    assert stats.attempted == {"demote": 2, "resize": 1}
    assert stats.count("demote") == 1
    assert stats.count("missing") == 0
    as_dict = stats.as_dict()
    assert as_dict["committed"] == {"demote": 1, "resize": 1}
    assert as_dict["rolled_back"] == {"demote": 1}


# -- cost-model registry ----------------------------------------------


def test_builtin_cost_models_registered():
    assert set(BUILTIN_COST_MODELS) <= set(registered_cost_models())
    assert isinstance(get_cost_model("paper"), PaperCostModel)
    assert isinstance(get_cost_model("placement"), PlacementAwareCostModel)
    assert get_cost_model(None) is get_cost_model("paper")


def test_get_cost_model_passes_instances_through():
    model = PlacementAwareCostModel(wire_factor=2.0)
    assert get_cost_model(model) is model


def test_unknown_cost_model_rejected():
    with pytest.raises(ValueError, match="registered"):
        get_cost_model("nope")


def test_register_cost_model_guards():
    class Custom(CostModel):
        name = "custom-test"

    register_cost_model(Custom())
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_cost_model(Custom())
        register_cost_model(Custom(), replace=True)  # explicit override ok
    finally:
        unregister_cost_model("custom-test")
    assert "custom-test" not in registered_cost_models()
    with pytest.raises(ValueError, match="non-empty name"):
        register_cost_model(CostModel())
    with pytest.raises(ValueError, match="built-in"):
        unregister_cost_model("paper")


def test_paper_cost_model_is_the_seed_arithmetic(multirail_state):
    state = multirail_state
    model = get_cost_model("paper")
    victim = next(g for g in state.network.gates()
                  if state.rail_of(g) < state.n_rails - 1)
    expected = demotion_gain(
        state.calc, state.activity, victim,
        clock_mhz=state.options.clock_mhz,
        lc_at_outputs=state.options.lc_at_outputs,
    )
    assert model.demotion_gain(state, victim) == expected


def test_placement_model_charges_new_shifters(multirail_state):
    state = multirail_state
    paper = get_cost_model("paper")
    placement = get_cost_model("placement")
    charged = 0
    for name in state.network.gates():
        if state.rail_of(name) >= state.n_rails - 1:
            continue
        p = paper.demotion_gain(state, name)
        q = placement.demotion_gain(state, name)
        assert q <= p + 1e-12, name  # the wire term only subtracts
        change = state.calc.demotion_net_change(
            name, state.options.lc_at_outputs)
        if change.new_edges and state.activity.rate01(name) > 0:
            assert q < p, name
            charged += 1
    assert charged  # the model demonstrably bites somewhere


# -- move apply/undo exactness ----------------------------------------


def _demotable(state, deep=False):
    lowest = state.n_rails - 1
    for name in state.network.gates():
        if state.rail_of(name) < (lowest - 1 if deep else lowest):
            return name
    pytest.skip("no demotable gate left")


def test_demote_move_undo_restores_state(multirail_state):
    state = multirail_state
    before = snapshot(state)
    move = DemoteMove(_demotable(state))
    move.apply(state)
    assert_equivalent(state)
    move.undo(state)
    assert snapshot(state) == before
    assert_equivalent(state)


def test_non_adjacent_demote_move_oracle(multirail_state):
    state = multirail_state
    name = _demotable(state, deep=True)
    before = snapshot(state)
    rail = state.rail_of(name)
    move = DemoteMove(name, target=state.n_rails - 1)
    move.apply(state)
    assert state.rail_of(name) == state.n_rails - 1 > rail + 0
    assert_equivalent(state)
    move.undo(state)
    assert snapshot(state) == before
    assert_equivalent(state)


def test_promote_move_restores_converter_edges(multirail_state):
    state = multirail_state
    name = _demotable(state)
    demote = DemoteMove(name)
    demote.apply(state)
    edges_low = set(state.lc_edges)
    promote = PromoteMove(name)
    promote.apply(state)
    assert_equivalent(state)
    promote.undo(state)
    assert set(state.lc_edges) == edges_low
    assert_equivalent(state)
    demote.undo(state)
    assert_equivalent(state)


def test_resize_move_round_trip(multirail_state):
    state = multirail_state
    name = next(n for n in state.network.gates()
                if state.library.next_size_up(state.cell(n)))
    before = snapshot(state)
    bigger = state.library.next_size_up(state.cell(name))
    move = ResizeMove(name, bigger)
    move.apply(state)
    assert move.old_cell is before[2][name]
    assert_equivalent(state)
    move.undo(state)
    assert_equivalent(state)
    assert state.cell(name).name == before[2][name].name


def test_try_move_rejection_rolls_back_exactly(multirail_state):
    state = multirail_state
    engine = MoveEngine(state)
    engine_timing = state.timing()
    engine_timing.refresh()
    before_arrival = dict(engine_timing.arrival.items())
    before = snapshot(state)
    rolled = engine.stats.rolled_back.get("demote", 0)
    # An impossible cap forces the rejection path regardless of slack.
    ok = engine.try_move(DemoteMove(_demotable(state)), worst_delay_cap=-1.0)
    assert not ok
    assert snapshot(state) == before
    assert dict(state.timing().arrival.items()) == before_arrival
    assert engine.stats.rolled_back["demote"] == rolled + 1
    assert_equivalent(state)


def test_try_move_commit_counts(multirail_state):
    state = multirail_state
    engine = MoveEngine(state)
    name = _demotable(state)
    committed = engine.stats.committed.get("demote", 0)
    if engine.try_move(DemoteMove(name)):
        assert engine.stats.committed["demote"] == committed + 1
        PromoteMove(name).apply(state)  # leave the fixture roughly as found
    assert_equivalent(state)


# -- hypothesis oracle: mixed sequences through the engine -------------

_KINDS = ("demote", "deep", "promote", "resize", "retarget", "drop")


def _random_move(rng, state, kind):
    """Build one random move of ``kind`` (or None when inapplicable)."""
    gates = state.network.gates()
    lowest = state.n_rails - 1
    if kind == "demote":
        cands = [g for g in gates if state.rail_of(g) < lowest]
        return DemoteMove(rng.choice(cands)) if cands else None
    if kind == "deep":
        cands = [g for g in gates if state.rail_of(g) < lowest - 1]
        if not cands:
            return None
        name = rng.choice(cands)
        target = rng.randrange(state.rail_of(name) + 2, lowest + 1)
        return DemoteMove(name, target=target)
    if kind == "promote":
        cands = [g for g in gates if state.rail_of(g) > 0]
        return PromoteMove(rng.choice(cands)) if cands else None
    if kind == "resize":
        name = rng.choice(gates)
        cell = state.cell(name)
        return ResizeMove(name, rng.choice(state.library.variants(cell.base)))
    if kind == "retarget":
        # A gate that still can drop and already carries shifters: its
        # kept groups re-target, the case the move exists for.
        cands = [g for g in gates
                 if state.rail_of(g) < lowest
                 and state.converter_readers(g)]
        return RetargetShifterMove(rng.choice(cands)) if cands else None
    if state.lc_edges:
        return DropConverterMove(rng.choice(sorted(state.lc_edges)))
    return None


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6))
def test_move_sequences_match_oracle_after_apply_and_undo(
        multirail_state, seed, kinds):
    """Engine == oracle after every apply and after every undo."""
    state = multirail_state
    rng = random.Random(seed)
    for kind in kinds:
        move = _random_move(rng, state, kind)
        if move is None:
            continue
        move.apply(state)
        assert_equivalent(state)
        if rng.random() < 0.5:
            move.undo(state)
            assert_equivalent(state)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4))
def test_transactional_moves_match_oracle(multirail_state, seed, kinds):
    """try_move (committed or rolled back) always leaves engine == oracle."""
    state = multirail_state
    engine = MoveEngine(state)
    rng = random.Random(seed)
    for kind in kinds:
        move = _random_move(rng, state, kind)
        if move is None:
            continue
        cap = state.tspec if rng.random() < 0.3 else None
        engine.try_move(move, worst_delay_cap=cap)
        assert_equivalent(state)


# -- batched pricing: bit-identical to the serial loops ----------------


def _pricing_candidates(rng, state):
    """A random demotion batch: half the demotable gates, mixed targets."""
    lowest = state.n_rails - 1
    candidates = []
    for name in state.network.gates():
        rail = state.rail_of(name)
        if rail >= lowest or rng.random() < 0.5:
            continue
        target = (None if rng.random() < 0.5
                  else rng.randrange(rail + 1, lowest + 1))
        candidates.append((name, target))
    return candidates


def _serial_pricing(state, analysis, candidates):
    feasible = [check_demotion(state, analysis, name, target=target)
                for name, target in candidates]
    gains = [demotion_gain(state.calc, state.activity, name,
                           clock_mhz=state.options.clock_mhz,
                           lc_at_outputs=state.options.lc_at_outputs,
                           target=target)
             for name, target in candidates]
    return feasible, gains


def _as_arrays(state, candidates):
    """``(positions, targets)`` of ``(name, target)`` candidates, a
    ``None`` target made the rail below the gate's current one."""
    pos = state.flat().pos
    positions = [pos[name] for name, _ in candidates]
    targets = [state.rail_of(name) + 1 if target is None else target
               for name, target in candidates]
    return positions, targets


def _batched_pricing(state, analysis, candidates):
    arrays = _as_arrays(state, candidates)
    feasible = timing_batch.check_demotions(state, analysis, *arrays)
    gains = timing_batch.demotion_gains(state, *arrays)
    return feasible, gains


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=0, max_size=5))
def test_batched_pricing_bit_identical_to_serial(
        multirail_state, seed, kinds):
    """The batch kernels equal the serial check/gain loops *bitwise* on
    randomly perturbed 3- and 4-rail states."""
    state = multirail_state
    rng = random.Random(seed)
    applied = []
    try:
        for kind in kinds:
            move = _random_move(rng, state, kind)
            if move is not None:
                move.apply(state)
                applied.append(move)
        analysis = state.timing()
        candidates = _pricing_candidates(rng, state)
        serial = _serial_pricing(state, analysis, candidates)
        assert _batched_pricing(state, analysis, candidates) == serial
    finally:
        for move in reversed(applied):
            move.undo(state)


def test_lc_edge_candidates_stay_in_the_vector_kernels(monkeypatch):
    """Candidates on spliced converter edges are priced by the vector
    kernels -- nothing is routed to a serial fallback, in either the
    check or the gain sweep -- and still answer exactly what the serial
    check_demotion / demotion_gain do."""
    state = _multirail_state("3rails")
    split = timing_batch._split_candidates
    routed = []

    def spy(*args):
        result = split(*args)
        routed.append(len(result[4]))
        return result

    monkeypatch.setattr(timing_batch, "_split_candidates", spy)
    for name in state.network.gates()[::3]:
        DemoteMove(name).apply(state)
    assert state.lc_edges, "the demotions must splice converter edges"
    analysis = state.timing()
    lowest = state.n_rails - 1
    candidates = [
        (name, target)
        for name in state.network.gates()
        for target in range(state.rail_of(name) + 1, lowest + 1)
    ]
    serial = _serial_pricing(state, analysis, candidates)
    assert _batched_pricing(state, analysis, candidates) == serial
    assert routed == [0, 0]


DENSE_RAILS = {2: (5.0, 4.3), 3: MULTI_RAILS["3rails"],
               4: MULTI_RAILS["4rails"]}


def _skewed_shifter_library(rails):
    """A library whose shifter input cap differs per destination rail.

    Every built-in shifter twin keeps the high-rail pin cap, which hides
    the order in which a net's shifter pins join its load; a size -1
    variant with its own cap becomes each rail's shifter instead.
    """
    library = build_compass_library(rails=rails)
    for rail, vdd in enumerate(library.rails[:-1]):
        cell = library.level_converter("pg", vdd)
        library.add(dataclasses.replace(
            cell, name=f"{cell.name}_skew", size=-1,
            input_caps=(cell.input_caps[0] * (1.0 + (rail + 1) / 7),)))
    return library


def _converter_dense_state(n_rails, lc_at_outputs, seed):
    """A state with kept shifters on output, input and PO edges, some
    stale after their reader dropped."""
    rng = random.Random(seed)
    state = _prepared_state(
        _skewed_shifter_library(DENSE_RAILS[n_rails]),
        ScalingOptions(lc_at_outputs=lc_at_outputs))
    lowest = state.n_rails - 1
    # In random order: a driver demoted after its readers keeps direct
    # readers beside its shifters (a deeper demotion adds new groups to
    # kept ones), one demoted before them leaves stale shifters whose
    # current rail differs from the retargeted one.
    gates = state.network.gates()
    for name in rng.sample(gates, k=len(gates) * 2 // 5):
        state.demote(name, target=rng.randint(1, lowest))
    for kind in rng.choices(_KINDS, k=8):
        move = _random_move(rng, state, kind)
        if move is not None:
            move.apply(state)
    assert any(reader != OUTPUT for _, reader in state.lc_edges)
    return state


@pytest.mark.parametrize("lc_at_outputs", [False, True])
@pytest.mark.parametrize("n_rails", sorted(DENSE_RAILS))
def test_converter_dense_states_match_serial(n_rails, lc_at_outputs):
    """On converter-dense states -- kept shifters on output, input and
    PO edges, some stale after their reader dropped -- the batched check
    and gain equal the serial loops for every (gate, target) pair, and
    a fresh full sweep equals the serial oracle, all bitwise."""
    for seed in range(10):
        state = _converter_dense_state(n_rails, lc_at_outputs, seed)
        lowest = state.n_rails - 1

        # Zero slack on the critical path (and a little above it), so
        # the feasibility flags turn on every shifter delay.
        candidates = [
            (name, target)
            for name in state.network.gates()
            for target in range(state.rail_of(name) + 1, lowest + 1)
        ]
        worst = state.full_timing().worst_delay
        for tspec in (worst, 1.02 * worst, 1.05 * worst):
            state.tspec = tspec
            fresh = IncrementalTiming(state.calc, tspec, flat=state.flat())
            serial = _serial_pricing(state, fresh, candidates)
            assert _batched_pricing(state, fresh, candidates) == serial

            oracle = state.full_timing()
            order, arrival, required, load = fresh.levelized_arrays()
            assert load == [oracle.load[name] for name in order]
            assert arrival == [oracle.arrival[name] for name in order]
            assert required == [oracle.required[name] for name in order]


def _has_regrouping_edge(state, name):
    """Per-name oracle: a demotion of ``name`` re-targets one of its
    own shifters (a reader at or below its rail; a PO reads rail 0)."""
    rail = state.rail_of(name)
    for reader in state.converter_readers(name):
        reader_rail = 0 if reader == OUTPUT else state.rail_of(reader)
        if reader_rail >= rail:
            return True
    return False


def _retargets_fanin_shifter(state, name, target):
    """Per-name oracle: demoting ``name`` to ``target`` moves the
    destination ``max(min(rail, rail_of(fanin) - 1), 0)`` of a shifter
    on one of its input edges."""
    rail = state.rail_of(name)
    for fanin in state.network.nodes[name].fanins:
        if (fanin, name) not in state.lc_edges:
            continue
        driver_cap = state.rail_of(fanin) - 1
        current = min(rail, driver_cap)
        post = min(target, driver_cap)
        if max(current, 0) != max(post, 0):
            return True
    return False


def _round_filter_oracle(state, slack_set, lowest, allow_deep):
    """The per-name loop Dscale's round filter replaces."""
    regrouping, saw_retarget, depths_of = set(), set(), {}
    for name in slack_set:
        if _has_regrouping_edge(state, name):
            regrouping.add(name)
            continue
        rail = state.rail_of(name)
        deepest = lowest if allow_deep else rail + 1
        depths = []
        for target in range(rail + 1, deepest + 1):
            if _retargets_fanin_shifter(state, name, target):
                saw_retarget.add(name)
                continue
            depths.append(target)
        depths_of[name] = depths
    return regrouping, saw_retarget, depths_of


@pytest.mark.parametrize("lc_at_outputs", [False, True])
@pytest.mark.parametrize("n_rails", sorted(DENSE_RAILS))
def test_round_filter_matches_per_name_oracle(n_rails, lc_at_outputs):
    """Dscale's one-pass round filter routes every gate as the per-name
    loop over its shifters does: regrouping, re-targeting and depths."""
    routed = set()
    for seed in range(4):
        state = _converter_dense_state(n_rails, lc_at_outputs, seed)
        flat = state.flat()
        lowest = state.n_rails - 1
        slack_set = [
            name for name in state.network.gates()
            if state.rail_of(name) < lowest
        ]
        slack = np.zeros(flat.n, dtype=bool)
        slack[[flat.pos[name] for name in slack_set]] = True
        for allow_deep in (False, True):
            pairs, deferred = _round_pairs(state, slack, lowest, allow_deep)
            oracle = _round_filter_oracle(
                state, slack_set, lowest, allow_deep)
            regrouping, saw_retarget, depths_of = oracle
            expected = np.zeros_like(pairs)
            for name, depths in depths_of.items():
                expected[flat.pos[name], depths] = True
            assert np.array_equal(pairs, expected)
            held = regrouping | saw_retarget
            assert [flat.order[i] for i in np.flatnonzero(deferred)] == [
                name for name in slack_set if name in held]
            routed |= {kind for kind, names in zip("RT", oracle) if names}
    assert routed == (set() if n_rails == 2 else {"R", "T"})


def _assert_overlays_fresh(state):
    """The state's memoized overlays equal a fresh computation, are
    read-only, and a second query without a write returns the memo."""
    flat = state.flat()
    memo = state.assignment_overlays()
    assert memo is state.assignment_overlays()
    fresh = (
        flat.rail_plane(dict(state.levels)),
        *flat.lc_edge_keys(set(state.lc_edges)),
    )
    assert all(map(np.array_equal, memo, fresh))
    for array in memo:
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("n_rails", sorted(DENSE_RAILS))
def test_memoized_overlays_follow_every_mutation(n_rails):
    state = _converter_dense_state(n_rails, True, seed=1)
    engine = MoveEngine(state)
    lowest = state.n_rails - 1
    _assert_overlays_fresh(state)
    gates = state.network.gates()
    name = next(g for g in gates if state.rail_of(g) < lowest)
    state.demote(name)
    _assert_overlays_fresh(state)
    state.promote(name)
    _assert_overlays_fresh(state)
    driver, reader = next(
        (g, r)
        for g in gates
        if state.rail_of(g) > 0
        for r in sorted(state.network.fanouts(g))
        if (g, r) not in state.lc_edges
    )
    edge = (driver, reader)
    state.add_converter(edge)
    _assert_overlays_fresh(state)
    state.drop_converter(edge)
    _assert_overlays_fresh(state)
    committed = False
    for name in gates:
        if state.rail_of(name) < lowest:
            version = state.assignment_version
            committed = engine.try_move(DemoteMove(name))
            _assert_overlays_fresh(state)
            if committed:
                assert state.assignment_version > version
                break
    assert committed
    name = next(g for g in gates if state.rail_of(g) < lowest)
    assert not engine.try_move(DemoteMove(name), worst_delay_cap=-1.0)
    _assert_overlays_fresh(state)


# -- replayed reject certificates --------------------------------------


def assert_engine_is_oracle(state):
    """The engine's arrays and worst delay equal the oracle's bitwise."""
    engine = state.timing()
    order, arrival, required, load = engine.levelized_arrays()
    oracle = state.full_timing()
    assert load == [oracle.load[name] for name in order]
    assert arrival == [oracle.arrival[name] for name in order]
    assert required == [oracle.required[name] for name in order]
    assert engine.worst_delay == oracle.worst_delay


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_rails=st.sampled_from([3, 4]),
       seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(("demote", "deep", "retarget",
                                       "resize", "drop")),
                      min_size=8, max_size=24))
def test_replayed_rejects_are_sound(n_rails, seed, kinds):
    """A stored certificate that replays "exceeds" is confirmed by the
    full ``exceeds`` and by the oracle on the same post-move state, and
    after the replayed reject's rollback engine == oracle bitwise.

    Rejected moves are retried (fresh instances, same key) under a
    fresh random cap around the current worst delay, interleaved with
    committed moves that shift the circuit under the stored paths.
    Before every timing check, every path recorded so far -- not only
    the tried move's own -- must replay to at most the exact post-move
    worst delay.
    """
    rng = random.Random(seed)
    state = _converter_dense_state(n_rails, rng.random() < 0.5, seed)
    timing = state.timing()
    replay = timing.replay_exceeds
    exceeds = timing.exceeds
    paths = []
    proofs = []

    def assert_lower_bounds():
        worst = state.full_timing().worst_delay
        assert not any(replay(path, worst) for path in paths)
        return worst

    def checked_replay(path, limit):
        worst = assert_lower_bounds()
        proved = replay(path, limit)
        if proved:
            assert worst > limit
            fresh = IncrementalTiming(state.calc, timing.tspec)
            assert fresh.exceeds(limit)
            proofs.append(path)
        return proved

    def recorded_exceeds(limit):
        assert_lower_bounds()
        answer = exceeds(limit)
        if timing.last_path is not None:
            paths.append(timing.last_path)
        return answer

    timing.replay_exceeds = checked_replay
    timing.exceeds = recorded_exceeds
    engine = MoveEngine(state)
    rejected = []
    lowest = state.n_rails - 1
    for kind in kinds:
        move = None
        if rejected and rng.random() < 0.7:
            old = rng.choice(rejected)
            if isinstance(old, ResizeMove):
                move = ResizeMove(old.name, old.cell)
            elif isinstance(old, DropConverterMove):
                if old.edge in state.lc_edges:
                    move = DropConverterMove(old.edge)
            elif state.rail_of(old.name) < (old.target or lowest):
                move = type(old)(old.name, old.target)
        else:
            move = _random_move(rng, state, kind)
        if move is None:
            continue
        worst = state.full_timing().worst_delay
        proved = len(proofs)
        ok = engine.try_move(move,
                             worst_delay_cap=worst * rng.uniform(0.98, 1.01))
        if not ok:
            rejected.append(move)
        assert not (ok and len(proofs) > proved)
        assert_engine_is_oracle(state)


def test_batched_pricing_validation_matches_serial(multirail_state):
    """The batch kernels raise the serial loops' ValueErrors verbatim."""
    state = multirail_state
    analysis = state.timing()
    pos = state.flat().pos
    name = state.network.gates()[0]
    at = pos[name]
    with pytest.raises(ValueError, match="already at the lowest rail"):
        timing_batch.check_demotions(
            state, analysis, [at], [state.n_rails])
    with pytest.raises(ValueError, match="must sit below"):
        timing_batch.check_demotions(
            state, analysis, [at], [state.rail_of(name)])
    with pytest.raises(ValueError, match="already at the lowest rail"):
        timing_batch.demotion_gains(state, [at], [state.n_rails])
    primary_input = next(
        n for n, node in state.network.nodes.items() if node.is_input)
    pi_at = pos[primary_input]
    pi_target = state.rail_of(primary_input) + 1
    with pytest.raises(ValueError, match="primary inputs"):
        timing_batch.demotion_gains(state, [pi_at], [pi_target])
    with pytest.raises(ValueError, match="primary inputs"):
        check_demotion(state, analysis, primary_input)
    with pytest.raises(ValueError, match="primary inputs"):
        timing_batch.check_demotions(state, analysis, [pi_at], [pi_target])
    # Candidates validate in order: the first bad one names the error.
    with pytest.raises(ValueError, match="already at the lowest rail"):
        timing_batch.demotion_gains(
            state, [at, pi_at], [state.n_rails, pi_target])


def test_last_power_tracks_power_gated_commits(multirail_state):
    """last_power is the measured post-commit power after a
    require_power_gain commit, and None after any other attempt."""
    state = multirail_state
    engine = MoveEngine(state)
    lowest = state.n_rails - 1
    name = next(g for g in state.network.gates()
                if state.rail_of(g) < lowest)
    move = DemoteMove(name)
    committed = engine.try_move(move, require_power_gain=True)
    if committed:
        assert engine.last_power == state.power().total
        move.undo(state)
    else:
        assert engine.last_power is None
    # A plain (non-power-gated) attempt always clears the field.
    other = next(g for g in state.network.gates()
                 if state.rail_of(g) < lowest)
    plain = DemoteMove(other)
    if engine.try_move(plain):
        assert engine.last_power is None
        plain.undo(state)


def test_last_worst_delay_tracks_commits_only(multirail_state):
    """last_worst_delay is the post-commit worst delay, and None after a
    rejected or raising attempt instead of an older attempt's value."""
    state = multirail_state
    engine = MoveEngine(state)
    lowest = state.n_rails - 1
    for name in state.network.gates():
        move = DemoteMove(name)
        if state.rail_of(name) < lowest and engine.try_move(move):
            break
    else:
        pytest.skip("no demotion meets tspec")
    assert engine.last_worst_delay == state.full_timing().worst_delay
    move.undo(state)
    assert not engine.try_move(DemoteMove(name), worst_delay_cap=-1.0)
    assert engine.last_worst_delay is None
    assert engine.try_move(move)
    with pytest.raises(KeyError):
        engine.try_move(ResizeMove("no_such_gate", None))
    assert engine.last_worst_delay is None
    move.undo(state)
    assert_equivalent(state)


# -- end-to-end: the capabilities pay off on real circuits -------------


@pytest.fixture(scope="module")
def mcnc_3rail():
    """Prepared f51m on three rails: the circuit where both extensions
    demonstrably fire (non-adjacent demotions and a shifter retarget)."""
    library = build_compass_library(rails=(5.0, 4.3, 3.6))
    flow = Flow(FlowConfig(circuit="f51m", rails=(5.0, 4.3, 3.6)),
                library=library,
                match_table=MatchTable(library))
    return library, flow.prepare()


def test_extended_moves_strictly_improve_power_on_mcnc(mcnc_3rail):
    """Acceptance: non-adjacent demotion + retargeting strictly improve
    power on a real MCNC circuit at three rails, with a legal result."""
    library, prepared = mcnc_3rail

    baseline = ScalingState(prepared.network, library,
                            tspec=prepared.tspec,
                            activity=prepared.activity)
    run_dscale(baseline)
    base_power = baseline.power().total

    extended = ScalingState(prepared.network, library,
                            tspec=prepared.tspec,
                            activity=prepared.activity)
    result = run_dscale(extended, non_adjacent=True, retarget_shifters=True)
    ext_power = extended.power().total

    assert ext_power < base_power  # strictly better
    assert result.retargeted >= 1  # the retarget move genuinely fired
    stats = extended.move_stats
    assert stats.count("retarget") == result.retargeted
    # Non-adjacent demotions genuinely fired: some committed demote
    # spans more than one rail boundary in a single move.
    extended.validate()
    assert_equivalent(extended)


def test_extended_moves_inert_on_two_rails(mcnc_3rail):
    """The flags are N-rail-only: on two rails they change nothing."""
    library = build_compass_library()
    prepared = Flow(
        FlowConfig(), library=library, match_table=MatchTable(library)
    ).prepare(mixed_datapath(width=6, n_control=4, n_products=10, seed=23))

    outcomes = {}
    for label, kwargs in (
        ("plain", {}),
        ("flagged", dict(non_adjacent=True, retarget_shifters=True)),
    ):
        state = ScalingState(prepared.network, library,
                             tspec=prepared.tspec,
                             activity=prepared.activity)
        run_dscale(state, **kwargs)
        outcomes[label] = (
            sorted(state.low_nodes()),
            sorted(state.lc_edges),
            state.power().total,
        )
    assert outcomes["plain"] == outcomes["flagged"]


def test_dscale_runs_under_placement_cost_model(mcnc_3rail):
    """The alternative cost model drives a legal, validated run whose
    selection demonstrably differs from the paper model's.

    On f51m the placement wire charge prices every converter-inserting
    demotion negative, so the placement run keeps the converter-free
    CVS cluster while the paper model demotes well beyond it -- the
    pluggable-economics point of the registry.
    """
    library, prepared = mcnc_3rail
    paper = ScalingState(prepared.network, library,
                         tspec=prepared.tspec, activity=prepared.activity)
    paper_result = run_dscale(paper)

    placement = ScalingState(prepared.network, library,
                             tspec=prepared.tspec,
                             activity=prepared.activity)
    result = run_dscale(placement, cost_model="placement")
    assert result.cvs.demoted  # the CVS cluster is cost-model-free
    assert len(result.demoted) < len(paper_result.demoted)
    placement.validate()
    assert_equivalent(placement)


def test_try_move_raising_apply_leaves_engine_usable(multirail_state):
    """A raising move must not leave the timing transaction open: the
    next transactional call still works and engine == oracle."""
    state = multirail_state
    engine = MoveEngine(state)
    with pytest.raises(KeyError):
        engine.try_move(ResizeMove("no_such_gate", None))
    # The transaction was rolled back: a fresh try_move succeeds.
    name = _demotable(state)
    if engine.try_move(DemoteMove(name)):
        PromoteMove(name).apply(state)
    assert_equivalent(state)


# -- placement-aware pricing: the batched surcharge is the serial one ---


PLACEMENT_MODELS = [PlacementAwareCostModel(), PlacementAwareCostModel(2.5)]


def _serial_placement(state, model, candidates):
    return [model.demotion_gain(state, name, target=target)
            for name, target in candidates]


@pytest.mark.parametrize("n_rails", sorted(DENSE_RAILS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=0, max_size=5))
def test_batched_placement_pricing_bit_identical_to_serial(
        n_rails, seed, kinds):
    """The placement model's batched gains -- the wire surcharge folded
    into the kernel -- equal its serial demotion_gain *bitwise* on
    randomly perturbed 2- to 4-rail states."""
    state = _placement_state(n_rails)
    rng = random.Random(seed)
    applied = []
    try:
        for kind in kinds:
            move = _random_move(rng, state, kind)
            if move is not None:
                move.apply(state)
                applied.append(move)
        candidates = _pricing_candidates(rng, state)
        for model in PLACEMENT_MODELS:
            arrays = _as_arrays(state, candidates)
            assert (model.demotion_gains(state, *arrays)
                    == _serial_placement(state, model, candidates))
    finally:
        for move in reversed(applied):
            move.undo(state)


_PLACEMENT_STATES: dict[int, ScalingState] = {}


def _placement_state(n_rails):
    state = _PLACEMENT_STATES.get(n_rails)
    if state is None:
        state = _PLACEMENT_STATES[n_rails] = _prepared_state(
            build_compass_library(rails=DENSE_RAILS[n_rails]))
    return state


@pytest.mark.parametrize("lc_at_outputs", [False, True])
@pytest.mark.parametrize("n_rails", sorted(DENSE_RAILS))
def test_converter_dense_placement_gains_match_serial(n_rails, lc_at_outputs):
    """On converter-dense states the placement model's batched gains
    equal its serial loop for every (gate, target) pair, bitwise."""
    charged = 0
    for seed in range(6):
        state = _converter_dense_state(n_rails, lc_at_outputs, seed)
        lowest = state.n_rails - 1
        candidates = [
            (name, target)
            for name in state.network.gates()
            for target in range(state.rail_of(name) + 1, lowest + 1)
        ]
        arrays = _as_arrays(state, candidates)
        paper = timing_batch.demotion_gains(state, *arrays)
        for model in PLACEMENT_MODELS:
            gains = model.demotion_gains(state, *arrays)
            assert gains == _serial_placement(state, model, candidates)
            charged += sum(g != p for g, p in zip(gains, paper))
    assert charged


def test_batched_validation_names_the_first_bad_candidate(multirail_state):
    """Mixed batches of good and bad candidates: the array validation
    raises the message the serial loop raises at its first bad one."""
    state = multirail_state
    analysis = state.timing()
    rng = random.Random(11)
    gates = state.network.gates()
    inputs = [n for n, node in state.network.nodes.items() if node.is_input]
    for _ in range(40):
        candidates = [(g, rng.choice([None, state.n_rails - 1]))
                      for g in rng.sample(gates, 6)]
        for _ in range(rng.randint(1, 3)):
            gate = rng.choice(gates)
            bad = rng.choice([(rng.choice(inputs), None),
                              (gate, state.n_rails),
                              (gate, state.rail_of(gate))])
            candidates.insert(rng.randrange(len(candidates) + 1), bad)
        expected = None
        for name, target in candidates:
            try:
                check_demotion(state, analysis, name, target=target)
            except ValueError as exc:
                expected = str(exc)
                break
        assert expected is not None
        arrays = _as_arrays(state, candidates)
        for kernel in (
            lambda a: timing_batch.check_demotions(state, analysis, *a),
            lambda a: timing_batch.demotion_gains(state, *a),
        ):
            with pytest.raises(ValueError) as raised:
                kernel(arrays)
            assert str(raised.value) == expected
