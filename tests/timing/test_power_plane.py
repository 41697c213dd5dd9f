"""The state's power plane against the serial walk, step by step.

``ScalingState.power()`` keeps the per-node power terms and recomputes
only the nodes a writer marked since the last call.  Random histories
of demotions, promotions, resizes and converter edits -- applied
directly, committed or rolled back, with ``power()`` read inside the
transactions too -- must leave every breakdown equal to the serial
walk on an uncached calculator, in every field and in ``per_node``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.bench.generators import mixed_datapath
from repro.core.moves import (
    DemoteMove,
    DropConverterMove,
    MoveEngine,
    PromoteMove,
)
from repro.core.state import ScalingOptions
from test_flat_build import assert_power_bit_exact, make_state, random_resize

RAILS = {2: (), 3: (1.8, 1.0, 0.6), 4: (1.8, 1.3, 0.9, 0.6)}


@pytest.fixture(scope="module", params=sorted(RAILS))
def rail_prepared(request):
    """A prepared circuit and its 2-, 3- or 4-rail library."""
    flow = Flow(FlowConfig(rails=RAILS[request.param]))
    circuit = mixed_datapath(width=5, n_control=4, n_products=8, seed=21)
    return flow.prepare(circuit), flow.library


def random_move(rng, state):
    """A demotion, promotion, resize or converter drop, or ``None``."""
    kind = rng.choice(["demote", "promote", "resize", "drop"])
    lowest = state.n_rails - 1
    if kind == "demote":
        high = [g for g in state.network.gates() if state.rail_of(g) < lowest]
        if not high:
            return None
        name = rng.choice(high)
        return DemoteMove(
            name, target=rng.randint(state.rail_of(name) + 1, lowest)
        )
    if kind == "promote":
        low = state.low_nodes()
        return PromoteMove(rng.choice(low)) if low else None
    if kind == "resize":
        return random_resize(rng, state)
    edges = sorted(state.lc_edges)
    return DropConverterMove(rng.choice(edges)) if edges else None


def step(rng, state, engine):
    """One move: applied, committed, rolled back or tried."""
    move = random_move(rng, state)
    if move is None:
        return
    mode = rng.choice(["apply", "commit", "rollback", "try"])
    if mode == "apply":
        engine.apply(move)
    elif mode == "try":
        engine.try_move(move, require_power_gain=rng.random() < 0.7)
    else:
        state.begin_move()
        move.apply(state)
        if rng.random() < 0.8:
            assert_power_bit_exact(state)
        if mode == "commit":
            state.commit_move()
        else:
            move.undo(state)
            state.rollback_move()


@given(
    seed=st.integers(0, 2**32 - 1),
    include=st.booleans(),
    lc_at_outputs=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_power_equals_the_serial_walk_after_every_step(
    rail_prepared, seed, include, lc_at_outputs
):
    prepared, library = rail_prepared
    options = ScalingOptions(
        include_input_nets=include, lc_at_outputs=lc_at_outputs
    )
    state = make_state(prepared, library, options)
    engine = MoveEngine(state)
    rng = random.Random(seed)
    assert_power_bit_exact(state)
    for _ in range(24):
        step(rng, state, engine)
        # Unread steps let marks pile up across transactions.
        if rng.random() < 0.5:
            assert_power_bit_exact(state)
    assert_power_bit_exact(state)


def test_a_rollback_leaves_the_plane_as_before(rail_prepared):
    """Terms recomputed inside a rolled-back move are restored."""
    prepared, library = rail_prepared
    state = make_state(prepared, library)
    rng = random.Random(3)
    before = assert_power_bit_exact(state)
    for name in rng.sample(state.network.gates(), 12):
        move = DemoteMove(name, target=state.n_rails - 1)
        state.begin_move()
        move.apply(state)
        assert assert_power_bit_exact(state).total != before.total
        move.undo(state)
        state.rollback_move()
        assert state.power() == before
    assert not state.levels


def test_resizes_mark_their_fanin_nets(rail_prepared):
    """A resize changes its fanins' loads; their terms follow."""
    prepared, library = rail_prepared
    state = make_state(prepared, library)
    rng = random.Random(5)
    assert_power_bit_exact(state)
    for _ in range(10):
        random_resize(rng, state).apply(state)
        assert_power_bit_exact(state)


def test_a_plane_first_built_inside_a_move(rail_prepared):
    """A plane whose first sweep runs inside a rolled-back move."""
    prepared, library = rail_prepared
    state = make_state(prepared, library)
    for name in state.network.gates()[:4]:
        move = DemoteMove(name, target=state.n_rails - 1)
        state.begin_move()
        move.apply(state)
        assert_power_bit_exact(state)
        move.undo(state)
        state.rollback_move()
        assert_power_bit_exact(state)
