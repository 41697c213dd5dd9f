"""A timing-rejected move costs a bounded slice of its forward cone.

``MoveEngine.try_move`` asks the timing engine one question: is the
post-move worst delay above the limit?  The forward repair stops at the
first path certificate that proves the answer is yes, so a rejected
shifter retarget no longer re-times its whole forward cone.  A retry of
the same move first replays the path that proved its last reject, so
most retries re-time nothing at all, and a retry after such a replay
whose inputs have not changed opens no transaction at all.
"""

import contextlib
import functools
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Flow, FlowConfig
from repro.core.cvs import run_cvs
from repro.core.moves import (
    DemoteMove,
    DropConverterMove,
    MoveEngine,
    ResizeMove,
    RetargetShifterMove,
    _Certificate,
)
from repro.core.state import ScalingState
from repro.flow.store import normalize_row
from repro.timing.incremental import IncrementalTiming

CIRCUIT = "gen:layered:width=10:depth=10:seed=1"
RAILS = (1.8, 1.0, 0.6)

MAX_MEAN_ARRIVALS = 5
"""The bound on mean arrival recomputes per timing-rejected try.

About 1.5 measured with replayed certificates, about 10 with the early
exit alone; re-timing the whole forward cone costs about 92."""

MIN_REPLAYS = 300
"""Replayed rejects of the run; 420 measured."""


def test_timing_rejected_tries_stop_early(monkeypatch):
    counts = {"arrivals": 0, "powers": 0, "replayed": 0, "opened": 0}
    tries = []
    compute_arrival = IncrementalTiming._compute_arrival
    replay_exceeds = IncrementalTiming.replay_exceeds
    power = ScalingState.power
    begin_move = ScalingState.begin_move
    try_move = MoveEngine.try_move

    def counted_arrival(self, name):
        counts["arrivals"] += 1
        return compute_arrival(self, name)

    def counted_replay(self, path, limit):
        proved = replay_exceeds(self, path, limit)
        counts["replayed"] += proved
        return proved

    def counted_power(self):
        counts["powers"] += 1
        return power(self)

    def counted_begin(self):
        counts["opened"] += 1
        return begin_move(self)

    def recorded_try(self, move, *args, **kwargs):
        before = dict(counts)
        ok = try_move(self, move, *args, **kwargs)
        tries.append((ok, *(counts[key] - before[key] for key in counts)))
        return ok

    monkeypatch.setattr(IncrementalTiming, "_compute_arrival", counted_arrival)
    monkeypatch.setattr(IncrementalTiming, "replay_exceeds", counted_replay)
    monkeypatch.setattr(ScalingState, "power", counted_power)
    monkeypatch.setattr(ScalingState, "begin_move", counted_begin)
    monkeypatch.setattr(MoveEngine, "try_move", recorded_try)
    config = FlowConfig(
        circuit=CIRCUIT,
        rails=RAILS,
        method="dscale",
        non_adjacent=True,
        retarget_shifters=True,
    )
    Flow(config).run()

    # Power-gated callers pass their baseline in, so a rejected try
    # that measured no power was rejected on timing.
    rejected = [
        arrivals
        for ok, arrivals, powers, _, _ in tries
        if not ok and not powers
    ]
    assert len(rejected) >= 100
    assert sum(rejected) / len(rejected) <= MAX_MEAN_ARRIVALS

    replayed = [arrivals for ok, arrivals, _, proved, _ in tries if proved]
    skipped = [try_ for try_ in tries if not try_[4]]
    assert len(replayed) + len(skipped) >= MIN_REPLAYS
    assert not any(ok for ok, _, _, proved, _ in tries if proved)
    assert not any(replayed)
    assert len(skipped) >= 200
    assert not any(ok or arrivals for ok, arrivals, *_ in skipped)


MSV = dict(method="dscale", non_adjacent=True, retarget_shifters=True)
JOBS = (MSV, dict(MSV, cost_model="placement"), dict(method="gscale"))


def _scaled(prepared, base, monkeypatch):
    """Every job's try log, final state and store row."""
    log = []
    try_move = MoveEngine.try_move

    def logged_try(self, move, *args, **kwargs):
        ok = try_move(self, move, *args, **kwargs)
        log.append((move.kind, move.key, ok))
        return ok

    monkeypatch.setattr(MoveEngine, "try_move", logged_try)
    runs = []
    for options in JOBS:
        ctx = Flow(base.replace(**options)).execute(prepared=prepared)
        state = ctx.state
        cells = {
            name: state.cell(name)
            for name, node in state.network.nodes.items()
            if node.cell is not None
        }
        runs.append(
            (
                dict(state.levels),
                set(state.lc_edges),
                cells,
                state.move_stats.as_dict(),
                normalize_row(ctx.artifact.to_row()),
            )
        )
    return log, runs


def test_replayed_rejects_change_no_decision(monkeypatch):
    """Dscale and Gscale decide identically with the replay bypassed."""
    for circuit in (CIRCUIT, "gen:layered:width=12:depth=8:seed=2"):
        base = FlowConfig(circuit=circuit, rails=RAILS)
        prepared = Flow(base).prepare()
        shipped = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(
            IncrementalTiming,
            "replay_exceeds",
            lambda self, path, limit: False,
        )
        bypassed = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        assert shipped == bypassed
        assert any(kind == "retarget" for kind, _, _ in shipped[0])


SKIP_CIRCUITS = (
    CIRCUIT,
    "gen:layered:width=12:depth=8:seed=2",
    "gen:layered:width=20:depth=15:seed=7",
)


def test_skipped_retries_change_no_decision(monkeypatch):
    """Dscale and Gscale decide identically with only the skip bypassed."""
    for circuit in SKIP_CIRCUITS:
        base = FlowConfig(circuit=circuit, rails=RAILS)
        prepared = Flow(base).prepare()
        opened = []
        begin_move = ScalingState.begin_move

        def counted_begin(self):
            opened.append(None)
            return begin_move(self)

        monkeypatch.setattr(ScalingState, "begin_move", counted_begin)
        shipped = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        monkeypatch.setattr(_Certificate, "stands", lambda self, *args: False)
        bypassed = _scaled(prepared, base, monkeypatch)
        monkeypatch.undo()
        assert shipped == bypassed, circuit
        assert len(opened) < len(shipped[0]), circuit


class _Verdicts:
    """Runs every try in full and logs what the skip would have said.

    Each entry is ``(key, skip, proved, total, ok)``: the move's key,
    whether its record stood (the try would have been skipped), whether
    the replay proved a reject, the sum that replay reached and whether
    the try committed.
    """

    def __init__(self):
        self.log = []
        self._skip = self._proved = False
        self._total = None

    def stands(self, record, *args):
        self._skip = _STANDS(record, *args)
        return False

    def replay_exceeds(self, engine, path, limit):
        self._proved = _REPLAY_EXCEEDS(engine, path, limit)
        if self._proved:
            self._total = _replayed_sum(engine, path)
        return self._proved

    def try_move(self, move_engine, move, *args, **kwargs):
        self._skip = self._proved = False
        self._total = None
        ok = _TRY_MOVE(move_engine, move, *args, **kwargs)
        self.log.append((move.key, self._skip, self._proved, self._total, ok))
        return ok

    @contextlib.contextmanager
    def patched(self):
        """Route the three calls through here."""
        with (
            mock.patch.object(_Certificate, "stands", _method(self.stands)),
            mock.patch.object(
                IncrementalTiming,
                "replay_exceeds",
                _method(self.replay_exceeds),
            ),
            mock.patch.object(MoveEngine, "try_move", _method(self.try_move)),
        ):
            yield

    def assert_sound(self):
        """Every try the record would have skipped replays to the same
        sum as the replay that made the record, and so rejects."""
        last = {}
        for key, skip, proved, total, ok in self.log:
            if skip:
                assert proved and not ok
                assert total == last[key], key
            if proved:
                last[key] = total

    @property
    def skips(self) -> int:
        return sum(skip for _, skip, *_ in self.log)


_STANDS = _Certificate.stands
_REPLAY_EXCEEDS = IncrementalTiming.replay_exceeds
_TRY_MOVE = MoveEngine.try_move


def _method(bound):
    """A plain function that passes its ``self`` on to ``bound``."""
    return lambda owner, *args, **kwargs: bound(owner, *args, **kwargs)


def _replayed_sum(engine, path) -> float:
    """The positive sum a replay of ``path`` reaches, by bisecting the
    limit over the ordered bit patterns of the positive floats."""
    lo, hi = 0, _float_bits(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _REPLAY_EXCEEDS(engine, path, _bits_float(mid)):
            lo = mid
        else:
            hi = mid
    return _bits_float(hi)


def _float_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def test_every_skip_is_a_replayed_reject():
    """Each try the skip would answer is, run in full, a replayed reject."""
    verdicts = _Verdicts()
    for circuit in SKIP_CIRCUITS[:2]:
        base = FlowConfig(circuit=circuit, rails=RAILS)
        prepared = Flow(base).prepare()
        for options in JOBS:
            with verdicts.patched():
                Flow(base.replace(**options)).execute(prepared=prepared)
    verdicts.assert_sound()
    assert verdicts.skips >= 200


@functools.cache
def _prepared_msv():
    flow = Flow(FlowConfig(circuit=CIRCUIT, rails=RAILS))
    return flow, flow.prepare()


def _retry_setup():
    """A 3-rail state after CVS, its move engine, a pool of critical
    gates to retarget and a cap per pool gate.

    Each cap sits one float below the gate's post-move worst delay, so
    any speed-up of a retarget's certificate path flips its verdict.
    """
    flow, prepared = _prepared_msv()
    state = ScalingState(
        prepared.network,
        flow.library,
        prepared.tspec,
        activity=prepared.activity,
        options=flow.config.options,
    )
    run_cvs(state)
    network = state.network
    lowest = state.n_rails - 1
    pool = [
        name
        for name in state.timing().critical_path()
        if not network.nodes[name].is_input and state.rail_of(name) < lowest
    ][:8]
    caps = {}
    for name in pool:
        move = RetargetShifterMove(name)
        state.begin_move()
        move.apply(state)
        caps[name] = math.nextafter(state.timing().worst_delay, -math.inf)
        move.undo(state)
        state.rollback_move()
    return state, MoveEngine(state), pool, caps


@pytest.mark.parametrize("mode", ["outside", "commit"])
def test_an_upstream_move_voids_the_record(monkeypatch, mode):
    """A demotion on a record's certificate path, upstream of where the
    replay starts, stamps no position the record checks; only the
    arrival the replay starts from moves.  A retry after it opens a
    transaction again.  Dscale's antichain demotes outside any
    transaction and leaves that arrival's repair pending; a committed
    transaction stamps it at commit."""
    state, engine, pool, caps = _retry_setup()
    lowest = state.n_rails - 1
    opened = []
    begin_move = ScalingState.begin_move

    def counted_begin(self):
        opened.append(None)
        return begin_move(self)

    monkeypatch.setattr(ScalingState, "begin_move", counted_begin)

    def retry(name):
        """Whether a try of ``name``'s retarget opened a transaction."""
        before = len(opened)
        engine.try_move(RetargetShifterMove(name), worst_delay_cap=caps[name])
        return len(opened) > before

    voided = 0
    for name in pool:
        retry(name)
        retry(name)
        record = engine._certificates.get(RetargetShifterMove(name).key)
        if record is None or record.engine is None:
            continue
        start = state.timing().replay_start
        upstream = [
            gate
            for gate, _ in record.path[1:start]
            if state.rail_of(gate) < lowest
        ]
        if not upstream:
            continue
        assert not retry(name)
        if mode == "outside":
            DemoteMove(upstream[-1]).apply(state)
        else:
            state.begin_move()
            DemoteMove(upstream[-1]).apply(state)
            assert state.timing().worst_delay > 0
            state.commit_move()
        assert retry(name)
        voided += 1
    assert voided


def _history_move(rng, state, kind, near):
    """One random demotion, resize or converter drop, or ``None``.

    Three in four picks come from ``near`` (gates around the retried
    pool), where a change can reach what a recorded replay read.
    """
    gates = near if rng.random() < 0.75 else state.network.gates()
    if kind == "demote":
        lowest = state.n_rails - 1
        cands = [g for g in gates if state.rail_of(g) < lowest]
        return DemoteMove(rng.choice(cands)) if cands else None
    if kind == "resize":
        name = rng.choice(gates)
        variants = state.library.variants(state.cell(name).base)
        return ResizeMove(name, rng.choice(variants))
    edges = sorted(e for e in state.lc_edges if e[0] in gates)
    if edges:
        return DropConverterMove(rng.choice(edges))
    return None


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    history=st.lists(
        st.tuples(
            st.sampled_from(("demote", "resize", "drop")),
            st.sampled_from(("commit", "rollback", "outside")),
        ),
        max_size=10,
    ),
)
def test_skip_implies_the_full_try_rejects(seed, history):
    """Random committed, rolled-back and unopened moves between retries.

    After each step every retarget of a fixed pool of critical gates is
    retried in full under its cap; whenever its record stood, the full
    try replayed to the same sum as the replay that made the record,
    and rejected.  "outside" applies the move with no transaction, as
    Dscale's antichain does, so its arrival repair is still pending at
    the next retry.
    """
    state, engine, pool, caps = _retry_setup()
    network = state.network
    lowest = state.n_rails - 1
    near = set(pool)
    for name in pool:
        near.update(network.fanouts(name))
        for fanin in network.nodes[name].fanins:
            near.add(fanin)
            near.update(network.nodes[fanin].fanins)
    near = sorted(g for g in near if not network.nodes[g].is_input)
    rng = random.Random(seed)
    verdicts = _Verdicts()

    def retry_pool():
        # A shuffled order lets every retarget be the first try after
        # an unopened move.
        for name in rng.sample(pool, len(pool)):
            if state.rail_of(name) < lowest:
                engine.try_move(
                    RetargetShifterMove(name), worst_delay_cap=caps[name]
                )

    with verdicts.patched():
        retry_pool()
        retry_pool()
        for kind, mode in history:
            move = _history_move(rng, state, kind, near)
            if move is None:
                continue
            if mode == "outside":
                move.apply(state)
            else:
                state.begin_move()
                move.apply(state)
                assert state.timing().worst_delay >= 0
                if mode == "commit":
                    state.commit_move()
                else:
                    move.undo(state)
                    state.rollback_move()
            retry_pool()
    verdicts.assert_sound()

    timing = state.timing()
    order, arrival, required, load = timing.levelized_arrays()
    oracle = state.full_timing()
    assert arrival == [oracle.arrival[name] for name in order]
    assert required == [oracle.required[name] for name in order]
    assert load == [oracle.load[name] for name in order]
