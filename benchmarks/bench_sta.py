"""Incremental STA and batched pricing benchmark, emitting JSON.

Measures, on one generated benchmark circuit (default: the largest in
the suite):

* ``sta``: per-move timing-update cost -- a full ``TimingAnalysis``
  rebuild vs an :class:`IncrementalTiming` dirty-region refresh after
  each of a sequence of demotions;
* ``dscale`` / ``gscale``: end-to-end wall clock of the scaling runs
  on the incremental engine plus their move counts, asserting after
  each run that the state is legal and the engine equals a full
  rebuild (``ScalingState.full_timing``) bitwise;
* ``pricing``: throughput of one Dscale candidate sweep (feasibility
  check + gain pricing over the slack set) through the serial
  per-candidate calls vs the batched ``MoveEngine.check_moves`` /
  ``price_moves`` kernels on position and target arrays, asserting
  the results are bit-identical;
  the speedup is the median ratio of interleaved serial/batched rounds
  after a warm-up;
* ``retarget``: a three-rail Dscale with non-adjacent demotions and
  shifter retargets on a ``gen:layered`` circuit, where most tries are
  timing rejects retried round after round.  Reports the tries, the
  timing rejects, the rejects proved by replaying the last reject's
  path certificate, and the seconds with the replay on and bypassed;
  asserts that the engine equals the oracle, that ``state.power()``
  equals the serial power walk, and that every decision equals the
  replay-bypassed run's and the run's with Dscale's round cache
  bypassed.

Run::

    PYTHONPATH=src python benchmarks/bench_sta.py [--circuit C7552]
        [--out bench_sta.json] [--quick]

``--quick`` picks small circuits and trims the move count so the CI
smoke check stays under a minute.  Exit status is non-zero when the
engine ever disagrees with the oracle, making this an equivalence smoke
test as well as a benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.api import Flow, FlowConfig
from repro.core import dscale
from repro.core.cvs import run_cvs
from repro.core.dscale import check_demotion, run_dscale
from repro.core.gscale import run_gscale
from repro.core.moves import MoveEngine
from repro.core.state import ScalingState
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.power.estimate import estimate_power_calc
from repro.timing.delay import DelayCalculator
from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import TimingAnalysis

DEFAULT_CIRCUIT = "C7552"
QUICK_CIRCUIT = "C432"
RETARGET_CIRCUIT = "gen:layered:width=20:depth=15:seed=1"
QUICK_RETARGET_CIRCUIT = "gen:layered:width=10:depth=10:seed=1"
RETARGET_RAILS = (1.8, 1.0, 0.6)


def time_call(fn, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def fresh_state(prepared, library):
    return ScalingState(
        prepared.network,
        library,
        tspec=prepared.tspec,
        activity=prepared.activity,
    )


def bench_sta_updates(prepared, library, n_moves):
    """Per-move update cost: full rebuild vs incremental refresh."""
    state = fresh_state(prepared, library)
    run_cvs(state)
    engine = state.timing()
    victims = [g for g in state.network.gates() if not state.is_low(g)]
    victims = victims[:n_moves]

    full_total = 0.0
    incr_total = 0.0
    for victim in victims:
        state.demote(victim)
        elapsed, _ = time_call(lambda: engine.refresh())
        incr_total += elapsed
        elapsed, full = time_call(
            lambda: TimingAnalysis(state.calc, state.tspec)
        )
        full_total += elapsed
        if abs(full.worst_delay - engine.worst_delay) > 1e-9:
            raise AssertionError(
                f"incremental/full mismatch after demote({victim!r}): "
                f"{engine.worst_delay} vs {full.worst_delay}"
            )
        state.promote(victim)
        engine.refresh()
    moves = max(1, len(victims))
    return {
        "moves": len(victims),
        "full_ms_per_move": 1000.0 * full_total / moves,
        "incremental_ms_per_move": 1000.0 * incr_total / moves,
        # None (JSON null), not inf: the report must stay strict JSON.
        "speedup": full_total / incr_total if incr_total > 0 else None,
    }


def bench_pricing(prepared, library, rounds=31):
    """Serial vs batched pricing of one Dscale candidate sweep.

    The workload is the pre-CVS slack set -- every gate with positive
    slack that can still move down a rail, i.e. the candidate list the
    first (and largest) Dscale round prices.  Both paths must return
    bit-identical feasibility flags and gains.

    After one warm-up call of each path, ``rounds`` rounds each time
    one serial then one batched sweep back to back.  The reported
    seconds are the per-path medians and ``speedup`` is the median of
    the per-round ratios, so a burst of machine noise lands on a few
    rounds of both paths instead of on one path's best-of.
    """
    state = fresh_state(prepared, library)
    engine = MoveEngine(state)
    analysis = state.timing()
    lowest = state.n_rails - 1
    candidates = [
        (gate, None)
        for gate in state.network.gates()
        if analysis.slack(gate) > 0 and state.rail_of(gate) < lowest
    ]
    pos = state.flat().pos
    positions = np.array([pos[gate] for gate, _ in candidates], dtype=np.intp)
    targets = np.array(
        [state.rail_of(gate) + 1 for gate, _ in candidates], dtype=np.intp
    )
    model = engine.cost_model

    def serial():
        feasible = [
            check_demotion(state, analysis, gate, target)
            for gate, target in candidates
        ]
        gains = [
            model.demotion_gain(state, gate, target=target)
            for (gate, target), ok in zip(candidates, feasible)
            if ok
        ]
        return feasible, gains

    def batched():
        feasible = engine.check_moves(positions, targets, analysis)
        ok = np.array(feasible, dtype=bool)
        return feasible, engine.price_moves(positions[ok], targets[ok])

    serial_result = serial()
    if batched() != serial_result:
        raise AssertionError(
            "pricing: batched results differ from the serial loop"
        )
    serial_times = []
    batch_times = []
    for _ in range(rounds):
        serial_times.append(time_call(serial)[0])
        batch_times.append(time_call(batched)[0])
    serial_s = statistics.median(serial_times)
    batch_s = statistics.median(batch_times)
    n = len(candidates)
    return {
        "candidates": n,
        "feasible": sum(serial_result[0]),
        "serial_s": serial_s,
        "batch_s": batch_s,
        "serial_moves_per_s": n / serial_s if serial_s > 0 else None,
        "batch_moves_per_s": n / batch_s if batch_s > 0 else None,
        "speedup": statistics.median(
            s / b for s, b in zip(serial_times, batch_times)
        ),
    }


def assert_engine_is_oracle(state, label):
    """The engine's arrays and worst delay == a full rebuild, bitwise."""
    engine = state.timing()
    order, arrival, required, load = engine.levelized_arrays()
    oracle = state.full_timing()
    if (
        arrival != [oracle.arrival[name] for name in order]
        or required != [oracle.required[name] for name in order]
        or load != [oracle.load[name] for name in order]
        or engine.worst_delay != oracle.worst_delay
    ):
        raise AssertionError(
            f"{label}: engine differs from the full-rebuild oracle"
        )


def assert_power_is_serial(state, label):
    """``state.power()`` == the serial walk on an uncached calculator."""
    calc = DelayCalculator(
        state.network,
        state.library,
        levels=state.levels,
        lc_edges=state.lc_edges,
        cells=state.cells,
        lc_kind=state.options.lc_kind,
        po_load=state.options.po_load,
    )
    serial = estimate_power_calc(
        calc,
        state.activity,
        clock_mhz=state.options.clock_mhz,
        include_input_nets=state.options.include_input_nets,
    )

    def parts(power):
        return (
            power.switching,
            power.internal,
            power.converter,
            power.total,
            list(power.per_node.items()),
        )

    if parts(state.power()) != parts(serial):
        raise AssertionError(f"{label}: power differs from the serial walk")


def _every_gate_stale(flat, noted, *_):
    """Dscale's round cache bypassed: every pair re-checked and re-priced."""
    stale = np.ones_like(noted)
    return stale, stale


def bench_end_to_end(prepared, library, runner, label):
    """One algorithm on the engine; asserts a legal, oracle-exact end.

    The per-move-kind counters (attempted / committed / rolled back,
    from the state's :class:`MoveStats`) join the report, so a perf
    regression is attributable to the move mix that produced it.
    """
    best = float("inf")
    for _ in range(2):  # best-of-2 damps scheduler noise
        state = fresh_state(prepared, library)
        elapsed, _ = time_call(lambda: runner(state))
        best = min(best, elapsed)
        state.validate()
        assert_engine_is_oracle(state, label)
    return {
        "incremental_s": best,
        "moves": state.move_stats.as_dict(),
    }


@contextmanager
def patched(owner, name, value):
    """Temporarily replace ``owner.name`` with ``value``."""
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def bench_retarget(circuit, repeat):
    """Three-rail Dscale with retargets, replay on vs bypassed.

    The seconds are best-of-``repeat`` unobserved runs each way.  One
    more run each way logs every ``try_move`` as ``(kind, key, ok)``;
    the two logs and final states must be equal, because a replayed
    reject is a proof the full timing check would reach too.  A reject
    is a timing reject when the try measured no power (Dscale passes
    its power baseline in).
    """
    library = build_compass_library(rails=RETARGET_RAILS)
    prepared = Flow(
        FlowConfig(circuit=circuit, rails=RETARGET_RAILS),
        library=library,
        match_table=MatchTable(library),
    ).prepare()

    def run():
        state = fresh_state(prepared, library)
        run_dscale(state, non_adjacent=True, retarget_shifters=True)
        return state

    def observed():
        counts = {"powers": 0, "replayed": 0}
        log = []
        try_move = MoveEngine.try_move
        replay_exceeds = IncrementalTiming.replay_exceeds
        power = ScalingState.power

        def logged_try(self, move, *args, **kwargs):
            powers = counts["powers"]
            ok = try_move(self, move, *args, **kwargs)
            log.append((move.kind, move.key, ok, counts["powers"] > powers))
            return ok

        def counted_replay(self, path, limit):
            proved = replay_exceeds(self, path, limit)
            counts["replayed"] += proved
            return proved

        def counted_power(self):
            counts["powers"] += 1
            return power(self)

        with (
            patched(MoveEngine, "try_move", logged_try),
            patched(IncrementalTiming, "replay_exceeds", counted_replay),
            patched(ScalingState, "power", counted_power),
        ):
            state = run()
        state.validate()
        assert_engine_is_oracle(state, "retarget")
        assert_power_is_serial(state, "retarget")
        cells = {
            name: node.cell
            for name, node in state.network.nodes.items()
            if node.cell is not None
        }
        outcome = (
            [entry[:3] for entry in log],
            dict(state.levels),
            set(state.lc_edges),
            cells,
            state.move_stats.as_dict(),
        )
        timing_rejects = sum(
            1 for _, _, ok, measured in log if not ok and not measured
        )
        return outcome, len(log), timing_rejects, counts["replayed"]

    replay_s, _ = time_call(run, repeat)
    shipped, tries, timing_rejects, replayed = observed()
    with patched(
        IncrementalTiming, "replay_exceeds", lambda self, path, limit: False
    ):
        bypassed_s, _ = time_call(run, repeat)
        bypassed, _, _, _ = observed()
    if shipped != bypassed:
        raise AssertionError(
            "retarget: decisions differ with the replay bypassed"
        )
    with patched(dscale, "_stale_positions", _every_gate_stale):
        uncached, _, _, _ = observed()
    if shipped != uncached:
        raise AssertionError(
            "retarget: decisions differ with the round cache bypassed"
        )
    return {
        "circuit": circuit,
        "rails": list(RETARGET_RAILS),
        "tries": tries,
        "timing_rejects": timing_rejects,
        "replayed_rejects": replayed,
        "replay_s": replay_s,
        "bypassed_s": bypassed_s,
        "speedup": bypassed_s / replay_s if replay_s > 0 else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--circuit",
        default=None,
        help="benchmark circuit name (see repro.bench.mcnc)",
    )
    parser.add_argument(
        "--moves",
        type=int,
        default=60,
        help="demotions to time in the per-move benchmark",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (default: stdout)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small circuit + fewer moves (CI smoke check)",
    )
    args = parser.parse_args(argv)

    circuit = args.circuit or (
        QUICK_CIRCUIT if args.quick else DEFAULT_CIRCUIT
    )
    moves = min(args.moves, 20) if args.quick else args.moves

    library = build_compass_library()
    prepared = Flow(
        FlowConfig(circuit=circuit),
        library=library,
        match_table=MatchTable(library),
    ).prepare()
    gates = sum(1 for n in prepared.network.nodes.values() if not n.is_input)

    report = {
        "circuit": circuit,
        "gates": gates,
        "tspec_ns": prepared.tspec,
        "sta": bench_sta_updates(prepared, library, moves),
        "pricing": bench_pricing(prepared, library),
        "dscale": bench_end_to_end(prepared, library, run_dscale, "dscale"),
        "gscale": bench_end_to_end(prepared, library, run_gscale, "gscale"),
        "retarget": bench_retarget(
            QUICK_RETARGET_CIRCUIT if args.quick else RETARGET_CIRCUIT,
            repeat=1 if args.quick else 3,
        ),
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
