"""Full vs incremental STA benchmark, emitting JSON.

Measures, on one generated benchmark circuit (default: the largest in
the suite):

* ``sta``: per-move timing-update cost -- a full ``TimingAnalysis``
  rebuild vs an :class:`IncrementalTiming` dirty-region refresh after
  each of a sequence of demotions;
* ``dscale`` / ``gscale``: end-to-end wall clock of the full scaling
  runs with ``ScalingOptions(incremental=False)`` (the seed's
  rebuild-per-move behaviour) vs the incremental engine, asserting both
  modes produce identical results;
* ``pricing``: throughput of one Dscale candidate sweep (feasibility
  check + gain pricing over the slack set) through the serial
  per-candidate calls vs the batched ``MoveEngine.check_moves`` /
  ``price_moves`` kernels, asserting the results are bit-identical.

Run::

    PYTHONPATH=src python benchmarks/bench_sta.py [--circuit C7552]
        [--out bench_sta.json] [--quick]

``--quick`` picks a small circuit and trims the move count so the CI
smoke check stays under a minute.  Exit status is non-zero when the two
modes disagree, making this an equivalence smoke test as well as a
benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.cvs import run_cvs
from repro.core.dscale import check_demotion, run_dscale
from repro.core.gscale import run_gscale
from repro.core.moves import DemoteMove, MoveEngine
from repro.core.state import ScalingOptions, ScalingState
from repro.api import Flow, FlowConfig
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.timing.sta import TimingAnalysis

DEFAULT_CIRCUIT = "C7552"
QUICK_CIRCUIT = "C432"


def time_call(fn, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_sta_updates(prepared, library, n_moves):
    """Per-move update cost: full rebuild vs incremental refresh."""
    state = ScalingState(prepared.fresh_copy(), library,
                         tspec=prepared.tspec, activity=prepared.activity)
    run_cvs(state)
    engine = state.timing()
    victims = [g for g in state.network.gates()
               if not state.is_low(g)][:n_moves]

    full_total = 0.0
    incr_total = 0.0
    for victim in victims:
        state.demote(victim)
        elapsed, _ = time_call(lambda: engine.refresh())
        incr_total += elapsed
        elapsed, full = time_call(
            lambda: TimingAnalysis(state.calc, state.tspec))
        full_total += elapsed
        if abs(full.worst_delay - engine.worst_delay) > 1e-9:
            raise AssertionError(
                f"incremental/full mismatch after demote({victim!r}): "
                f"{engine.worst_delay} vs {full.worst_delay}")
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


def bench_pricing(prepared, library, repeat=5):
    """Serial vs batched pricing of one Dscale candidate sweep.

    The workload is the pre-CVS slack set -- every gate with positive
    slack that can still move down a rail, i.e. the candidate list the
    first (and largest) Dscale round prices.  Both paths must return
    bit-identical feasibility flags and gains.
    """
    state = ScalingState(prepared.fresh_copy(), library,
                         tspec=prepared.tspec, activity=prepared.activity)
    engine = MoveEngine(state)
    analysis = state.timing()
    lowest = state.n_rails - 1
    candidates = [(gate, None) for gate in state.network.gates()
                  if analysis.slack(gate) > 0
                  and state.rail_of(gate) < lowest]
    moves = [DemoteMove(gate, target=target) for gate, target in candidates]
    model = engine.cost_model

    def serial():
        feasible = [check_demotion(state, analysis, gate, target)
                    for gate, target in candidates]
        gains = [model.demotion_gain(state, gate, target=target)
                 for (gate, target), ok in zip(candidates, feasible) if ok]
        return feasible, gains

    def batched():
        feasible = engine.check_moves(moves, analysis)
        picked = [move for move, ok in zip(moves, feasible) if ok]
        return feasible, engine.price_moves(picked)

    serial_s, serial_result = time_call(serial, repeat)
    batch_s, batch_result = time_call(batched, repeat)
    if serial_result != batch_result:
        raise AssertionError(
            "pricing: batched results differ from the serial loop")
    n = len(candidates)
    return {
        "candidates": n,
        "feasible": sum(serial_result[0]),
        "serial_s": serial_s,
        "batch_s": batch_s,
        "serial_moves_per_s": n / serial_s if serial_s > 0 else None,
        "batch_moves_per_s": n / batch_s if batch_s > 0 else None,
        "speedup": serial_s / batch_s if batch_s > 0 else None,
    }


def bench_end_to_end(prepared, library, runner, label):
    """One algorithm, both modes; asserts identical outcomes.

    The per-move-kind counters (attempted / committed / rolled back,
    from the state's :class:`MoveStats`) join the equivalence check --
    the two timing modes must make identical move decisions -- and the
    report, so a perf regression is attributable to the move mix that
    produced it.
    """
    timings = {}
    outcomes = {}
    moves = {}
    for incremental in (False, True):
        best = float("inf")
        for _ in range(2):  # best-of-2 damps scheduler noise
            state = ScalingState(
                prepared.fresh_copy(), library, tspec=prepared.tspec,
                activity=prepared.activity,
                options=ScalingOptions(incremental=incremental))
            elapsed, _ = time_call(lambda: runner(state))
            best = min(best, elapsed)
        timings[incremental] = best
        moves[incremental] = state.move_stats.as_dict()
        outcomes[incremental] = (
            sorted(state.low_nodes()),
            sorted(state.lc_edges),
            {name: node.cell.name
             for name, node in state.network.nodes.items()
             if node.cell is not None},
            round(state.power().total, 9),
            moves[incremental],
        )
    if outcomes[False] != outcomes[True]:
        raise AssertionError(
            f"{label}: incremental and full modes disagree")
    return {
        "full_s": timings[False],
        "incremental_s": timings[True],
        "speedup": (timings[False] / timings[True]
                    if timings[True] > 0 else None),
        "moves": moves[True],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default=None,
                        help="benchmark circuit name (see repro.bench.mcnc)")
    parser.add_argument("--moves", type=int, default=60,
                        help="demotions to time in the per-move benchmark")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="small circuit + fewer moves (CI smoke check)")
    args = parser.parse_args(argv)

    circuit = args.circuit or (QUICK_CIRCUIT if args.quick
                               else DEFAULT_CIRCUIT)
    moves = min(args.moves, 20) if args.quick else args.moves

    library = build_compass_library()
    prepared = Flow(FlowConfig(circuit=circuit), library=library,
                    match_table=MatchTable(library)).prepare()
    gates = sum(1 for n in prepared.network.nodes.values()
                if not n.is_input)

    report = {
        "circuit": circuit,
        "gates": gates,
        "tspec_ns": prepared.tspec,
        "sta": bench_sta_updates(prepared, library, moves),
        "pricing": bench_pricing(prepared, library),
        "dscale": bench_end_to_end(prepared, library, run_dscale, "dscale"),
        "gscale": bench_end_to_end(prepared, library, run_gscale, "gscale"),
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
