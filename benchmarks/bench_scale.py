"""Full-STA build throughput at scale, emitting JSON.

Measures, across generated ``gen:layered:...`` circuits of increasing
size (1k / 10k / 100k gates by default), the cost of the *from-scratch*
timing build -- the operation the flat-core refactor vectorizes:

* ``serial``: the per-node serial oracle build
  (:class:`~repro.timing.sta.TimingAnalysis` over the same cached
  calculator);
* ``flat``: constructing the shared CSR :class:`FlatNetwork` snapshot
  itself (paid once per prepared circuit, amortized over every build,
  power measurement, and batched pricing sweep that follows);
* ``numpy``: the level-by-level vectorized build over the snapshot's
  NumPy planes (the engine's default);

plus a sampled batched-vs-serial Dscale pricing sweep, and the flat
power measurement (a fresh :class:`PowerPlane`'s first breakdown) vs
the serial per-node walk on a state with seeded demotions and
level-converter edges (so every converter term is exercised).  Every vectorized
result is asserted bit-identical to its serial oracle in the same run,
so the benchmark doubles as an equivalence check; any mismatch exits
non-zero.

Gates are mapped by direct truth-table lookup (every generator function
has an exact library cell), not the covering DP: the subject of this
benchmark is the timing core, and direct mapping keeps the setup linear
so 100k-gate circuits stay cheap to stage.

Run::

    PYTHONPATH=src python benchmarks/bench_scale.py [--sizes 1k,10k,100k]
        [--out bench_scale.json] [--min-speedup 5] [--quick]

``--quick`` trims the size list for CI smoke checks.  ``--min-speedup``
gates the run: the vectorized build must beat the serial build by at
least that factor on the largest measured circuit of >= 50k gates (or
the largest overall when none reaches 50k).

Peak RSS is sampled after each size via ``resource.getrusage``, so the
reported numbers are cumulative high-water marks.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy as np

from repro.bench.mcnc import load_circuit
from repro.core.dscale import check_demotion
from repro.core.moves import MoveEngine
from repro.core.state import ScalingState
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable
from repro.netlist.flat import build_flat
from repro.power.activity import probabilistic_activities
from repro.power.estimate import (
    DEFAULT_CLOCK_MHZ,
    PowerPlane,
    estimate_power_calc,
)
from repro.timing.delay import OUTPUT
from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import TimingAnalysis

SIZES: dict[str, str] = {
    "1k": "gen:layered:width=50:depth=20:seed=11",
    "10k": "gen:layered:width=100:depth=100:seed=12",
    "100k": "gen:layered:width=500:depth=200:seed=13",
}
QUICK_SIZES = ("1k",)
MIN_SPEEDUP_FLOOR_GATES = 50_000


def time_call(fn, repeat=1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def direct_map(network, match_table):
    """Assign library cells by exact truth-table match, in place.

    Every generator family emits functions the library implements
    directly (INV/BUF/AND2/OR2/XOR2/XOR3/MAJ3/MUX), so an identity-pin
    match always exists; anything else is a hard error rather than a
    silent approximation.
    """
    for node in network.nodes.values():
        if node.is_input:
            continue
        cell = None
        for candidate, perm in match_table.matches(node.function):
            if perm == tuple(range(candidate.n_inputs)):
                cell = candidate
                break
        if cell is None:
            raise SystemExit(
                f"no identity-pin library match for node {node.name!r}; "
                f"direct mapping only supports the generator families"
            )
        node.cell = cell
    return network


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_pricing_sample(state, sample=512, repeat=1):
    """Batched vs serial Dscale candidate pricing on a gate sample."""
    engine = MoveEngine(state)
    analysis = state.timing()
    lowest = state.n_rails - 1
    candidates = [
        gate for gate in state.network.gates()
        if analysis.slack(gate) > 0 and state.rail_of(gate) < lowest
    ][:sample]
    pos = state.flat().pos
    positions = np.array([pos[gate] for gate in candidates], dtype=np.intp)
    targets = np.array(
        [state.rail_of(gate) + 1 for gate in candidates], dtype=np.intp
    )
    model = engine.cost_model

    def serial():
        feasible = [
            check_demotion(state, analysis, gate, None) for gate in candidates
        ]
        gains = [
            model.demotion_gain(state, gate)
            for gate, ok in zip(candidates, feasible)
            if ok
        ]
        return feasible, gains

    def batched():
        feasible = engine.check_moves(positions, targets, analysis)
        ok = np.array(feasible, dtype=bool)
        return feasible, engine.price_moves(positions[ok], targets[ok])

    serial_s, serial_result = time_call(serial, repeat)
    batch_s, batch_result = time_call(batched, repeat)
    if serial_result != batch_result:
        raise AssertionError(
            "pricing: batched results differ from the serial loop"
        )
    return {
        "candidates": len(candidates),
        "serial_s": serial_s,
        "batch_s": batch_s,
        "speedup": serial_s / batch_s if batch_s > 0 else None,
    }


def seed_converters(state, every=4):
    """Demote every ``every``-th gate and guard its low primary outputs.

    Each demotion splices converter edges onto its higher-rail readers;
    the low primary outputs get ``(name, OUTPUT)`` converters as well.
    Timing legality is irrelevant to the power walk.
    """
    for name in state.network.gates()[::every]:
        state.demote(name)
    for name in state.network.outputs:
        if state.is_low(name):
            state.add_converter((name, OUTPUT))


def bench_power(label, state, activity, repeat):
    """Flat vs serial power walk, asserted bit-identical field by field."""
    power_serial_s, p_serial = time_call(
        lambda: estimate_power_calc(state.calc, activity), repeat
    )

    loads = state.timing().forward_loads()

    def flat_power():
        plane = PowerPlane(
            state.calc, activity, DEFAULT_CLOCK_MHZ, False, state.flat()
        )
        return plane.breakdown(loads)

    power_flat_s, p_flat = time_call(flat_power, repeat)
    fields = ("switching", "internal", "converter", "total")
    for name in fields:
        if getattr(p_flat, name) != getattr(p_serial, name):
            raise AssertionError(f"{label}: flat power {name} != serial")
    if list(p_flat.per_node.items()) != list(p_serial.per_node.items()):
        raise AssertionError(f"{label}: flat power per_node != serial")
    if not p_flat.converter > 0.0:
        raise AssertionError(f"{label}: power row priced no converter")
    return {
        "serial_s": power_serial_s,
        "flat_s": power_flat_s,
        "speedup": (
            power_serial_s / power_flat_s if power_flat_s > 0 else None
        ),
        "total_uw": p_flat.total,
        "converter_uw": p_flat.converter,
        "lc_edges": len(state.lc_edges),
    }


def bench_size(label, spec, library, match_table, slack=1.2):
    gen_s, network = time_call(lambda: load_circuit(spec))
    direct_map(network, match_table)
    gates = sum(1 for n in network.nodes.values() if not n.is_input)
    # Best-of-N damps allocator/page-fault noise on the first call of
    # each kernel; large circuits keep N small to bound wall clock.
    repeat = 3 if gates < 20_000 else 2

    activity = probabilistic_activities(network)
    state = ScalingState(network, library, tspec=0.0, activity=activity)
    network.warm_caches()

    # Anchor the timing budget on the measured minimum so the required
    # sweep works with a realistic (finite, non-degenerate) tspec.
    probe = TimingAnalysis(state.calc, 0.0)
    tspec = slack * probe.worst_delay
    state.tspec = tspec
    state.flat()

    # Freeze the setup graph (network, state, snapshot: the bulk of the
    # heap) out of the cyclic collector's reach: every discarded timing
    # engine is a reference cycle, and without the freeze the resulting
    # gen-2 sweeps traverse ~10 objects per gate inside timed kernels.
    gc.collect()
    gc.freeze()

    serial_s, oracle = time_call(
        lambda: TimingAnalysis(state.calc, tspec), repeat
    )
    flat_s, _ = time_call(lambda: build_flat(network, state.calc), repeat)
    numpy_s, engine_numpy = time_call(
        lambda: IncrementalTiming(state.calc, tspec, flat=state.flat()),
        repeat,
    )
    order, arrival, required, load = engine_numpy.levelized_arrays()
    if (
        arrival != [oracle.arrival[name] for name in order]
        or required != [oracle.required[name] for name in order]
        or load != [oracle.load[name] for name in order]
    ):
        raise AssertionError(f"{label}: numpy build != serial oracle")
    builds = {
        "serial": {"seconds": serial_s, "gates_per_s": gates / serial_s},
        "flat_snapshot": {"seconds": flat_s},
        "numpy": {
            "seconds": numpy_s,
            "gates_per_s": gates / numpy_s,
            "speedup": serial_s / numpy_s,
        },
    }

    pricing = bench_pricing_sample(state)
    seed_converters(state)
    power = bench_power(label, state, activity, repeat)

    return {
        "spec": spec,
        "gates": gates,
        "nodes": len(network.nodes),
        "tspec_ns": tspec,
        "generate_s": gen_s,
        "builds": builds,
        "build_speedup": serial_s / numpy_s,
        "power": power,
        "pricing": pricing,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default=None,
        help="comma-separated size labels to run "
        f"(default: {','.join(SIZES)})",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (default: stdout)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the vectorized build beats serial "
        "by this factor on the largest >=50k circuit",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smallest size only (CI smoke check)",
    )
    args = parser.parse_args(argv)

    if args.sizes:
        labels = [s.strip() for s in args.sizes.split(",") if s.strip()]
        unknown = [s for s in labels if s not in SIZES]
        if unknown:
            raise SystemExit(
                f"unknown size(s): {', '.join(unknown)}; "
                f"choose from {', '.join(SIZES)}"
            )
    elif args.quick:
        labels = list(QUICK_SIZES)
    else:
        labels = list(SIZES)

    library = build_compass_library()
    match_table = MatchTable(library)

    report = {"sizes": {}}
    for label in labels:
        report["sizes"][label] = bench_size(
            label, SIZES[label], library, match_table
        )
        # Thaw and drop the previous size's frozen setup graph before
        # the next one allocates its own.
        gc.unfreeze()
        gc.collect()
        entry = report["sizes"][label]
        print(
            f"  {label}: {entry['gates']} gates, serial "
            f"{entry['builds']['serial']['seconds']:.3f}s, vectorized "
            f"speedup {entry['build_speedup']:.2f}x, "
            f"rss {entry['peak_rss_mb']:.0f} MB",
            file=sys.stderr,
        )

    status = 0
    if args.min_speedup is not None:
        eligible = [
            (entry["gates"], entry["build_speedup"])
            for entry in report["sizes"].values()
            if entry["gates"] >= MIN_SPEEDUP_FLOOR_GATES
        ] or [
            (entry["gates"], entry["build_speedup"])
            for entry in report["sizes"].values()
        ]
        gates, speedup = max(eligible)
        report["gate"] = {
            "min_speedup": args.min_speedup,
            "measured_at_gates": gates,
            "measured_speedup": speedup,
        }
        if speedup < args.min_speedup:
            print(
                f"FAIL: vectorized build speedup {speedup:.2f}x at "
                f"{gates} gates is below the {args.min_speedup:.2f}x floor",
                file=sys.stderr,
            )
            status = 1

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    print(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
