"""Whole-Flow benchmark: the wall-clock of real ``Flow`` runs, checked.

Run from the repository root::

    python3 perfbench/run.py --workload mcnc|gen-dual|gen-msv \\
        [--seed N] [--seconds S] [--trace 0|1] [--gen-seed K]

``--seed`` sets the job order; ``--gen-seed`` picks the generated
circuit of ``gen-dual``/``gen-msv`` (default: the seed the reference
rows were recorded on).  ``--trace 0`` reports the end-to-end metrics of
an untraced run; ``--trace 1`` reports the per-layer metrics of traced
passes, alternated with untraced ones for the overhead estimate.
Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports and
span traces are written under ``perfbench/out/``.

``--write-reference`` re-records the workload's reference rows from
the current code (default circuit seed only).  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mcnc", "gen-dual", "gen-msv"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-seed", type=int, default=None)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def _import_repro():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a "
                 f"checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not "
                 f"from {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_repro()
    import flowbench as fb
    from spans import Tracer

    workload = fb.make_workload(args.workload, args.gen_seed)
    reference = None if args.write_reference else fb.load_reference(workload)
    checker = fb.Checker(reference)
    env = fb.environment()
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"gen_seed={workload.gen_seed} jobs/pass={workload.n_jobs} "
          f"reference={'yes' if reference is not None else 'no'} "
          f"env={json.dumps(env, sort_keys=True)}", flush=True)

    setup = fb.set_up(workload)
    report = {"workload": workload.name, "seed": args.seed,
              "gen_seed": workload.gen_seed, "env": env}
    drift = []
    if args.trace:
        tracer = Tracer()
        untraced, traced = fb.run_traced(workload, setup, checker,
                                         args.seed, tracer)
        for site in tracer.missing:
            print(f"WARNING: traced entry point not found: {site}")
        passes = untraced + traced
        metrics, drift = fb.layer_metrics(untraced, traced)
        units = fb.PER_LAYER
        report["spans_file"] = str(_write_spans(args, workload, traced))
    else:
        passes = fb.run_passes(workload, setup, checker, args.seed,
                               fb.pass_count(workload, args.seconds))
        metrics = fb.end_to_end_metrics(workload, setup, passes)
        units = fb.END_TO_END
    report["passes"] = len(passes)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed_jobs = len({(i, key) for i, p in enumerate(passes)
                       for key, _ in p.failures})
    if args.trace:
        attempted += len(fb.EXACT_COUNTS)
    failed = failed_jobs + len(drift)

    for key, problem in failures:
        print(f"FAIL {key}: {problem}")
    for name, values in drift:
        print(f"FAIL count drift {name}: {values}")
    print(f"passes: {len(passes)}"
          + (f", {fb.TRACED_PASSES} of them traced" if args.trace else ""))
    print("pass flow_s:", " ".join(f"{p.flow_s:.3f}" for p in passes))
    print(f"uncalibrated flow_s, fastest pass per item: "
          f"{fb.best_flow(passes):.4f} s; mean CPU speed "
          f"{fb.mean_speed(passes):.3f} of the reference")
    print(f"fail_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if args.trace:
        _print_self_times(traced[0].records)

    if args.write_reference:
        if failures:
            print("not writing reference rows: the run had failures")
            return 1
        print(f"wrote {fb.write_reference(workload, checker.rows)}")

    report.update(metrics=metrics, failures=failures, drift=drift,
                  attempted=attempted, failed=failed)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _print_self_times(records) -> None:
    from spans import span_table

    table = span_table(records)
    print("self time by layer, first traced pass:")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<20} {row['self_s']:9.4f} s  {row['calls']:7d} calls")


def _write_spans(args, workload, traced) -> Path:
    from spans import span_table

    path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {"pass": index, "layers": span_table(p.records), "spans": p.records}
        for index, p in enumerate(traced)
    ]
    path.write_text(json.dumps(payload) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
