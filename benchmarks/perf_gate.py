"""CI perf-regression gate for the incremental timing engine.

Compares a freshly measured ``bench_sta.py`` JSON report against the
committed baseline (``benchmarks/baselines/bench_sta.json``) and exits
non-zero when a gated metric regressed more than the allowed fraction.

The gated metrics are *speedup ratios* (serial-path time divided by
fast-path time), not absolute wall-clock: ratios compare the two code
paths on the same machine in the same run, so the gate is stable
across runner hardware while still catching changes that erode the
fast paths' advantage.

Gated:

* ``sta.speedup``     -- per-move STA update (full rebuild / refresh);
* ``pricing.speedup`` -- batched vs serial move pricing.  On a
  ``C7552`` report the vectorized kernel must also clear an absolute
  3.0x floor, independent of the baseline.

Run::

    PYTHONPATH=src python benchmarks/perf_gate.py \
        --baseline benchmarks/baselines/bench_sta.json \
        --current bench_sta.json [--max-regression 0.25]

To refresh the baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_sta.py --quick \
        --out benchmarks/baselines/bench_sta.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "bench_sta.json",
)
DEFAULT_MAX_REGRESSION = 0.25

GATED_METRICS = (
    ("sta", "speedup", "per-move STA speedup"),
    ("pricing", "speedup", "batched move-pricing speedup"),
)

# The vectorized pricing kernel must beat the serial loop by at least
# this factor on the big default circuit -- an absolute acceptance
# floor, not a relative regression bound.
PRICING_FLOOR = 3.0
PRICING_FLOOR_CIRCUIT = "C7552"


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(
    baseline: dict,
    current: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    if baseline.get("circuit") != current.get("circuit"):
        failures.append(
            "circuit mismatch: baseline measured "
            f"{baseline.get('circuit')!r}, current measured "
            f"{current.get('circuit')!r} -- reports are not comparable"
        )
        return failures

    for section, key, label in GATED_METRICS:
        base = (baseline.get(section) or {}).get(key)
        cur = (current.get(section) or {}).get(key)
        if not isinstance(base, (int, float)) or base <= 0:
            failures.append(
                f"{label}: baseline value missing or invalid ({base!r})"
            )
            continue
        if not isinstance(cur, (int, float)) or cur <= 0:
            failures.append(
                f"{label}: current value missing or invalid ({cur!r})"
            )
            continue
        regression = (base - cur) / base
        verdict = "FAIL" if regression > max_regression else "ok"
        print(
            f"{verdict:>4}  {label}: baseline {base:.2f}x, "
            f"current {cur:.2f}x "
            f"({-regression:+.1%} vs baseline, limit -{max_regression:.0%})"
        )
        if regression > max_regression:
            failures.append(
                f"{label} regressed {regression:.1%} "
                f"(baseline {base:.2f}x -> current {cur:.2f}x, "
                f"limit {max_regression:.0%})"
            )

    if current.get("circuit") == PRICING_FLOOR_CIRCUIT:
        speedup = (current.get("pricing") or {}).get("speedup")
        if not isinstance(speedup, (int, float)) or speedup < PRICING_FLOOR:
            failures.append(
                f"batched pricing speedup {speedup!r} is below the "
                f"absolute {PRICING_FLOOR:.1f}x floor on "
                f"{PRICING_FLOOR_CIRCUIT}"
            )
        else:
            print(
                f"  ok  batched pricing floor: {speedup:.2f}x >= "
                f"{PRICING_FLOOR:.1f}x on {PRICING_FLOOR_CIRCUIT}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="freshly measured bench_sta.py JSON",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional drop per metric (default 0.25)",
    )
    args = parser.parse_args(argv)

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    failures = check(baseline, current, max_regression=args.max_regression)
    if failures:
        print()
        for failure in failures:
            print(f"perf gate FAILED: {failure}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
