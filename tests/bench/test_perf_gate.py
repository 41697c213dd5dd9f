"""Perf-gate tests: the committed baseline and the compare script.

The acceptance behaviour the CI workflow relies on: the gate passes on
an identical re-measurement and demonstrably fails on a synthetic 2x
slowdown of the fast paths.
"""

import copy
import json

import pytest

from benchmarks.perf_gate import (
    DEFAULT_BASELINE,
    check,
    load_report,
    main,
)


@pytest.fixture(scope="module")
def baseline():
    return load_report(DEFAULT_BASELINE)


def _slowed_down(report, factor=2.0):
    """The report bench_sta.py would emit if the incremental engine and
    the batched pricing ran ``factor`` times slower (speedup ratios
    shrink by ``factor``)."""
    slowed = copy.deepcopy(report)
    for section, key in (("sta", "incremental_ms_per_move"),
                         ("pricing", "batch_s")):
        entry = slowed[section]
        entry["speedup"] = entry["speedup"] / factor
        entry[key] = entry[key] * factor
    return slowed


def test_committed_baseline_shape(baseline):
    assert baseline["circuit"]
    assert baseline["sta"]["speedup"] > 1.0
    assert baseline["pricing"]["speedup"] > 1.0


def test_gate_passes_on_identical_report(baseline, capsys):
    assert check(baseline, copy.deepcopy(baseline)) == []


def test_gate_tolerates_small_noise(baseline):
    noisy = copy.deepcopy(baseline)
    noisy["sta"]["speedup"] *= 0.85      # -15%: inside the 25% band
    noisy["pricing"]["speedup"] *= 0.90
    assert check(baseline, noisy) == []


def test_gate_fails_on_synthetic_2x_slowdown(baseline):
    failures = check(baseline, _slowed_down(baseline, factor=2.0))
    assert len(failures) == 2
    assert any("per-move STA" in f for f in failures)
    assert any("pricing" in f for f in failures)


def test_gate_fails_on_circuit_mismatch(baseline):
    other = copy.deepcopy(baseline)
    other["circuit"] = "C7552"
    failures = check(baseline, other)
    assert failures and "mismatch" in failures[0]


def test_gate_fails_on_missing_metric(baseline):
    broken = copy.deepcopy(baseline)
    del broken["sta"]["speedup"]
    failures = check(baseline, broken)
    assert any("missing" in f for f in failures)


def test_main_exit_codes(baseline, tmp_path, capsys):
    current_ok = tmp_path / "ok.json"
    current_ok.write_text(json.dumps(baseline))
    assert main(["--current", str(current_ok)]) == 0
    assert "perf gate passed" in capsys.readouterr().out

    current_bad = tmp_path / "bad.json"
    current_bad.write_text(json.dumps(_slowed_down(baseline)))
    assert main(["--current", str(current_bad)]) == 1
    assert "perf gate FAILED" in capsys.readouterr().out
