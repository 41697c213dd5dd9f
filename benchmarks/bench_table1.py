"""Table 1 regeneration: per-circuit power improvements of CVS/Dscale/Gscale.

Each benchmark times one algorithm on one prepared circuit (the paper's
CPU column analog), records the measured improvement in ``extra_info``
next to the paper's published number, and appends the finished report
to the session's campaign store.  The final summary aggregates the
store (no recomputation) and prints the assembled table in the paper's
layout.

Run: ``pytest benchmarks/bench_table1.py --benchmark-only``
(set ``REPRO_FULL_SUITE=1`` for all 39 circuits); add
``--benchmark-disable`` for a one-run smoke pass.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import benchmark_names
from repro.api import Flow, FlowConfig
from repro.bench.paper_data import PAPER_TABLE1
from repro.flow.tables import format_table1, suite_averages


@pytest.mark.parametrize("name", benchmark_names())
@pytest.mark.parametrize("method", ["cvs", "dscale", "gscale"])
def test_table1_cell(benchmark, prepared_cache, library, record_report,
                     name, method):
    """One (circuit, algorithm) cell of Table 1."""
    prepared = prepared_cache(name)
    flow = Flow(FlowConfig(method=method), library=library)

    elapsed = []

    def run():
        start = time.perf_counter()
        result = flow.scale(prepared.network, prepared.tspec,
                            activity=prepared.activity)
        elapsed.append(time.perf_counter() - start)
        return result

    _, artifact = benchmark.pedantic(run, rounds=1, iterations=1)
    # With --benchmark-disable pytest-benchmark keeps no stats; the
    # cell's one timed run stands in.
    stats = benchmark.stats
    runtime_s = stats.stats.min if stats is not None else min(elapsed)
    report = artifact.report
    paper = PAPER_TABLE1[name]
    paper_pct = {"cvs": paper.cvs_pct, "dscale": paper.dscale_pct,
                 "gscale": paper.gscale_pct}[method]
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["method"] = method
    benchmark.extra_info["improvement_pct"] = round(report.improvement_pct, 2)
    benchmark.extra_info["paper_pct"] = paper_pct
    benchmark.extra_info["org_power_uw"] = round(report.power_before_uw, 2)
    record_report(name, method, report, runtime_s=runtime_s)

    assert report.worst_delay_ns <= report.tspec_ns + 1e-9
    assert report.improvement_pct >= -1e-9


def test_table1_summary(benchmark, results_cache):
    """Assemble and print the full Table 1 for the benchmarked subset."""
    names = benchmark_names()

    def run():
        return [results_cache(name) for name in names]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    averages = suite_averages(results)
    print()
    print(format_table1(results))
    benchmark.extra_info.update(
        {k: round(v, 2) for k, v in averages.items()}
    )
    # Shape assertions of the paper's section 4 on the benchmarked set.
    for row in results:
        assert row.improvement("dscale") >= row.improvement("cvs") - 1e-9
        assert row.improvement("gscale") >= row.improvement("cvs") - 1e-9
    assert averages["gscale_pct"] > averages["cvs_pct"]
    assert averages["gscale_pct"] <= 26.04
