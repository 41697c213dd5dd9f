"""Ablation benchmarks: the knobs the paper fixes, swept.

* ``maxIter`` (the paper uses 10): how long Gscale keeps pushing a
  stuck TCB.
* The low-voltage choice (the paper uses 4.3 V "in accordance with our
  internal design project"): quadratic savings versus alpha-power delay
  penalty.
* The area budget (the paper uses +10%).
* The level-converter design ([8] pass-gate vs [10] cross-coupled).

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.api import Flow, FlowConfig
from repro.core.state import ScalingOptions
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable

CIRCUITS = ["b9", "C432"]


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("max_iter", [0, 2, 10, 20])
def test_ablation_max_iter(benchmark, prepared_cache, library, name,
                           max_iter):
    prepared = prepared_cache(name)
    flow = Flow(FlowConfig(method="gscale", max_iter=max_iter),
                library=library)

    def run():
        return flow.scale(prepared.network, prepared.tspec,
                          activity=prepared.activity)

    _, artifact = benchmark.pedantic(run, rounds=1, iterations=1)
    report = artifact.report
    benchmark.extra_info["improvement_pct"] = round(report.improvement_pct, 2)
    benchmark.extra_info["max_iter"] = max_iter
    assert report.improvement_pct >= -1e-9


@pytest.mark.parametrize("vdd_low", [4.6, 4.3, 4.0, 3.7])
def test_ablation_voltage_pair(benchmark, vdd_low):
    """Gscale saving vs. Vlow: lower rails save more per gate but slow
    each demoted gate more, shrinking the demotable region."""
    library = build_compass_library(vdd_low=vdd_low)
    flow = Flow(FlowConfig(circuit="b9", method="gscale", vdd_low=vdd_low),
                library=library, match_table=MatchTable(library))

    def run():
        prepared = flow.prepare()
        return flow.scale(prepared.network, prepared.tspec,
                          activity=prepared.activity)

    _, artifact = benchmark.pedantic(run, rounds=1, iterations=1)
    report = artifact.report
    ceiling = 100.0 * (1 - (vdd_low / 5.0) ** 2)
    benchmark.extra_info["vdd_low"] = vdd_low
    benchmark.extra_info["improvement_pct"] = round(report.improvement_pct, 2)
    benchmark.extra_info["quadratic_ceiling_pct"] = round(ceiling, 2)
    assert report.improvement_pct <= ceiling + 1e-6


@pytest.mark.parametrize("budget", [0.0, 0.05, 0.10, 0.20])
def test_ablation_area_budget(benchmark, prepared_cache, library, budget):
    prepared = prepared_cache("C432")
    flow = Flow(FlowConfig(method="gscale", area_budget=budget),
                library=library)

    def run():
        return flow.scale(prepared.network, prepared.tspec,
                          activity=prepared.activity)

    _, artifact = benchmark.pedantic(run, rounds=1, iterations=1)
    report = artifact.report
    benchmark.extra_info["budget"] = budget
    benchmark.extra_info["improvement_pct"] = round(report.improvement_pct, 2)
    benchmark.extra_info["area_increase"] = round(
        report.area_increase_ratio, 4
    )
    assert report.area_increase_ratio <= budget + 1e-9


@pytest.mark.parametrize("lc_kind", ["pg", "cm"])
def test_ablation_converter_design(benchmark, prepared_cache, library,
                                   lc_kind):
    """Dscale under the two restoration designs the paper employs."""
    prepared = prepared_cache("C499")
    flow = Flow(
        FlowConfig(method="dscale", options=ScalingOptions(lc_kind=lc_kind)),
        library=library,
    )

    def run():
        return flow.scale(prepared.network, prepared.tspec,
                          activity=prepared.activity)

    _, artifact = benchmark.pedantic(run, rounds=1, iterations=1)
    report = artifact.report
    benchmark.extra_info["lc_kind"] = lc_kind
    benchmark.extra_info["improvement_pct"] = round(report.improvement_pct, 2)
    assert report.improvement_pct >= -1e-9
