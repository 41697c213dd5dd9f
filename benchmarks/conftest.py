"""Shared benchmark fixtures.

The default benchmark circuit list spans every circuit family at sizes
that keep a full ``pytest benchmarks/ --benchmark-only`` run to a few
minutes.  Set ``REPRO_FULL_SUITE=1`` to benchmark all 39 MCNC names
(this is what ``examples/reproduce_tables.py`` also runs).

Results flow through one session-scoped campaign store: every
(circuit, method) cell that any benchmark computes is appended as a
store row, and every later consumer (the Table 1/2 summaries, the
profile rows) aggregates from the store instead of re-running the
flow.  Each circuit is prepared exactly once per session.
"""

from __future__ import annotations

import os

import pytest

from repro.api import BUILTIN_METHODS as METHODS
from repro.api import Flow, FlowConfig, RunArtifact
from repro.bench.mcnc import MCNC_NAMES
from repro.flow.campaign import rows_to_results
from repro.flow.experiment import run_prepared
from repro.flow.store import ResultStore
from repro.library.compass import build_compass_library
from repro.mapping.match import MatchTable

SUBSET = [
    "z4ml", "pm1", "x2", "i1", "mux", "b9", "sct", "lal", "f51m",
    "my_adder", "C432", "apex7", "term1", "i2", "C499", "rot",
]


def benchmark_names() -> list[str]:
    if os.environ.get("REPRO_FULL_SUITE"):
        return list(MCNC_NAMES)
    return SUBSET


@pytest.fixture(scope="session")
def library():
    return build_compass_library()


@pytest.fixture(scope="session")
def match_table(library):
    return MatchTable(library)


@pytest.fixture(scope="session")
def prepared_cache(library, match_table):
    """Prepared (optimized + mapped + constrained) circuits, by name."""
    cache = {}

    def get(name):
        if name not in cache:
            flow = Flow(FlowConfig(circuit=name), library=library,
                        match_table=match_table)
            cache[name] = flow.prepare()
        return cache[name]

    return get


@pytest.fixture(scope="session")
def campaign_store(tmp_path_factory):
    """The session's shared JSONL result store."""
    path = tmp_path_factory.mktemp("campaign") / "bench_store.jsonl"
    return ResultStore(path)


@pytest.fixture(scope="session")
def record_report(campaign_store, prepared_cache):
    """Append one (circuit, method) report as a campaign store row."""

    def record(name, method, report, runtime_s=0.0):
        job = FlowConfig(circuit=name, method=method)
        if job.job_id in campaign_store.completed_ids():
            return
        prepared = prepared_cache(name)
        nodes = prepared.network.nodes.values()
        artifact = RunArtifact(
            circuit=job.circuit,
            method=job.method,
            vdd_low=job.vdd_low,
            slack_factor=job.slack_factor,
            rails=job.rails,
            cost_model=job.cost_model,
            status="ok",
            gates=sum(1 for n in nodes if not n.is_input),
            org_power_uw=report.power_before_uw,
            min_delay_ns=prepared.min_delay,
            tspec_ns=prepared.tspec,
            report=report,
            runtime_s=runtime_s,
        )
        campaign_store.append(artifact.to_row())

    return record


@pytest.fixture(scope="session")
def results_cache(library, prepared_cache, campaign_store, record_report):
    """Full three-algorithm results per circuit, through the store.

    Rows already recorded by earlier benchmarks (the Table 1 cells) are
    reused; anything missing is computed from the *shared* prepared
    circuit -- nothing here re-runs the optimize/map/constrain prefix.
    """
    cache = {}

    def get(name):
        if name in cache:
            return cache[name]
        done = campaign_store.completed_ids()
        missing = tuple(
            m for m in METHODS
            if FlowConfig(circuit=name, method=m).job_id not in done
        )
        if missing:
            result = run_prepared(prepared_cache(name), library,
                                  methods=missing)
            for method in missing:
                record_report(name, method, result.reports[method])
        rows = [r for r in campaign_store.load()
                if r.get("circuit") == name]
        (result,) = rows_to_results(rows)
        cache[name] = result
        return result

    return get
