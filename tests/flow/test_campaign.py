"""Campaign runner tests: sharding, resume, fault isolation, fidelity.

The heavyweight properties the CI quality gate leans on:

* serial and multi-process campaigns produce row-identical stores
  (modulo the volatile timing fields);
* an interrupted campaign resumed with ``--resume`` completes to a
  store equal to an uninterrupted run's;
* a raising job becomes a ``failed`` row without aborting the sweep;
* tables regenerated from a store are byte-identical to tables
  formatted from the same in-memory results.
"""

import dataclasses
import json

import pytest

import repro.flow.campaign as campaign_mod
from repro.__main__ import main
from repro.api import BUILTIN_METHODS as METHODS
from repro.api import FlowConfig
from repro.api.cache import PreparedCache
from repro.flow.campaign import (
    CampaignSummary,
    build_jobs,
    group_jobs,
    iter_group_rows,
    rows_to_results,
    run_campaign,
    sweep_points,
    sweep_rail_sets,
)
from repro.flow.experiment import run_suite
from repro.flow.store import ResultStore, rows_equal
from repro.flow.tables import format_table1, format_table2

SMALL = ["z4ml", "x2"]


@pytest.fixture(autouse=True)
def _fresh_worker_caches():
    campaign_mod.clear_worker_caches()
    yield
    campaign_mod.clear_worker_caches()


# -- job construction -------------------------------------------------

def test_build_jobs_cross_product():
    jobs = build_jobs(SMALL, vdd_lows=[4.3, 4.0],
                      slack_factors=[1.1, 1.2])
    assert len(jobs) == 2 * 3 * 2 * 2
    assert len({j.job_id for j in jobs}) == len(jobs)
    # Deterministic order: all methods of one group are adjacent, so a
    # group shares one prepared circuit.
    assert [j.method for j in jobs[:3]] == list(METHODS)
    assert len({PreparedCache.prepared_key(j) for j in jobs[:3]}) == 1


def test_build_jobs_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        build_jobs(SMALL, methods=("warp",))


def test_job_id_is_deterministic():
    job = FlowConfig(circuit="C432", method="gscale", vdd_low=4.3,
                     slack_factor=1.2)
    assert job.job_id == "C432:gscale:v4.3:s1.2"
    assert FlowConfig(circuit="C432", method="gscale", vdd_low=4.3,
                      slack_factor=1.2).job_id == job.job_id


def test_group_jobs_preserves_order():
    jobs = build_jobs(SMALL)
    groups = group_jobs(jobs)
    assert [key[0] for key, _ in groups] == SMALL
    assert all(len(group) == 3 for _, group in groups)


# -- execution: serial, parallel, resume ------------------------------

def test_serial_campaign_matches_run_suite(tmp_path, library):
    store = ResultStore(tmp_path / "serial.jsonl")
    summary = run_campaign(build_jobs(SMALL), store)
    assert (summary.ok, summary.failed, summary.skipped) == (6, 0, 0)

    results = {r.name: r for r in rows_to_results(store.load())}
    expected = {r.name: r for r in run_suite(SMALL, library)}
    assert set(results) == set(expected)
    for name, got in results.items():
        want = expected[name]
        assert (got.gates, got.min_delay_ns, got.tspec_ns) == \
            (want.gates, want.min_delay_ns, want.tspec_ns)
        assert got.org_power_uw == want.org_power_uw
        for method in METHODS:
            a = dataclasses.replace(got.reports[method], runtime_s=0.0)
            b = dataclasses.replace(want.reports[method], runtime_s=0.0)
            assert a == b, (name, method)


def test_parallel_store_row_identical_to_serial(tmp_path):
    serial = ResultStore(tmp_path / "serial.jsonl")
    run_campaign(build_jobs(SMALL), serial)
    parallel = ResultStore(tmp_path / "parallel.jsonl")
    summary = run_campaign(build_jobs(SMALL), parallel, n_jobs=2)
    assert summary.ok == 6
    assert rows_equal(serial.load(), parallel.load())


def test_resume_skips_completed_job_ids(tmp_path):
    jobs = build_jobs(SMALL)
    reference = ResultStore(tmp_path / "reference.jsonl")
    run_campaign(jobs, reference)
    ref_rows = reference.load()

    # Simulate a campaign killed mid-write: the first four rows landed
    # whole, the fifth was torn by the crash.
    partial_path = tmp_path / "partial.jsonl"
    with open(partial_path, "w", encoding="utf-8") as handle:
        for row in ref_rows[:4]:
            handle.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        handle.write(json.dumps(ref_rows[4])[:25])

    calls = []
    original = campaign_mod.Flow.run

    def counting(self, source=None, *, prepared=None):
        calls.append(self.config.method)
        return original(self, source, prepared=prepared)

    campaign_mod.Flow.run = counting
    try:
        store = ResultStore(partial_path)
        summary = run_campaign(jobs, store, resume=True)
    finally:
        campaign_mod.Flow.run = original

    assert summary.skipped == 4
    assert summary.ok == 2
    assert len(calls) == 2  # only the missing jobs re-ran
    assert rows_equal(store.load(), ref_rows)


def test_without_resume_the_store_is_truncated(tmp_path):
    store = ResultStore(tmp_path / "s.jsonl")
    run_campaign(build_jobs(["z4ml"]), store)
    first = store.load()
    run_campaign(build_jobs(["z4ml"]), store)
    assert len(store.load()) == len(first)


def test_failed_rows_are_retried_on_resume(tmp_path):
    store = ResultStore(tmp_path / "s.jsonl")
    with store:
        store.append({
            "schema": 1, "job_id": "z4ml:cvs:v4.3:s1.2",
            "status": "failed", "circuit": "z4ml", "method": "cvs",
            "vdd_low": 4.3, "slack_factor": 1.2,
            "error": "RuntimeError: transient", "runtime_s": 0.0,
        })
    summary = run_campaign(build_jobs(["z4ml"]), store, resume=True)
    assert summary.skipped == 0
    assert summary.ok == 3
    # Aggregation takes the fresh ok-row over the stale failed row.
    results = rows_to_results(store.load())
    assert set(results[0].reports) == set(METHODS)


def test_summary_tally_counts_rows_and_formats_progress_lines():
    summary = CampaignSummary(total_jobs=3, skipped=0, ok=0, failed=0,
                              elapsed_s=0.0)
    lines = []
    summary.tally({"job_id": "a", "status": "ok", "runtime_s": 1.5,
                   "report": {"improvement_pct": 12.5}}, lines.append)
    summary.tally({"job_id": "b", "status": "failed", "error": "boom",
                   "attempt": 2}, lines.append, replayed=True)
    summary.tally({"job_id": "c", "status": "poisoned", "error": "dead",
                   "attempt": 3}, lines.append)
    assert lines == [
        "ok     a   12.50%  [1.50s]",
        "FAILED b  boom (attempt 2) (replayed)",
        "POISONED c  dead (attempt 3)",
    ]
    assert (summary.ok, summary.failed, summary.poisoned) == (1, 1, 1)
    assert summary.retries == 3


# -- fault isolation --------------------------------------------------

def test_raising_job_yields_failed_row_not_abort(tmp_path):
    original = campaign_mod.Flow.run

    def sabotaged(self, source=None, *, prepared=None):
        if self.config.method == "dscale":
            raise RuntimeError("injected dscale failure")
        return original(self, source, prepared=prepared)

    campaign_mod.Flow.run = sabotaged
    try:
        store = ResultStore(tmp_path / "s.jsonl")
        summary = run_campaign(build_jobs(SMALL), store)
    finally:
        campaign_mod.Flow.run = original

    assert summary.ok == 4
    assert summary.failed == 2
    failed = [r for r in store.load() if r["status"] == "failed"]
    assert {r["method"] for r in failed} == {"dscale"}
    assert all("injected dscale failure" in r["error"] for r in failed)
    assert all("Traceback" in r["traceback"] for r in failed)
    # The surviving methods still aggregate into results.
    results = rows_to_results(store.load())
    assert all(set(r.reports) == {"cvs", "gscale"} for r in results)


def test_unknown_circuit_fails_whole_group_gracefully(tmp_path):
    jobs = [FlowConfig(circuit="no_such_circuit", method=m)
            for m in METHODS]
    rows = [row for _job, row in iter_group_rows(jobs)]
    assert len(rows) == 3
    assert all(r["status"] == "failed" for r in rows)
    assert all("no_such_circuit" in r["error"] for r in rows)


def test_parallel_worker_failure_is_isolated(tmp_path):
    jobs = build_jobs(["z4ml"]) + [
        FlowConfig(circuit="no_such_circuit", method="cvs")
    ]
    store = ResultStore(tmp_path / "s.jsonl")
    summary = run_campaign(jobs, store, n_jobs=2)
    assert summary.ok == 3
    assert summary.failed == 1


# -- aggregation and sweeps -------------------------------------------

def test_tables_from_store_byte_identical(tmp_path):
    store = ResultStore(tmp_path / "s.jsonl")
    run_campaign(build_jobs(SMALL), store)
    results = rows_to_results(store.load())
    # Re-load through a second store object (fresh JSON parse): the
    # formatted tables must not change by a single byte.
    reloaded = rows_to_results(ResultStore(store.path).load())
    assert format_table1(reloaded) == format_table1(results)
    assert format_table2(reloaded) == format_table2(results)


def test_tables_cli_from_store_matches_direct(tmp_path, capsys):
    store_path = str(tmp_path / "s.jsonl")
    assert main(["tables", "--circuits", ",".join(SMALL),
                 "--store", store_path]) == 0
    direct = capsys.readouterr().out
    assert main(["tables", "--from-store", store_path]) == 0
    from_store = capsys.readouterr().out
    # Strip the per-job progress prologue; the tables themselves (from
    # "Table 1:" onward) must match byte for byte.
    def table_of(text):
        return text[text.index("Table 1:"):]

    assert table_of(from_store) == table_of(direct)


def test_duplicate_job_ids_last_row_wins(tmp_path):
    store = ResultStore(tmp_path / "s.jsonl")
    run_campaign(build_jobs(["z4ml"]), store)
    rows = store.load()
    stale = json.loads(json.dumps(rows[0]))
    stale["gates"] = 9999
    stale["report"] = dict(stale["report"], improvement_pct=-1.0)
    # The stale duplicate precedes the fresh rows in file order.
    (result,) = rows_to_results([stale] + rows)
    assert result.gates == rows[0]["gates"]
    method = rows[0]["method"]
    assert result.reports[method].improvement_pct != -1.0


def test_sweep_jobs_and_point_selection(tmp_path):
    jobs = build_jobs(["z4ml"], vdd_lows=[4.3, 4.0],
                      slack_factors=[1.2])
    store = ResultStore(tmp_path / "sweep.jsonl")
    summary = run_campaign(jobs, store)
    assert summary.ok == 6
    rows = store.load()
    assert sweep_points(rows) == [(4.0, 1.2), (4.3, 1.2)]
    with pytest.raises(ValueError, match="sweep"):
        rows_to_results(rows)
    low = rows_to_results(rows, vdd_low=4.0)
    high = rows_to_results(rows, vdd_low=4.3)
    assert len(low) == len(high) == 1
    # A lower rail saves more per demoted gate on this tiny circuit.
    assert low[0].reports["gscale"].improvement_pct != \
        high[0].reports["gscale"].improvement_pct


# -- per-job wall-clock timeouts --------------------------------------

def test_slow_job_times_out_while_group_completes(tmp_path):
    """A deliberately slow job becomes a timeout row; its group's other
    jobs still finish ok (the pool never hangs)."""
    import time as time_mod

    original = campaign_mod.Flow.run

    def stalling(self, source=None, *, prepared=None):
        if self.config.method == "dscale":
            time_mod.sleep(30.0)  # far beyond the budget; SIGALRM cuts in
        return original(self, source, prepared=prepared)

    campaign_mod.Flow.run = stalling
    try:
        store = ResultStore(tmp_path / "s.jsonl")
        started = time_mod.perf_counter()
        summary = run_campaign(build_jobs(["z4ml"]), store, timeout_s=1.0)
        elapsed = time_mod.perf_counter() - started
    finally:
        campaign_mod.Flow.run = original

    assert elapsed < 15.0  # nowhere near the 30 s stall
    assert (summary.ok, summary.failed) == (2, 1)
    rows = {r["method"]: r for r in store.load()}
    assert rows["cvs"]["status"] == "ok"
    assert rows["gscale"]["status"] == "ok"
    failed = rows["dscale"]
    assert failed["status"] == "failed"
    assert failed["timeout"] is True
    assert "JobTimeout" in failed["error"]
    # The overrun is retried on resume, exactly like any failed row.
    assert store.completed_ids() == {
        rows["cvs"]["job_id"], rows["gscale"]["job_id"]
    }


def test_job_deadline_off_main_thread_warns_once_and_runs():
    """Where SIGALRM cannot arm (off the Unix main thread), the budget
    is advisory: the block still runs, with one RuntimeWarning for the
    whole process rather than one per job."""
    import threading
    import warnings

    campaign_mod.reset_deadline_warning()
    caught = []

    def target():
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            with campaign_mod.job_deadline(0.5):
                caught.append("ran")
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            with campaign_mod.job_deadline(0.5):
                caught.append("ran again")
        caught.append((list(first), list(second)))

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    first, second = caught[-1]
    assert caught[:2] == ["ran", "ran again"]
    assert len(first) == 1
    assert issubclass(first[0].category, RuntimeWarning)
    assert "cannot be enforced" in str(first[0].message)
    assert second == []  # warned once per process, not per job


def test_job_deadline_strict_errors_where_unenforceable():
    import threading

    from repro.flow.campaign import TimeoutUnsupportedError

    failures = []

    def target():
        try:
            with campaign_mod.job_deadline(0.5, strict=True):
                pass
        except TimeoutUnsupportedError as exc:
            failures.append(str(exc))

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    assert len(failures) == 1
    assert "cannot enforce" in failures[0]
    assert "supervised" in failures[0]  # points at the escape hatch
    # A zero/absent budget never needs enforcement, strict or not.
    with campaign_mod.job_deadline(None, strict=True):
        pass


def test_generous_timeout_changes_nothing(tmp_path):
    with_budget = ResultStore(tmp_path / "budget.jsonl")
    run_campaign(build_jobs(["z4ml"]), with_budget, timeout_s=120.0)
    without = ResultStore(tmp_path / "plain.jsonl")
    run_campaign(build_jobs(["z4ml"]), without)
    assert rows_equal(with_budget.load(), without.load())


# -- the MSV rails grid dimension -------------------------------------

RAILS3 = (5.0, 4.3, 3.6)


def test_rails_jobs_have_rail_aware_ids():
    jobs = build_jobs(["z4ml"], rails_sets=[RAILS3])
    assert [j.job_id for j in jobs] == [
        f"z4ml:{m}:r5-4.3-3.6:s1.2" for m in METHODS
    ]
    assert all(j.vdd_low == 4.3 for j in jobs)  # mirrors rails[1]
    assert len({PreparedCache.prepared_key(j) for j in jobs}) == 1


def test_build_jobs_rejects_short_rail_set():
    with pytest.raises(ValueError, match="two supplies"):
        build_jobs(["z4ml"], rails_sets=[(5.0,)])


def test_three_rail_campaign_end_to_end_with_resume(tmp_path):
    """The acceptance path: a 3-rail subset campaign runs through store
    and tables, and an interrupted run resumes to the same rows."""
    jobs = build_jobs(SMALL, rails_sets=[RAILS3])
    reference = ResultStore(tmp_path / "ref.jsonl")
    summary = run_campaign(jobs, reference)
    assert (summary.ok, summary.failed) == (6, 0)
    ref_rows = reference.load()
    assert all(r["rails"] == list(RAILS3) for r in ref_rows)
    assert sweep_rail_sets(ref_rows) == [RAILS3]

    # Tables aggregate the MSV point like any other grid point.
    results = rows_to_results(ref_rows, rails=RAILS3)
    assert {r.name for r in results} == set(SMALL)
    table = format_table1(results)
    assert "z4ml" in table and "x2" in table

    # Resume: first four rows landed, the fifth was torn mid-write.
    partial_path = tmp_path / "partial.jsonl"
    with open(partial_path, "w", encoding="utf-8") as handle:
        for row in ref_rows[:4]:
            handle.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        handle.write(json.dumps(ref_rows[4])[:25])
    store = ResultStore(partial_path)
    resumed = run_campaign(jobs, store, resume=True)
    assert resumed.skipped == 4
    assert resumed.ok == 2
    assert rows_equal(store.load(), ref_rows)


def test_mixed_rails_and_classic_store_needs_explicit_point(tmp_path):
    store = ResultStore(tmp_path / "mixed.jsonl")
    run_campaign(build_jobs(["z4ml"]), store)
    run_campaign(build_jobs(["z4ml"], rails_sets=[RAILS3]), store,
                 resume=True)
    rows = store.load()
    assert sweep_rail_sets(rows) == [(), RAILS3]
    with pytest.raises(ValueError, match="rails"):
        rows_to_results(rows)
    classic = rows_to_results(rows, rails=())
    msv = rows_to_results(rows, rails=RAILS3)
    assert len(classic) == len(msv) == 1
    # Deeper rails open savings the dual pair cannot reach.
    assert msv[0].reports["gscale"].improvement_pct >= \
        classic[0].reports["gscale"].improvement_pct


def test_schema1_rows_without_rails_field_still_aggregate():
    """Backward readability: a v1-era row (no rails/timeout keys) loads
    as a classic dual-Vdd row."""
    legacy = {
        "schema": 1, "job_id": "z4ml:cvs:v4.3:s1.2", "status": "ok",
        "circuit": "z4ml", "method": "cvs", "vdd_low": 4.3,
        "slack_factor": 1.2, "gates": 20, "org_power_uw": 10.0,
        "min_delay_ns": 1.0, "tspec_ns": 1.2,
        "report": {
            "method": "cvs", "power_before_uw": 10.0,
            "power_after_uw": 9.0, "improvement_pct": 10.0,
            "n_gates": 20, "n_low": 5, "low_ratio": 0.25,
            "n_converters": 0, "n_resized": 0,
            "area_increase_ratio": 0.0, "worst_delay_ns": 1.1,
            "tspec_ns": 1.2, "runtime_s": 0.1,
        },
    }
    (result,) = rows_to_results([legacy])
    assert result.reports["cvs"].improvement_pct == 10.0
    assert campaign_mod.row_rails(legacy) == ()


def test_campaign_cli_rails_and_store_compact(tmp_path, capsys):
    out = str(tmp_path / "msv.jsonl")
    assert main(["campaign", "--circuits", "z4ml",
                 "--rails", "5.0,4.3,3.6", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "1 rail set(s)" in text and "3 ok" in text
    # Rerun without resume appends nothing new after truncation; then a
    # duplicate-producing resume cycle compacts back down.
    assert main(["campaign", "--circuits", "z4ml",
                 "--rails", "5.0,4.3,3.6", "--out", out]) == 0
    capsys.readouterr()
    assert main(["store", "compact", out]) == 0
    assert "kept 3/3" in capsys.readouterr().out
    assert main(["tables", "--from-store", out,
                 "--rails", "5.0,4.3,3.6"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_tables_cli_rails_dual_selects_classic_rows(tmp_path, capsys):
    """A mixed store's classic dual-Vdd point is reachable from the
    CLI as --rails dual (the empty rail set has no comma spelling)."""
    out = str(tmp_path / "mixed.jsonl")
    assert main(["campaign", "--circuits", "z4ml", "--out", out]) == 0
    assert main(["campaign", "--circuits", "z4ml",
                 "--rails", "5.0,4.3,3.6", "--out", out, "--resume"]) == 0
    capsys.readouterr()
    assert main(["tables", "--from-store", out, "--rails", "dual"]) == 0
    dual_text = capsys.readouterr().out
    assert "Table 1" in dual_text
    assert main(["tables", "--from-store", out,
                 "--rails", "5.0,4.3,3.6"]) == 0
    msv_text = capsys.readouterr().out
    assert "Table 1" in msv_text
    assert dual_text != msv_text  # genuinely different grid points


# -- CLI --------------------------------------------------------------

def test_campaign_cli_runs_and_resumes(tmp_path, capsys):
    out = str(tmp_path / "cli.jsonl")
    assert main(["campaign", "--circuits", "z4ml", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "3 jobs" in text and "3 ok" in text
    assert main(["campaign", "--circuits", "z4ml", "--out", out,
                 "--resume"]) == 0
    text = capsys.readouterr().out
    assert "3 skipped" in text
    assert len(ResultStore(out).load()) == 3


def test_campaign_cli_rejects_unknown_circuit(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--circuits", "nope",
              "--out", str(tmp_path / "x.jsonl")])


# -- sharding across machines -----------------------------------------

def test_shard_jobs_partition_is_exact_and_deterministic():
    from repro.flow.campaign import shard_jobs

    jobs = build_jobs(["z4ml", "pm1", "x2", "b9"], vdd_lows=[4.3, 4.0])
    n = 3
    shards = [shard_jobs(jobs, k, n) for k in range(1, n + 1)]
    # disjoint, exhaustive, order-preserving
    all_ids = [j.job_id for shard in shards for j in shard]
    assert sorted(all_ids) == sorted(j.job_id for j in jobs)
    assert len(set(all_ids)) == len(jobs)
    for shard in shards:
        ids = [j.job_id for j in shard]
        assert ids == [j.job_id for j in jobs if j.job_id in set(ids)]
    # stable across calls (derived from the job-list order, not a
    # seeded hash), and balanced to within one group per shard
    assert [j.job_id for j in shard_jobs(jobs, 2, n)] \
        == [j.job_id for j in shards[1]]
    sizes = sorted(len(s) for s in shards)
    assert sizes[-1] - sizes[0] <= 3  # one group = 3 method jobs


def test_shard_jobs_keeps_groups_whole():
    """All methods of one prepared circuit land on the same shard, so
    no shard recomputes another shard's optimize/map/constrain work."""
    from repro.flow.campaign import shard_jobs

    jobs = build_jobs(SMALL, vdd_lows=[4.3, 4.0], slack_factors=[1.1, 1.2])
    for k in (1, 2, 3):
        shard = shard_jobs(jobs, k, 3)
        groups = {}
        for job in shard:
            groups.setdefault(PreparedCache.prepared_key(job), []).append(job)
        assert all(len(members) == 3 for members in groups.values())


def _old_group_key(job):
    """The partition key campaigns used before grouping moved onto the
    prepared-circuit key: (circuit, rail key, slack factor)."""
    return (job.circuit, job.rail_key, job.slack_factor)


@pytest.mark.parametrize(
    "grid",
    [
        dict(vdd_lows=[4.6, 4.3], slack_factors=[1.1, 1.2]),
        dict(rails_sets=[RAILS3, (5.0, 4.0)], slack_factors=[1.1, 1.2]),
    ],
    ids=["dual", "rails"],
)
def test_grouping_matches_the_circuit_rail_slack_partition(grid):
    from repro.flow.campaign import shard_jobs

    jobs = build_jobs(["z4ml", "x2", "C432"],
                      cost_models=("paper", "placement"), **grid)
    expected = {}
    for job in jobs:
        expected.setdefault(_old_group_key(job), []).append(job.job_id)
    assert [[j.job_id for j in group] for _key, group in group_jobs(jobs)] \
        == list(expected.values())

    count = 4
    shard_of = {key: i % count for i, key in enumerate(expected)}
    for index in range(1, count + 1):
        assert [j.job_id for j in shard_jobs(jobs, index, count)] == [
            j.job_id for j in jobs
            if shard_of[_old_group_key(j)] == index - 1
        ]


def test_shard_jobs_validates_bounds():
    from repro.flow.campaign import shard_jobs

    jobs = build_jobs(["z4ml"])
    assert shard_jobs(jobs, 1, 1) == jobs
    with pytest.raises(ValueError, match="shard"):
        shard_jobs(jobs, 0, 2)
    with pytest.raises(ValueError, match="shard"):
        shard_jobs(jobs, 3, 2)
    with pytest.raises(ValueError, match="shard"):
        shard_jobs(jobs, 1, 0)


def test_sharded_campaign_merges_back_to_the_full_store(tmp_path):
    """Two shards run independently; their merged stores equal one
    unsharded campaign (modulo volatile fields)."""
    from repro.flow.campaign import shard_jobs
    from repro.flow.store import merge_stores

    jobs = build_jobs(SMALL)
    full = ResultStore(tmp_path / "full.jsonl")
    run_campaign(jobs, full)

    shard_paths = []
    for k in (1, 2):
        path = tmp_path / f"shard{k}.jsonl"
        shard_paths.append(path)
        run_campaign(shard_jobs(jobs, k, 2), ResultStore(path))
    merged = tmp_path / "merged.jsonl"
    merge_stores(shard_paths, merged)
    assert rows_equal(ResultStore(merged).load(), full.load())
    # and the merged store aggregates to the same tables, modulo the
    # CPU(s) column: Gscale's wall clock is volatile like the row's
    def table(rows):
        for row in rows:
            if row.get("report"):
                row["report"]["runtime_s"] = 0.0
        return format_table1(rows_to_results(rows))

    assert table(full.load()) == table(ResultStore(merged).load())


def test_campaign_cli_shard_and_merge(tmp_path, capsys):
    outs = [str(tmp_path / f"shard{k}.jsonl") for k in (1, 2)]
    for k, out in enumerate(outs, start=1):
        assert main(["campaign", "--circuits", "z4ml,pm1",
                     "--shard", f"{k}/2", "--out", out]) == 0
        text = capsys.readouterr().out
        assert f"shard {k}/2" in text
    merged = str(tmp_path / "merged.jsonl")
    assert main(["store", "compact", *outs, "--out", merged]) == 0
    assert "merged 2 stores" in capsys.readouterr().out
    rows = ResultStore(merged).load()
    assert {r["circuit"] for r in rows} == {"z4ml", "pm1"}
    assert len(rows) == 6


def test_campaign_cli_merge_requires_out(tmp_path, capsys):
    paths = []
    for k in (1, 2):
        store = ResultStore(tmp_path / f"s{k}.jsonl")
        with store:
            store.append({"schema": 2, "job_id": f"j{k}", "status": "ok"})
        paths.append(str(store.path))
    with pytest.raises(SystemExit, match="--out"):
        main(["store", "compact", *paths])


def test_campaign_cli_rejects_bad_shard(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--circuits", "z4ml", "--shard", "3/2",
              "--out", str(tmp_path / "x.jsonl")])
    assert "shard" in capsys.readouterr().err


def test_run_campaign_imports_plugins_in_process(tmp_path, monkeypatch):
    from repro.api.registry import is_registered, unregister_method

    plugin = tmp_path / "campaign_plugin_mod.py"
    plugin.write_text(
        "from repro.api import ScalingMethod, register_method\n"
        "register_method(ScalingMethod(\n"
        "    'campaign_plugin_method', lambda state, config: None))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert not is_registered("campaign_plugin_method")

    store = ResultStore(tmp_path / "s.jsonl")
    jobs = [FlowConfig(circuit="z4ml", method="campaign_plugin_method")]
    try:
        summary = run_campaign(jobs, store,
                               plugins=("campaign_plugin_mod",))
        assert (summary.ok, summary.failed) == (1, 0)
    finally:
        unregister_method("campaign_plugin_method")


# -- the cost-model grid dimension ------------------------------------

def test_build_jobs_cost_model_dimension():
    from repro.flow.campaign import build_jobs

    jobs = build_jobs(["z4ml"], methods=("dscale",),
                      cost_models=("paper", "placement"))
    assert [j.cost_model for j in jobs] == ["paper", "placement"]
    # The default model keeps the historical id; alternatives append.
    assert jobs[0].job_id == "z4ml:dscale:v4.3:s1.2"
    assert jobs[1].job_id == "z4ml:dscale:v4.3:s1.2:cplacement"
    # Both land in the same preparation group (one prepared circuit).
    assert PreparedCache.prepared_key(jobs[0]) == \
        PreparedCache.prepared_key(jobs[1])


def test_build_jobs_rejects_unknown_cost_model():
    from repro.flow.campaign import build_jobs

    with pytest.raises(ValueError, match="cost model"):
        build_jobs(["z4ml"], cost_models=("nope",))


def test_cost_model_grid_rows_round_trip(tmp_path):
    """A two-model campaign stores distinct rows that aggregate per
    model through rows_to_results."""
    from repro.flow.campaign import (
        build_jobs,
        rows_to_results,
        run_campaign,
    )
    from repro.flow.store import ResultStore

    store = ResultStore(tmp_path / "cm.jsonl")
    jobs = build_jobs(["z4ml"], methods=("dscale",),
                      cost_models=("paper", "placement"))
    summary = run_campaign(jobs, store)
    assert summary.ok == 2
    rows = store.load()
    assert {r["cost_model"] for r in rows} == {"paper", "placement"}
    with pytest.raises(ValueError, match="cost_model"):
        rows_to_results(rows)  # ambiguous store must be filtered
    for model in ("paper", "placement"):
        results = rows_to_results(rows, cost_model=model)
        assert len(results) == 1
        assert "dscale" in results[0].reports
    # Move statistics rode along in the report block.
    report = rows[0]["report"]
    assert "moves" in report and "committed" in report["moves"]


def test_cost_model_dimension_only_applies_to_pricing_methods():
    """cvs/gscale never consult the cost model, so the grid emits them
    once (under the default model) instead of N mislabeled twins."""
    from repro.flow.campaign import build_jobs

    jobs = build_jobs(["z4ml"], methods=("cvs", "dscale", "gscale"),
                      cost_models=("paper", "placement"))
    by_method = {}
    for job in jobs:
        by_method.setdefault(job.method, []).append(job.cost_model)
    assert by_method["dscale"] == ["paper", "placement"]
    assert by_method["cvs"] == ["paper"]
    assert by_method["gscale"] == ["paper"]
    # Even a non-default-only grid still covers non-pricing methods
    # exactly once, under the model that actually runs them.
    jobs = build_jobs(["z4ml"], methods=("cvs", "dscale"),
                      cost_models=("placement",))
    by_method = {j.method: j.cost_model for j in jobs}
    assert by_method == {"cvs": "paper", "dscale": "placement"}


def test_flow_rejects_cost_model_on_non_pricing_method():
    from repro.api import Flow, FlowConfig

    flow = Flow(FlowConfig(circuit="z4ml", method="gscale",
                           cost_model="placement"))
    with pytest.raises(ValueError, match="does not price moves"):
        flow.run()
