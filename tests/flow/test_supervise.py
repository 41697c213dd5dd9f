"""Supervised-execution tests: crash-proof workers, retry/backoff,
poison quarantine, watchdog hang recovery, and the chaos acceptance
invariant (a seeded fault plan converges to a store bit-identical to a
fault-free run's).

The process-level faults here genuinely kill worker processes
(``os._exit``) and hang them past the watchdog; everything is driven
through the public ``run_campaign`` / CLI surface so the tests cover
the exact code path a production campaign takes.
"""

import queue
import time

import pytest

import repro.flow.campaign as campaign_mod
from repro.__main__ import main
from repro.api import FlowConfig
from repro.flow.campaign import build_jobs, run_campaign
from repro.flow.faults import FaultPlan
from repro.flow.store import ResultStore, rows_equal, store_progress
from repro.flow.supervise import Supervisor, _worker_main

SMALL = ["z4ml", "x2"]


@pytest.fixture(autouse=True)
def _fresh_worker_caches():
    campaign_mod.clear_worker_caches()
    yield
    campaign_mod.clear_worker_caches()


def job_ids(jobs):
    return [job.job_id for job in jobs]


def freshest(rows):
    by_job = {}
    for row in rows:
        by_job[row["job_id"]] = row
    return list(by_job.values())


# -- fault-free supervision -------------------------------------------


def test_supervised_fault_free_plan_matches_serial(tmp_path):
    jobs = build_jobs(["z4ml"])
    serial = ResultStore(tmp_path / "serial.jsonl")
    run_campaign(jobs, serial)
    supervised = ResultStore(tmp_path / "supervised.jsonl")
    summary = run_campaign(
        jobs, supervised, n_jobs=2, faults=FaultPlan(seed=5)
    )
    assert (summary.ok, summary.failed, summary.poisoned) == (3, 0, 0)
    assert summary.retries == 0
    assert rows_equal(serial.load(), supervised.load())


def test_supervisor_validates_arguments():
    with pytest.raises(ValueError, match="n_workers"):
        Supervisor(groups=[], n_workers=0)
    with pytest.raises(ValueError, match="max_attempts"):
        Supervisor(groups=[], n_workers=1, max_attempts=0)
    assert list(Supervisor(groups=[], n_workers=2).run()) == []


def test_worker_main_imports_plugins_for_custom_methods(tmp_path, monkeypatch):
    """A worker imports the plugin list before its first task, so a
    spawn-started worker (fresh interpreter, builtin-only registry) can
    still resolve registry-injected methods.  The live worker entry
    point runs in-process here, with a never-imported plugin module."""
    from repro.api.registry import is_registered, unregister_method

    plugin = tmp_path / "worker_plugin_mod.py"
    plugin.write_text(
        "from repro.api import ScalingMethod, register_method\n"
        "register_method(ScalingMethod(\n"
        "    'worker_plugin_method', lambda state, config: None))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert not is_registered("worker_plugin_method")

    job = FlowConfig(circuit="z4ml", method="worker_plugin_method")
    tasks, results = queue.Queue(), queue.Queue()
    tasks.put(((job,), {}))
    tasks.put(None)
    # (timeout_s, plugins, strict, faults, cache_bytes, retain_cache)
    settings = (None, ("worker_plugin_mod",), False, None, None, False)
    try:
        _worker_main(0, tasks, results, settings)
    finally:
        unregister_method("worker_plugin_method")

    messages = []
    while not results.empty():
        messages.append(results.get())
    (row,) = [message[2] for message in messages if message[0] == "row"]
    assert row["status"] == "ok"
    assert row["method"] == "worker_plugin_method"
    assert messages[-1][0] == "done"


def test_serial_run_rejects_process_level_faults(tmp_path):
    jobs = build_jobs(["z4ml"])
    plan = FaultPlan(kill_before=(jobs[0].job_id,))
    with pytest.raises(ValueError, match="supervised"):
        run_campaign(
            jobs, ResultStore(tmp_path / "s.jsonl"), n_jobs=1, faults=plan
        )


def test_hang_plan_requires_a_timeout_budget(tmp_path):
    jobs = build_jobs(["z4ml"])
    plan = FaultPlan(hang_on=(jobs[0].job_id,))
    with pytest.raises(ValueError, match="watchdog"):
        run_campaign(
            jobs, ResultStore(tmp_path / "s.jsonl"), n_jobs=2, faults=plan
        )


# -- hard crashes ------------------------------------------------------


def test_worker_killed_before_job_is_respawned_and_retried(tmp_path):
    jobs = build_jobs(SMALL)
    victim = jobs[1].job_id  # z4ml:dscale
    reference = ResultStore(tmp_path / "ref.jsonl")
    run_campaign(jobs, reference)

    store = ResultStore(tmp_path / "chaos.jsonl")
    summary = run_campaign(
        jobs,
        store,
        n_jobs=2,
        backoff_s=0.05,
        faults=FaultPlan(kill_before=(victim,), seed=2),
    )
    assert (summary.ok, summary.failed, summary.poisoned) == (6, 0, 0)
    assert summary.retries >= 1
    rows = {r["job_id"]: r for r in store.load()}
    assert rows[victim]["status"] == "ok"
    assert rows[victim]["attempt"] == 2
    assert rows_equal(reference.load(), store.load())


def test_worker_killed_after_job_loses_the_row_then_recovers(tmp_path):
    jobs = build_jobs(["z4ml"])
    victim = jobs[0].job_id  # killed after computing, before reporting
    store = ResultStore(tmp_path / "s.jsonl")
    summary = run_campaign(
        jobs,
        store,
        n_jobs=2,
        backoff_s=0.05,
        faults=FaultPlan(kill_after=(victim,), seed=2),
    )
    assert (summary.ok, summary.poisoned) == (3, 0)
    rows = {r["job_id"]: r for r in store.load()}
    assert rows[victim]["status"] == "ok"
    assert rows[victim]["attempt"] == 2


def test_crash_during_store_append_leaves_recoverable_store(tmp_path):
    """A torn write (crash mid-append) costs exactly that row; resume
    re-runs it and the store converges."""
    jobs = build_jobs(["z4ml"])
    victim = jobs[2].job_id
    store = ResultStore(tmp_path / "s.jsonl")
    summary = run_campaign(
        jobs, store, faults=FaultPlan(torn_row=(victim,), seed=0)
    )
    assert summary.ok == 3  # the job ran fine; only its line is torn
    loaded = store.load()
    assert victim not in {r["job_id"] for r in loaded}
    assert store.integrity.damaged == 1
    resumed = run_campaign(jobs, store, resume=True)
    assert (resumed.skipped, resumed.ok) == (2, 1)
    assert {r["job_id"] for r in store.load()} == set(job_ids(jobs))


# -- hangs and the portable watchdog ----------------------------------


def test_hung_worker_is_killed_by_watchdog_and_retried(tmp_path):
    jobs = build_jobs(["z4ml"])
    victim = jobs[1].job_id
    store = ResultStore(tmp_path / "s.jsonl")
    started = time.perf_counter()
    summary = run_campaign(
        jobs,
        store,
        n_jobs=2,
        timeout_s=2.5,
        backoff_s=0.05,
        faults=FaultPlan(hang_on=(victim,), hang_s=120.0, seed=3),
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0  # nowhere near the 120 s hang
    assert (summary.ok, summary.failed, summary.poisoned) == (3, 0, 0)
    rows = {r["job_id"]: r for r in store.load()}
    assert rows[victim]["status"] == "ok"
    assert rows[victim]["attempt"] == 2


# -- poison quarantine -------------------------------------------------


def test_repeat_offender_is_poisoned_then_retryable(tmp_path):
    jobs = build_jobs(["z4ml"])
    victim = jobs[1].job_id
    always_kills = FaultPlan(kill_before=(victim,), max_fires=99, seed=4)
    store = ResultStore(tmp_path / "s.jsonl")
    summary = run_campaign(
        jobs,
        store,
        n_jobs=2,
        max_attempts=2,
        backoff_s=0.05,
        faults=always_kills,
    )
    assert (summary.ok, summary.failed, summary.poisoned) == (2, 0, 1)
    rows = {r["job_id"]: r for r in store.load()}
    poisoned = rows[victim]
    assert poisoned["status"] == "poisoned"
    assert poisoned["attempt"] == 2
    assert "WorkerDied" in poisoned["error"]
    # Operators see the retry pressure in the progress report.
    progress = store_progress(store.path)
    assert (progress.poisoned, progress.retried) == (1, 1)
    assert progress.max_attempt == 2
    # Quarantine: a plain resume skips the poisoned job...
    assert store.completed_ids() == set(job_ids(jobs))
    resumed = run_campaign(jobs, store, resume=True)
    assert (resumed.skipped, resumed.ok) == (3, 0)
    # ...and completed_ids(include_poisoned=False) re-opens it.
    reopened = store.completed_ids(include_poisoned=False)
    assert reopened == set(job_ids(jobs)) - {victim}
    retried = run_campaign(jobs, store, resume=True, retry_failed=True)
    assert (retried.skipped, retried.ok) == (2, 1)
    final = {r["job_id"]: r for r in freshest(store.load())}
    assert final[victim]["status"] == "ok"
    progress = store_progress(store.path)
    assert (progress.ok, progress.poisoned) == (3, 0)  # superseded


# -- the chaos acceptance invariant -----------------------------------


def test_chaos_campaign_converges_bit_identical(tmp_path):
    """The chaos acceptance criterion: a seeded plan that kills two
    workers mid-job, hangs one job past its deadline, and corrupts one
    stored row still converges -- via ``--resume --retry-failed`` -- to
    100% completion with ok-rows bit-identical to a fault-free run."""
    jobs = build_jobs(SMALL)
    ids = job_ids(jobs)
    plan = FaultPlan(
        kill_before=(ids[1],),  # z4ml:dscale dies before running
        kill_after=(ids[4],),  # x2:dscale dies holding its row
        hang_on=(ids[2],),  # z4ml:gscale hangs past the deadline
        corrupt_row=(ids[3],),  # x2:cvs lands with a broken CRC
        hang_s=120.0,
        seed=9,
    )
    reference = ResultStore(tmp_path / "reference.jsonl")
    run_campaign(jobs, reference, timeout_s=2.5)

    chaos = ResultStore(tmp_path / "chaos.jsonl")
    summary = run_campaign(
        jobs, chaos, n_jobs=2, timeout_s=2.5, backoff_s=0.05, faults=plan
    )
    assert summary.completed == 6
    assert summary.retries >= 3  # two kills + one hang all re-ran
    assert len(chaos.load()) == 5  # the corrupt row is skipped...
    assert chaos.integrity.corrupt == 1  # ...and reported

    converged = run_campaign(
        jobs, chaos, resume=True, retry_failed=True, timeout_s=2.5
    )
    assert converged.ok == 1  # exactly the corrupted job re-ran
    final = freshest(chaos.load())
    assert len(final) == 6
    assert all(r["status"] == "ok" for r in final)
    assert rows_equal(reference.load(), final)

    progress = store_progress(chaos.path)
    assert progress.ok == 6
    assert progress.retried >= 3


# -- CLI exit codes and flags -----------------------------------------


def test_campaign_cli_exits_3_on_failed_rows(tmp_path, capsys):
    out = str(tmp_path / "failed.jsonl")
    args = ["campaign", "--circuits", "z4ml", "--out", out]
    code = main(args + ["--inject", "raise:1", "--inject-seed", "1"])
    assert code == 3
    text = capsys.readouterr().out
    assert "fault injection armed" in text
    assert "1 failed" in text
    rows = ResultStore(out).load()
    assert sum(r["status"] == "failed" for r in rows) == 1
    assert any("InjectedFault" in r.get("error", "") for r in rows)


def test_campaign_cli_exits_4_when_supervisor_gives_up(tmp_path, capsys):
    out = str(tmp_path / "poison.jsonl")
    args = ["campaign", "--circuits", "z4ml", "--out", out]
    code = main(
        args
        + ["--jobs", "2", "--max-attempts", "2"]
        + ["--inject", "kill-before:1", "--inject-seed", "2"]
        + ["--inject-max-fires", "99"]
    )
    assert code == 4
    assert "1 poisoned" in capsys.readouterr().out
    rows = ResultStore(out).load()
    assert sum(r["status"] == "poisoned" for r in rows) == 1
    # --resume --retry-failed converges the store to all-ok, exit 0.
    code = main(args + ["--resume", "--retry-failed"])
    assert code == 0
    final = freshest(ResultStore(out).load())
    assert all(r["status"] == "ok" for r in final)


def test_campaign_cli_retry_failed_requires_resume(tmp_path):
    out = str(tmp_path / "x.jsonl")
    args = ["campaign", "--circuits", "z4ml", "--out", out]
    with pytest.raises(SystemExit, match="--resume"):
        main(args + ["--retry-failed"])


def test_campaign_cli_rejects_serial_kill_plan(tmp_path):
    out = str(tmp_path / "x.jsonl")
    args = ["campaign", "--circuits", "z4ml", "--out", out]
    with pytest.raises(SystemExit, match="supervised"):
        main(args + ["--inject", "kill-before:1"])


def test_campaign_cli_rejects_bad_inject_spec(tmp_path):
    out = str(tmp_path / "x.jsonl")
    args = ["campaign", "--circuits", "z4ml", "--out", out]
    with pytest.raises(SystemExit, match="unknown fault kind"):
        main(args + ["--inject", "segfault:1"])
