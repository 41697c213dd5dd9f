"""End-to-end daemon tests: served rows vs. batch rows, replay,
eviction, restart/resume, work stealing vs. static shards, the CLI
``--server`` path."""

import pytest

from repro.__main__ import main
from repro.api.jobs import JobRequest
from repro.flow.campaign import build_jobs, run_campaign, shard_jobs
from repro.flow.store import ResultStore, rows_equal
from repro.serve import (
    BackgroundDaemon,
    DaemonSettings,
    ServeError,
    get_health,
    get_status,
    run_remote_campaign,
    submit_stream,
)

GRID = ("z4ml", "x2")


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """The reference: the full grid through the batch path."""
    store = ResultStore(tmp_path_factory.mktemp("batch") / "batch.jsonl")
    jobs = build_jobs(GRID)
    summary = run_campaign(jobs, store, n_jobs=2)
    assert summary.failed == 0 and summary.poisoned == 0
    return jobs, store.load()


def settings(tmp_path, **kw):
    kw.setdefault("n_workers", 2)
    return DaemonSettings(store_path=str(tmp_path / "daemon.jsonl"), **kw)


def test_stream_replay_and_fresh_all_match_batch(tmp_path, batch):
    jobs, batch_rows = batch
    with BackgroundDaemon(settings(tmp_path)) as bg:
        # Cold submission: every row computed, streamed, stored.
        first = ResultStore(tmp_path / "first.jsonl")
        summary = run_remote_campaign(bg.url, jobs, first)
        assert summary.ok == len(jobs)
        assert summary.failed == 0 and summary.poisoned == 0
        assert rows_equal(first.load(), batch_rows)

        # Resubmission: served from the result cache, still identical.
        second = ResultStore(tmp_path / "second.jsonl")
        lines = []
        run_remote_campaign(bg.url, jobs, second, progress=lines.append)
        assert rows_equal(second.load(), batch_rows)
        assert all("(replayed)" in line for line in lines)
        health = get_health(bg.url)
        assert health["rows_replayed"] == len(jobs)
        assert health["results_cached"] == len(jobs)

        # fresh=True bypasses the result cache and recomputes.
        served_before = health["rows_served"]
        third = ResultStore(tmp_path / "third.jsonl")
        run_remote_campaign(bg.url, jobs, third, fresh=True)
        assert rows_equal(third.load(), batch_rows)
        health = get_health(bg.url)
        assert health["rows_served"] == served_before + len(jobs)
        assert health["rows_replayed"] == len(jobs)  # unchanged

        # The daemon's own store aggregates everything it computed.
        assert rows_equal(
            ResultStore(bg.daemon.store.path).load()[: len(jobs)],
            batch_rows,
        )


def test_warm_cache_hits_across_requests(tmp_path, batch):
    jobs, batch_rows = batch
    with BackgroundDaemon(settings(tmp_path, n_workers=1)) as bg:
        store = ResultStore(tmp_path / "warm.jsonl")
        run_remote_campaign(bg.url, jobs, store, fresh=True)
        run_remote_campaign(bg.url, jobs, store, fresh=True)
        cache = get_health(bg.url)["worker_cache"]
        # Round two reuses round one's prepared circuits and library.
        assert cache["hits"] > 0
        assert cache["library_hits"] > 0
        assert cache["evictions"] == 0


def test_eviction_under_tiny_cap_keeps_rows_identical(tmp_path, batch):
    jobs, batch_rows = batch
    with BackgroundDaemon(
        settings(tmp_path, n_workers=1, cache_bytes=1)
    ) as bg:
        store = ResultStore(tmp_path / "tiny.jsonl")
        run_remote_campaign(bg.url, jobs, store, fresh=True)
        run_remote_campaign(bg.url, jobs, store, fresh=True)
        cache = get_health(bg.url)["worker_cache"]
        assert cache["evictions"] > 0  # the cap really sheds entries
        assert rows_equal(store.load(), batch_rows)


def test_restart_replays_store_and_client_resume_converges(
    tmp_path, batch
):
    jobs, batch_rows = batch
    subset = [job for job in jobs if job.circuit == "z4ml"]
    assert 0 < len(subset) < len(jobs)
    daemon_settings = settings(tmp_path)
    client = ResultStore(tmp_path / "client.jsonl")

    with BackgroundDaemon(daemon_settings) as bg:
        summary = run_remote_campaign(bg.url, subset, client)
        assert summary.ok == len(subset)

    # A new daemon over the same store starts with those results hot.
    with BackgroundDaemon(daemon_settings) as bg:
        assert get_health(bg.url)["results_cached"] == len(subset)
        summary = run_remote_campaign(bg.url, jobs, client, resume=True)
        assert summary.skipped == len(subset)
        assert summary.ok == len(jobs) - len(subset)
        assert rows_equal(client.load(), batch_rows)

        # Submitting the subset again replays from the reloaded store.
        replay = ResultStore(tmp_path / "replay.jsonl")
        lines = []
        run_remote_campaign(bg.url, subset, replay, progress=lines.append)
        assert all("(replayed)" in line for line in lines)


def test_work_stealing_matches_static_shards(tmp_path, batch):
    jobs, _batch_rows = batch
    shard_rows = []
    for index in (1, 2):
        store = ResultStore(tmp_path / f"shard{index}.jsonl")
        run_campaign(shard_jobs(jobs, index, 2), store, n_jobs=1)
        shard_rows.extend(store.load())
    assert len(shard_rows) == len(jobs)

    with BackgroundDaemon(settings(tmp_path)) as bg:
        served = ResultStore(tmp_path / "served.jsonl")
        run_remote_campaign(bg.url, jobs, served)
        assert rows_equal(served.load(), shard_rows)


def test_mismatched_execution_knobs_are_rejected(tmp_path, batch):
    jobs, _batch_rows = batch
    with BackgroundDaemon(settings(tmp_path)) as bg:
        wrong = JobRequest(configs=(jobs[0].replace(max_iter=999),))
        with pytest.raises(ServeError) as excinfo:
            list(submit_stream(bg.url, wrong))
        assert excinfo.value.status == 400
        assert "does not match this daemon's" in excinfo.value.message

        duplicate = JobRequest(configs=(jobs[0], jobs[0]))
        with pytest.raises(ServeError) as excinfo:
            list(submit_stream(bg.url, duplicate))
        assert excinfo.value.status == 400
        assert "duplicate job" in excinfo.value.message


def test_status_endpoint_tracks_a_request(tmp_path, batch):
    jobs, _batch_rows = batch
    with BackgroundDaemon(settings(tmp_path)) as bg:
        request = JobRequest(configs=tuple(jobs))
        events = list(submit_stream(bg.url, request))
        assert events[0].event == "accepted"
        assert [e.event for e in events[1:-1]] == ["row"] * len(jobs)
        assert events[-1].event == "done"
        assert events[-1].status.completed == len(jobs)

        status = get_status(bg.url, events[0].request_id)
        assert status.state == "done"
        assert status.ok == len(jobs)

        with pytest.raises(ServeError) as excinfo:
            get_status(bg.url, "nonexistent")
        assert excinfo.value.status == 404


def test_pool_is_forked_before_the_daemon_listens(tmp_path):
    """A worker forked after the daemon accepted a connection would
    inherit that socket and keep it open after the daemon closes it,
    so the client would wait for the end of its stream until timeout.
    """
    with BackgroundDaemon(settings(tmp_path)) as bg:
        assert len(bg.daemon.supervisor.workers) == 2


def test_health_reports_the_pool_and_caches(tmp_path):
    with BackgroundDaemon(settings(tmp_path)) as bg:
        health = get_health(bg.url)
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["rows_served"] == 0
        assert set(health["worker_cache"]) >= {"hits", "misses", "bytes"}


def test_cli_campaign_against_a_server(tmp_path, batch, capsys):
    _jobs, batch_rows = batch
    z4ml_rows = [r for r in batch_rows if r["circuit"] == "z4ml"]
    out_path = tmp_path / "cli.jsonl"
    with BackgroundDaemon(settings(tmp_path)) as bg:
        assert main([
            "campaign", "--circuits", "z4ml",
            "--server", bg.url, "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"server={bg.url}" in out
        assert out.count("ok     ") == len(z4ml_rows)
        assert rows_equal(ResultStore(out_path).load(), z4ml_rows)

        # Second CLI run replays from the daemon's result cache.
        rerun_path = tmp_path / "cli2.jsonl"
        assert main([
            "campaign", "--circuits", "z4ml",
            "--server", bg.url, "--out", str(rerun_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("(replayed)") == len(z4ml_rows)
        assert rows_equal(ResultStore(rerun_path).load(), z4ml_rows)


def test_cli_server_flag_validation(tmp_path):
    with pytest.raises(SystemExit, match="--shard"):
        main([
            "campaign", "--circuits", "z4ml",
            "--server", "http://127.0.0.1:1",
            "--shard", "1/2", "--out", str(tmp_path / "x.jsonl"),
        ])
    with pytest.raises(SystemExit, match="--fresh"):
        main([
            "campaign", "--circuits", "z4ml", "--fresh",
            "--out", str(tmp_path / "x.jsonl"),
        ])


def test_cli_server_unreachable_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="server campaign failed"):
        main([
            "campaign", "--circuits", "z4ml",
            "--server", "http://127.0.0.1:9",  # discard port: refused
            "--out", str(tmp_path / "x.jsonl"),
        ])
