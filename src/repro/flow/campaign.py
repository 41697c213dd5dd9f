"""Parallel campaign runner: shard the paper's sweep across processes.

The paper's evaluation is embarrassingly parallel -- 39 circuits x
{CVS, Dscale, Gscale} x (vdd_low, slack_factor) settings -- but the
serial suite runner recomputes everything on any failure.  This module
turns the sweep into a fault-tolerant campaign:

* a **job** is one :class:`~repro.api.config.FlowConfig`: one
  (circuit, method, rails-or-vdd_low, slack_factor, cost model) cell
  with a deterministic ``job_id`` (``--rails`` opens the N-rail MSV
  grid dimension), executed by the workers through
  :class:`~repro.api.flow.Flow`;
* :func:`shard_jobs` splits one campaign across machines
  (``--shard K/N``): jobs partition deterministically by group, each
  shard resumes independently against its own store, and
  ``repro store compact SHARD1 SHARD2 ... --out MERGED`` folds the
  shard stores back together;
* jobs are grouped by the prepared-circuit key
  (:meth:`PreparedCache.prepared_key
  <repro.api.cache.PreparedCache.prepared_key>`: circuit, rail key,
  slack factor, options) so the expensive optimize/map/constrain
  preparation runs once per group and is shared by all three methods
  (and cached per worker across groups);
* each worker process shares one
  :class:`~repro.api.cache.PreparedCache` holding the COMPASS library /
  match table per rail key and every :class:`PreparedCircuit` it
  builds (the serving daemon reuses the same cache with retention on);
* finished rows stream into an append-only :class:`ResultStore`
  (JSONL), so an interrupted campaign **resumes** by skipping completed
  job ids, and a worker exception -- or a ``timeout_s`` wall-clock
  overrun -- becomes a ``status: "failed"`` row instead of killing (or
  hanging) the sweep;
* ``rows_to_results`` folds ok-rows back into
  :class:`~repro.flow.experiment.CircuitResult` objects whose formatted
  Table 1 / Table 2 output is bit-identical to the serial path.

Serial (``n_jobs=1``) and parallel runs produce row-identical stores
modulo the volatile fields (timestamps, wall-clock, worker pid) --
``repro.netlist.network.Network.topological`` is hash-seed independent
precisely so that rows computed in different processes agree bit for
bit.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.api.artifact import (
    DEFAULT_COST_MODEL,
    CircuitResult,
    RunArtifact,
    ScalingReport,
    artifacts_to_results,
)
from repro.api.config import (
    DEFAULT_SLACK_FACTOR,
    DEFAULT_VDD_LOW,
    FlowConfig,
)
from repro.api.cache import PreparedCache
from repro.api.flow import Flow, PreparedCircuit
from repro.api.registry import (
    BUILTIN_METHODS as METHODS,
    is_registered,
    registered_names,
)
from repro.flow.store import ResultStore

SWEEP_VDD_LOWS = (4.6, 4.3, 4.0, 3.7, 3.3)
"""Default ``--sweep`` grid for the low rail (the design-space question
the paper's conclusion leaves open)."""

SWEEP_SLACKS = (1.1, 1.2, 1.4)
"""Default ``--sweep`` grid for the timing-relaxation factor."""

RailSet = tuple[float, ...]
"""An ordered multi-rail supply set, highest first (``()`` = classic
dual-Vdd with the job's ``vdd_low``)."""


class JobTimeout(Exception):
    """A campaign job exceeded its per-job wall-clock budget."""


class TimeoutUnsupportedError(RuntimeError):
    """A wall-clock budget was requested where none can be enforced
    (no ``SIGALRM`` / off the Unix main thread) under strict mode."""


_warned_unbudgeted = False


def reset_deadline_warning() -> None:
    """Re-arm the one-time cannot-enforce-budget warning (tests)."""
    global _warned_unbudgeted
    _warned_unbudgeted = False


@contextmanager
def job_deadline(seconds: float | None, strict: bool = False):
    """Raise :class:`JobTimeout` inside the block after ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it can interrupt a
    pure-Python scaling loop mid-flight; worker processes execute jobs
    on their main thread, which is exactly where this arms.  On
    platforms without the signal, or off the main thread, the in-block
    budget cannot be enforced: a supervised campaign (``n_jobs > 1``)
    still bounds the job through the parent's portable watchdog (which
    kills hung workers outright), but a serial run would silently run
    unbudgeted -- so this emits a one-time :class:`RuntimeWarning`, or
    raises :class:`TimeoutUnsupportedError` under ``strict=True``
    (``campaign --strict-timeouts``).
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        if strict:
            raise TimeoutUnsupportedError(
                f"cannot enforce the {seconds:g}s wall-clock budget "
                f"here (SIGALRM unavailable or off the main thread); "
                f"drop --strict-timeouts or run supervised (n_jobs > "
                f"1), where the parent watchdog enforces budgets "
                f"without signals"
            )
        global _warned_unbudgeted
        if not _warned_unbudgeted:
            _warned_unbudgeted = True
            import warnings

            warnings.warn(
                f"wall-clock budget of {seconds:g}s cannot be "
                f"enforced here (SIGALRM unavailable or off the main "
                f"thread); the job runs unbudgeted -- run supervised "
                f"(n_jobs > 1) for a signal-free watchdog, or pass "
                f"strict timeouts to make this an error",
                RuntimeWarning,
                stacklevel=3,
            )
        yield
        return

    def _expired(signum, frame):
        raise JobTimeout(f"job exceeded its {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def build_jobs(
    circuits: Sequence[str],
    methods: Sequence[str] = METHODS,
    vdd_lows: Sequence[float] = (DEFAULT_VDD_LOW,),
    slack_factors: Sequence[float] = (DEFAULT_SLACK_FACTOR,),
    rails_sets: Sequence[RailSet] = (),
    cost_models: Sequence[str] = (DEFAULT_COST_MODEL,),
) -> list[FlowConfig]:
    """The full cross product, in deterministic order.

    ``rails_sets`` opens the MSV grid dimension: when given, each rail
    set replaces the ``vdd_lows`` axis (a rail set fixes every supply,
    including the high one).  ``cost_models`` opens the move-pricing
    dimension -- but only for methods whose registration declares
    ``prices_moves`` (Dscale among the builtins): a method that never
    consults the cost model appears exactly once per grid point, under
    the default model, rather than as N identically-computed rows
    mislabeled with models that could not have influenced them.
    """
    from repro.api.registry import get_method
    from repro.core.moves import get_cost_model

    for method in methods:
        if not is_registered(method):
            raise ValueError(
                f"method must be one of the registered scaling methods "
                f"{registered_names()}, got {method!r}"
            )
    for cost_model in cost_models:
        get_cost_model(cost_model)  # raises on an unknown name
    method_models: dict[str, tuple[str, ...]] = {}
    for method in methods:
        if get_method(method).prices_moves:
            method_models[method] = tuple(cost_models)
        else:
            method_models[method] = (DEFAULT_COST_MODEL,)

    if rails_sets:
        normalized: list[RailSet] = []
        for rails in rails_sets:
            rails = tuple(float(v) for v in rails)
            if len(rails) < 2:
                raise ValueError(
                    f"a rail set needs at least two supplies, got {rails}"
                )
            normalized.append(rails)
        return [
            FlowConfig(
                circuit=c,
                method=m,
                vdd_low=r[1],
                slack_factor=s,
                rails=r,
                cost_model=cm,
            )
            for c, r, s, m in itertools.product(
                circuits, normalized, slack_factors, methods
            )
            for cm in method_models[m]
        ]
    return [
        FlowConfig(
            circuit=c, method=m, vdd_low=v, slack_factor=s, cost_model=cm
        )
        for c, v, s, m in itertools.product(
            circuits, vdd_lows, slack_factors, methods
        )
        for cm in method_models[m]
    ]


def group_jobs(
    jobs: Iterable[FlowConfig],
) -> list[tuple[tuple, list[FlowConfig]]]:
    """Group jobs by shared prepared circuit (the
    :meth:`~repro.api.cache.PreparedCache.prepared_key`), preserving
    job order."""
    grouped: dict[tuple, list[FlowConfig]] = {}
    for job in jobs:
        grouped.setdefault(PreparedCache.prepared_key(job), []).append(job)
    return list(grouped.items())


def shard_jobs(
    jobs: Sequence[FlowConfig], index: int, count: int
) -> list[FlowConfig]:
    """Deterministically partition ``jobs`` and keep shard ``index``.

    ``index`` is 1-based (the CLI's ``--shard 2/4`` keeps shard 2 of
    4), every job id lands on exactly one shard, and the union over all
    shards is the full job list -- so N machines can each run their
    shard into their own store and ``repro store compact`` the stores
    together afterwards.

    The partition unit is the *group* (the prepared-circuit key of
    :func:`group_jobs`), not the raw job id, so the methods sharing one
    prepared circuit always land on the same shard and no machine
    recomputes another's optimize/map/constrain prefix.  Groups are dealt
    round-robin in job-list order, which balances shard sizes to
    within one group; ``build_jobs`` emits a deterministic order, so
    every machine invoked with the same grid arguments computes the
    same partition.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ValueError(
            f"shard index must satisfy 1 <= index <= count, "
            f"got {index}/{count}"
        )
    if count == 1:
        return list(jobs)
    group_shard: dict[tuple, int] = {}
    keep = []
    for job in jobs:
        key = PreparedCache.prepared_key(job)
        if key not in group_shard:
            group_shard[key] = len(group_shard) % count
        if group_shard[key] == index - 1:
            keep.append(job)
    return keep


# ---------------------------------------------------------------------
# Worker side.  Each worker process shares one
# :class:`repro.api.cache.PreparedCache`, so a library is characterized
# once per rail key and a circuit is prepared once per prepared-circuit
# key -- for the default sweep that amortizes the whole pipeline prefix
# across all three methods.  The batch campaign runs with
# ``retain_prepared=False`` (every group is dispatched once, so
# cross-group retention is pure memory growth); the serving daemon
# reconfigures the cache with retention on and a byte cap.
# ---------------------------------------------------------------------

_WORKER_CACHE = PreparedCache(retain_prepared=False)


def worker_cache() -> PreparedCache:
    """This process's shared flow cache (stats live on ``.stats``)."""
    return _WORKER_CACHE


def configure_worker_cache(
    max_bytes: int | None = None,
    retain_prepared: bool = False,
) -> PreparedCache:
    """Replace this process's shared cache with a reconfigured one.

    The supervisor's worker bootstrap calls this so a daemon-owned
    worker retains prepared circuits under a byte cap while a batch
    worker keeps the evict-after-group profile.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = PreparedCache(
        max_bytes=max_bytes,
        retain_prepared=retain_prepared,
    )
    return _WORKER_CACHE


def clear_worker_caches() -> None:
    """Drop the per-process library / prepared-circuit caches."""
    _WORKER_CACHE.clear()


def make_row(
    job: FlowConfig,
    prepared: PreparedCircuit,
    report: ScalingReport,
    runtime_s: float,
) -> dict[str, Any]:
    """One ok-row of the store, from a finished scaling run."""
    gates = sum(1 for n in prepared.network.nodes.values() if not n.is_input)
    return RunArtifact(
        circuit=job.circuit,
        method=job.method,
        vdd_low=job.vdd_low,
        slack_factor=job.slack_factor,
        rails=job.rails,
        cost_model=job.cost_model,
        status="ok",
        gates=gates,
        org_power_uw=report.power_before_uw,
        min_delay_ns=prepared.min_delay,
        tspec_ns=prepared.tspec,
        report=report,
        runtime_s=runtime_s,
    ).to_row()


def make_failed_row(
    job: FlowConfig,
    exc: BaseException,
    runtime_s: float,
    attempt: int = 1,
    status: str = "failed",
) -> dict[str, Any]:
    return RunArtifact.from_failure(
        job.circuit,
        job.method,
        exc,
        vdd_low=job.vdd_low,
        slack_factor=job.slack_factor,
        rails=job.rails,
        cost_model=job.cost_model,
        timeout=isinstance(exc, JobTimeout),
        runtime_s=runtime_s,
        attempt=attempt,
        status=status,
    ).to_row()


def iter_group_rows(
    group: Sequence[FlowConfig],
    timeout_s: float | None = None,
    strict_timeouts: bool = False,
    attempts: dict[str, int] | None = None,
    faults: Any = None,
    on_phase: Callable[[str], None] | None = None,
    on_start: Callable[[FlowConfig], None] | None = None,
) -> Iterator[tuple[FlowConfig, dict[str, Any]]]:
    """Yield ``(job, row)`` for every job of one preparation group.

    This is the execution core shared by the serial runner and the
    supervised workers: the group's first config prepares the circuit
    through the worker cache, then every job runs as its own
    :class:`~repro.api.flow.Flow` on that prepared circuit.  A failing
    job -- including a preparation failure, which dooms the whole
    group -- yields failed rows; it never raises, so one bad circuit
    cannot take the campaign down.
    ``timeout_s`` budgets wall clock per *phase*: the group's shared
    preparation gets one budget of its own, then every job's scaling
    run gets another, so a group's worst case is
    ``(1 + len(group)) * timeout_s``.  An overrun becomes a failed row
    with ``timeout: true`` (for a preparation overrun, one per job in
    the group) while the rest of the campaign continues.

    ``attempts`` maps job ids to their 1-based execution attempt
    (stamped onto rows); ``faults`` is a
    :class:`~repro.flow.faults.FaultPlan` whose worker-side hooks run
    around each job; ``on_phase`` / ``on_start`` are the supervisor's
    heartbeat hooks, called before the preparation phase and before
    each job so the parent watchdog knows what this process is doing.
    """
    if not group:
        return
    attempts = attempts or {}
    notify_phase = on_phase or (lambda _label: None)
    notify_start = on_start or (lambda _job: None)

    first = group[0]
    notify_phase("prepare")
    started = time.perf_counter()
    try:
        with job_deadline(timeout_s, strict=strict_timeouts):
            flow = Flow(first, cache=_WORKER_CACHE)
            prepared = flow.prepare()
            library, match_table = flow.library, flow.match_table
    except Exception as exc:  # JobTimeout included
        elapsed = time.perf_counter() - started
        for job in group:
            notify_start(job)
            yield (
                job,
                make_failed_row(
                    job,
                    exc,
                    elapsed,
                    attempt=attempts.get(job.job_id, 1),
                ),
            )
        return
    # A batch campaign dispatches each group exactly once, so keeping
    # the prepared circuit cached past this call is pure memory growth
    # in a long-lived worker; evict it (the library cache, keyed by
    # rail key, is the one with real cross-group reuse).  A retaining
    # cache (the daemon's) keeps it and lets its eviction policy decide.
    if not _WORKER_CACHE.retain_prepared:
        _WORKER_CACHE.evict_prepared(first)

    for job in group:
        attempt = attempts.get(job.job_id, 1)
        notify_start(job)
        if faults is not None:
            faults.before_job(job.job_id, attempt)
        started = time.perf_counter()
        try:
            with job_deadline(timeout_s, strict=strict_timeouts):
                if faults is not None:
                    faults.check_raise(job.job_id, attempt)
                artifact = Flow(
                    job, library=library, match_table=match_table
                ).run(prepared=prepared)
        except Exception as exc:  # JobTimeout included
            yield (
                job,
                make_failed_row(
                    job,
                    exc,
                    time.perf_counter() - started,
                    attempt=attempt,
                ),
            )
            continue
        artifact.runtime_s = time.perf_counter() - started
        artifact.attempt = attempt
        if faults is not None:
            faults.after_job(job.job_id, attempt)
        yield job, artifact.to_row()


def _import_plugins(plugins: Sequence[str]) -> None:
    """Import plugin modules so their ``register_method`` calls run.

    Worker processes do not inherit the parent's registry under the
    ``spawn``/``forkserver`` start methods, so the plugin list rides
    along in every worker's settings and is (idempotently -- imports
    are cached per process) re-imported when the worker starts.
    """
    import importlib

    for module in plugins:
        importlib.import_module(module)


# ---------------------------------------------------------------------
# Parent side: scheduling, the store, resume.
# ---------------------------------------------------------------------


@dataclass
class CampaignSummary:
    """What a campaign run did (counts, not rows).

    ``poisoned`` jobs exhausted their supervised retry budget;
    ``retries`` counts the extra execution attempts behind the
    surviving rows (0 on a clean run).
    """

    total_jobs: int
    skipped: int
    ok: int
    failed: int
    elapsed_s: float
    poisoned: int = 0
    retries: int = 0

    @property
    def completed(self) -> int:
        return self.ok + self.failed + self.poisoned

    @classmethod
    def begin(
        cls,
        jobs: Sequence[FlowConfig],
        store: ResultStore,
        resume: bool,
        retry_failed: bool,
        say: Callable[[str], None],
    ) -> tuple[CampaignSummary, list[FlowConfig]]:
        """The resume prelude: an empty summary and the pending jobs.

        With ``resume`` the job ids the store already completed are
        skipped (poisoned ones too, unless ``retry_failed``); otherwise
        an existing store file is truncated.
        """
        if resume:
            done = store.completed_ids(include_poisoned=not retry_failed)
        else:
            done = set()
            if os.path.exists(store.path):
                os.remove(store.path)
        pending = [job for job in jobs if job.job_id not in done]
        summary = cls(
            total_jobs=len(jobs),
            skipped=len(jobs) - len(pending),
            ok=0,
            failed=0,
            elapsed_s=0.0,
        )
        if summary.skipped:
            say(f"resume: skipping {summary.skipped} completed job(s)")
        return summary, pending

    def tally(
        self,
        row: dict[str, Any],
        say: Callable[[str], None],
        replayed: bool = False,
    ) -> None:
        """Count one finished row and report its progress line."""
        attempt = int(row.get("attempt", 1))
        self.retries += max(0, attempt - 1)
        note = f" (attempt {attempt})" if attempt > 1 else ""
        if replayed:
            note += " (replayed)"
        if row["status"] == "ok":
            self.ok += 1
            say(
                f"ok     {row['job_id']}  "
                f"{row['report']['improvement_pct']:6.2f}%  "
                f"[{row['runtime_s']:.2f}s]{note}"
            )
        elif row["status"] == "poisoned":
            self.poisoned += 1
            say(f"POISONED {row['job_id']}  {row['error']}{note}")
        else:
            self.failed += 1
            say(f"FAILED {row['job_id']}  {row['error']}{note}")


def run_campaign(
    jobs: Sequence[FlowConfig],
    store: ResultStore,
    n_jobs: int = 1,
    resume: bool = False,
    timeout_s: float | None = None,
    plugins: Sequence[str] = (),
    progress: Callable[[str], None] | None = None,
    retry_failed: bool = False,
    max_attempts: int = 3,
    backoff_s: float = 0.25,
    strict_timeouts: bool = False,
    faults: Any = None,
) -> CampaignSummary:
    """Execute ``jobs``, streaming rows into ``store``.

    With ``resume=True`` the store's existing ok-rows are kept and
    their job ids skipped (failed rows are retried; poisoned rows stay
    quarantined unless ``retry_failed=True``); otherwise an existing
    store file is truncated.  ``n_jobs=1`` runs in-process; ``n_jobs>1``
    fans job groups out over a supervised worker pool
    (:class:`~repro.flow.supervise.Supervisor`) that survives hard
    worker deaths: a crashed or hung worker is killed and respawned,
    its in-flight job retried with exponential backoff up to
    ``max_attempts`` executions, then quarantined as a
    ``status: "poisoned"`` row.  The parent is the only writer, so rows
    land whole even when workers die mid-job.  ``timeout_s`` gives
    every job a wall-clock budget: an overrunning job is recorded as a
    failed (``timeout: true``) row instead of stalling its pool slot
    forever (supervised runs back the in-worker SIGALRM with a
    signal-free parent watchdog; serial runs without SIGALRM warn, or
    refuse under ``strict_timeouts``).  ``plugins`` names modules that
    register custom scaling methods; they are imported in this process
    *and* in every worker (spawn-safe), so registry-injected methods
    campaign like builtins.  ``faults`` threads a seeded
    :class:`~repro.flow.faults.FaultPlan` through the workers and the
    store writes (chaos testing only).
    """
    say = progress or (lambda _msg: None)
    if (
        faults is not None
        and faults.needs_supervisor
        and n_jobs <= 1
    ):
        raise ValueError(
            f"{faults.describe()} holds kill/hang faults, which only a "
            f"supervised campaign (n_jobs > 1) survives"
        )
    if (
        faults is not None
        and faults.hang_on
        and not timeout_s
    ):
        raise ValueError(
            "hang faults need timeout_s: without a budget the parent "
            "watchdog is disarmed and the hang never ends"
        )
    summary, pending = CampaignSummary.begin(
        jobs, store, resume, retry_failed, say
    )
    groups = group_jobs(pending)

    def record(row: dict[str, Any]) -> None:
        attempt = int(row.get("attempt", 1))
        damage = (
            faults.store_damage_for(row["job_id"], attempt)
            if faults is not None
            else None
        )
        if damage:
            store.append_damaged(row, damage)
        else:
            store.append(row)
        summary.tally(row, say)

    _import_plugins(plugins)
    started = time.perf_counter()
    with store:
        if n_jobs <= 1:
            for _key, group in groups:
                for _job, row in iter_group_rows(
                    group,
                    timeout_s=timeout_s,
                    strict_timeouts=strict_timeouts,
                    faults=faults,
                ):
                    record(row)
        else:
            from repro.flow.supervise import Supervisor

            supervisor = Supervisor(
                groups=[group for _key, group in groups],
                n_workers=n_jobs,
                timeout_s=timeout_s,
                plugins=tuple(plugins),
                strict_timeouts=strict_timeouts,
                faults=faults,
                max_attempts=max_attempts,
                backoff_s=backoff_s,
                say=say,
            )
            for row in supervisor.run():
                record(row)
    summary.elapsed_s = time.perf_counter() - started
    return summary


# ---------------------------------------------------------------------
# Aggregation: rows -> CircuitResult -> the paper's tables.
# ---------------------------------------------------------------------


def row_rails(row: dict[str, Any]) -> RailSet:
    """A row's rail set; schema-1 rows (no ``rails`` field) are classic
    dual-Vdd and normalize to the empty tuple."""
    return tuple(row.get("rails") or ())


def row_cost_model(row: dict[str, Any]) -> str:
    """A row's cost model; rows older than schema 3 used the paper's."""
    return row.get("cost_model") or DEFAULT_COST_MODEL


def rows_to_results(
    rows: Iterable[dict[str, Any]],
    vdd_low: float | None = None,
    slack_factor: float | None = None,
    rails: RailSet | None = None,
    cost_model: str | None = None,
) -> list[CircuitResult]:
    """Fold ok-rows back into per-circuit results.

    ``vdd_low`` / ``slack_factor`` / ``rails`` / ``cost_model`` filter
    a sweep store down to one grid point (defaulting to the only point
    present; ambiguous stores must be filtered explicitly; ``rails=()``
    selects the classic dual-Vdd rows).  Later rows win over earlier
    rows with the same job id, so a store produced by repeated resumes
    aggregates to the freshest run of every job.
    """
    ok_rows = [r for r in rows if r.get("status") == "ok"]
    points = {
        (r["vdd_low"], r["slack_factor"], row_rails(r), row_cost_model(r))
        for r in ok_rows
    }
    if vdd_low is not None:
        points = {p for p in points if p[0] == vdd_low}
        ok_rows = [r for r in ok_rows if r["vdd_low"] == vdd_low]
    if slack_factor is not None:
        points = {p for p in points if p[1] == slack_factor}
        ok_rows = [r for r in ok_rows if r["slack_factor"] == slack_factor]
    if rails is not None:
        rails = tuple(float(v) for v in rails)
        points = {p for p in points if p[2] == rails}
        ok_rows = [r for r in ok_rows if row_rails(r) == rails]
    if cost_model is not None:
        points = {p for p in points if p[3] == cost_model}
        ok_rows = [r for r in ok_rows if row_cost_model(r) == cost_model]
    if len(points) > 1:
        raise ValueError(
            "store holds a sweep over "
            f"{sorted(points)}; pass vdd_low=/slack_factor=/rails=/"
            "cost_model= to select one grid point"
        )

    # Last row per job id wins (a store spanning repeated resumes keeps
    # superseded rows on disk); dict insertion order preserves the first
    # appearance while the value tracks the freshest run.
    by_job: dict[Any, dict[str, Any]] = {}
    for row in ok_rows:
        by_job[row.get("job_id", id(row))] = row

    return artifacts_to_results(
        [RunArtifact.from_row(row) for row in by_job.values()]
    )


def sweep_points(rows: Iterable[dict[str, Any]]) -> list[tuple[float, float]]:
    """The distinct (vdd_low, slack_factor) grid points in a store."""
    return sorted(
        {
            (r["vdd_low"], r["slack_factor"])
            for r in rows
            if r.get("status") == "ok"
        }
    )


def sweep_rail_sets(rows: Iterable[dict[str, Any]]) -> list[RailSet]:
    """The distinct rail sets in a store (``()`` = classic dual-Vdd)."""
    return sorted({row_rails(r) for r in rows if r.get("status") == "ok"})


__all__ = [
    "DEFAULT_VDD_LOW",
    "SWEEP_VDD_LOWS",
    "SWEEP_SLACKS",
    "CampaignSummary",
    "JobTimeout",
    "TimeoutUnsupportedError",
    "job_deadline",
    "reset_deadline_warning",
    "build_jobs",
    "group_jobs",
    "shard_jobs",
    "iter_group_rows",
    "run_campaign",
    "make_row",
    "make_failed_row",
    "row_cost_model",
    "row_rails",
    "rows_to_results",
    "sweep_points",
    "sweep_rail_sets",
    "clear_worker_caches",
    "configure_worker_cache",
    "worker_cache",
]
