"""Supervised worker pool: the crash-proof engine under ``run_campaign``.

``multiprocessing.Pool`` cannot survive a hard worker death -- a
segfault, OOM-kill, or ``os._exit`` mid-job wedges ``imap_unordered``
forever.  The :class:`Supervisor` replaces it with worker ``Process``
objects the parent owns outright:

* each worker gets its **own task queue** and is assigned exactly one
  group at a time, so a dying worker can never take undispatched work
  down with it; a group is a tuple of
  :class:`~repro.api.config.FlowConfig` jobs sharing one prepared
  circuit, and every job carries its own knobs (``max_iter``,
  ``area_budget``, options), so a worker's settings are only the pool's
  timeout, plugins, fault plan and cache profile;
* workers report over one shared result queue -- ``phase`` (starting
  the group's shared preparation), ``start`` (starting one job),
  ``row`` (a finished row), ``done`` (group complete) -- which doubles
  as a heartbeat: every message resets that worker's **watchdog
  deadline** (``timeout_s * WATCHDOG_GRACE + WATCHDOG_MARGIN_S``), a
  portable wall-clock bound needing no ``SIGALRM``, so even a job hung
  in uninterruptible code is killed from outside;
* a dead or killed worker is **respawned** (its lazy library /
  prepared-circuit caches rebuild on demand) and its in-flight job is
  re-enqueued with exponential backoff plus deterministic jitter; after
  ``max_attempts`` executions the job is quarantined as a
  ``status: "poisoned"`` row instead of crash-looping, while the rest
  of its group re-runs immediately on another worker;
* the parent remains the **only store writer**; rows stream back whole
  or not at all, and a row that limps out of a dying worker after its
  job was already re-enqueued is harmless (the store's last-row-wins
  rule de-duplicates).

The jitter RNG is seeded per (seed, job id, attempt), so a supervised
chaos run under a fixed :class:`~repro.flow.faults.FaultPlan` replays
the same schedule every time.
"""

from __future__ import annotations

import multiprocessing as mp
import random
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.api.cache import CacheStats, PreparedCache
from repro.api.config import FlowConfig
from repro.flow.campaign import (
    JobTimeout,
    _import_plugins,
    configure_worker_cache,
    iter_group_rows,
    make_failed_row,
    worker_cache,
)

DEFAULT_MAX_ATTEMPTS = 3
"""Executions a job gets (1 first run + 2 retries) before poisoning."""

DEFAULT_BACKOFF_BASE_S = 0.25
"""First-retry delay; doubles per retry up to ``BACKOFF_CAP_S``."""

BACKOFF_CAP_S = 30.0
BACKOFF_JITTER = 0.5
"""Retry delay is scaled by ``1 + BACKOFF_JITTER * rng.random()``."""

WATCHDOG_GRACE = 1.5
WATCHDOG_MARGIN_S = 1.0
"""A worker is presumed hung ``timeout_s * WATCHDOG_GRACE +
WATCHDOG_MARGIN_S`` after its last heartbeat: enough past the in-worker
SIGALRM that a graceful timeout row always wins the race when the
worker is healthy."""

POLL_INTERVAL_S = 0.05


class WorkerDied(RuntimeError):
    """A worker process died (crash or watchdog kill) mid-task."""


@dataclass
class Task:
    """One unit of dispatch: a job group plus per-job attempt numbers.

    Retries are single-job tasks (``attempts`` carrying the bumped
    count); ``ready_at`` is the monotonic time backoff releases it.
    """

    group: tuple[FlowConfig, ...]
    attempts: dict[str, int] = field(default_factory=dict)
    ready_at: float = 0.0


def _worker_main(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    settings: tuple,
) -> None:
    """Worker loop: run assigned groups until the ``None`` sentinel.

    ``settings`` is ``(timeout_s, plugins, strict_timeouts, faults,
    cache_bytes, retain_cache)``; a task is ``(group, attempts)``.
    Messages: ``("phase", id, label)``, ``("start", id, job_id)``,
    ``("row", id, row)``, ``("done", id, cache_stats)``.

    ``retain_cache`` flips the worker's shared
    :class:`~repro.api.cache.PreparedCache` into retention mode under
    ``cache_bytes`` (the daemon's hot-cache workers); a batch worker
    keeps the evict-after-group profile.  Every ``done`` message
    carries the cache's cumulative counters so the parent can
    aggregate hit rates across the pool.
    """
    (
        timeout_s,
        plugins,
        strict,
        faults,
        cache_bytes,
        retain_cache,
    ) = settings
    _import_plugins(plugins)
    if retain_cache or cache_bytes is not None:
        configure_worker_cache(
            max_bytes=cache_bytes, retain_prepared=retain_cache
        )
    while True:
        task = task_queue.get()
        if task is None:
            break
        group, attempts = task
        for _job, row in iter_group_rows(
            group,
            timeout_s=timeout_s,
            strict_timeouts=strict,
            attempts=attempts,
            faults=faults,
            on_phase=lambda label: result_queue.put(
                ("phase", worker_id, label)
            ),
            on_start=lambda job: result_queue.put(
                ("start", worker_id, job.job_id)
            ),
        ):
            result_queue.put(("row", worker_id, row))
        result_queue.put(
            ("done", worker_id, worker_cache().stats.as_dict())
        )


@dataclass
class _WorkerState:
    """Parent-side view of one worker process."""

    id: int
    proc: Any
    task_queue: Any
    task: Task | None = None
    started: list[str] = field(default_factory=list)
    rowed: set[str] = field(default_factory=set)
    deadline: float | None = None
    seen_groups: set = field(default_factory=set)


class Supervisor:
    """Run job groups across supervised workers; see module docstring.

    :meth:`run` is a generator of finished rows (ok, failed, and
    poisoned alike) in completion order; the caller owns the store.

    Batch mode (the default) drains the constructor's ``groups`` and
    returns.  ``keep_alive=True`` is the daemon's mode: the full pool
    spawns immediately, :meth:`run` idles when the queue is empty, and
    other threads feed it through :meth:`submit` until :meth:`stop` --
    the pending deque is a single work-stealing queue (any free worker
    takes the next ready task, with a preference for groups it has
    prepared before), which is what makes static ``--shard K/N``
    splits unnecessary under the daemon.  ``cache_bytes`` /
    ``retain_cache`` configure the workers' shared
    :class:`~repro.api.cache.PreparedCache`; :meth:`cache_stats`
    aggregates the counters every worker reports on each completed
    task.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[FlowConfig]],
        n_workers: int,
        timeout_s: float | None = None,
        plugins: tuple[str, ...] = (),
        strict_timeouts: bool = False,
        faults: Any = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_BASE_S,
        say: Callable[[str], None] | None = None,
        seed: int | None = None,
        keep_alive: bool = False,
        cache_bytes: int | None = None,
        retain_cache: bool | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.pending = [Task(group=tuple(g)) for g in groups if g]
        self.n_workers = n_workers
        self.keep_alive = keep_alive
        if retain_cache is None:
            retain_cache = keep_alive
        self.settings = (
            timeout_s,
            tuple(plugins),
            strict_timeouts,
            faults,
            cache_bytes,
            retain_cache,
        )
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.say = say or (lambda _msg: None)
        self.seed = (
            seed
            if seed is not None
            else (faults.seed if faults is not None else 0)
        )
        self.ctx = mp.get_context()
        # SimpleQueue writes synchronously in the sending process (no
        # feeder thread), so a message a worker finished put()-ing
        # survives even an immediate os._exit -- which keeps row loss
        # and victim attribution exact under hard crashes.  A plain
        # mp.Queue buffers through a feeder thread that a dying worker
        # kills with messages still unflushed.
        self.result_queue = self.ctx.SimpleQueue()
        self.workers: list[_WorkerState] = []
        self.by_id: dict[int, _WorkerState] = {}
        self._next_id = 0
        self.respawns = 0
        # submit()/stop() may be called from other threads (the
        # daemon's asyncio loop feeds the engine thread running run());
        # the lock guards the pending queue and the stop flag.
        self._lock = threading.Lock()
        self._stopped = False
        self._worker_stats: dict[int, dict[str, Any]] = {}
        # Set once run() has forked its initial pool (or failed to).
        self.spawned = threading.Event()

    # -- lifecycle ---------------------------------------------------

    def submit(
        self,
        group: Sequence[FlowConfig],
        attempts: dict[str, int] | None = None,
    ) -> None:
        """Enqueue one job group (thread-safe; keep-alive mode).

        The group joins the shared work-stealing queue and any free
        worker picks it up; rows come back through the (single)
        :meth:`run` generator.
        """
        if not group:
            return
        with self._lock:
            if self._stopped:
                raise RuntimeError(
                    "supervisor is stopping; no new submissions"
                )
            self.pending.append(
                Task(group=tuple(group), attempts=dict(attempts or {}))
            )

    def stop(self) -> None:
        """Ask :meth:`run` to exit once the queue drains (thread-safe)."""
        with self._lock:
            self._stopped = True

    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters across the pool (latest snapshot
        per worker; each worker reports on every completed task)."""
        stats = CacheStats()
        for snapshot in self._worker_stats.values():
            stats.add(snapshot)
        return stats

    def _idle(self) -> bool:
        with self._lock:
            return not self.pending and not any(
                w.task for w in self.workers
            )

    def run(self) -> Iterator[dict[str, Any]]:
        """Yield every finished row; returns when all work is done.

        In keep-alive mode "done" means :meth:`stop` was called and
        the queue has drained; until then the loop idles, waiting for
        :meth:`submit`.
        """
        if not self.pending and not self.keep_alive:
            return
        try:
            n_spawn = (
                self.n_workers
                if self.keep_alive
                else min(self.n_workers, len(self.pending))
            )
            for _ in range(n_spawn):
                self.workers.append(self._spawn())
            self.spawned.set()
            while True:
                if self._idle() and (not self.keep_alive or self._stopped):
                    break
                self._assign()
                yield from self._drain(POLL_INTERVAL_S)
                yield from self._check_workers()
        finally:
            self.spawned.set()  # never leave a waiter hanging on a failure
            self._shutdown()

    def _spawn(self) -> _WorkerState:
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self.result_queue, self.settings),
            daemon=True,
            name=f"repro-campaign-worker-{worker_id}",
        )
        proc.start()
        state = _WorkerState(id=worker_id, proc=proc, task_queue=task_queue)
        self.by_id[worker_id] = state
        return state

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.proc.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        for worker in self.workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            worker.task_queue.cancel_join_thread()
            worker.task_queue.close()
        self.result_queue.close()
        self.workers.clear()
        self.by_id.clear()

    # -- scheduling --------------------------------------------------

    def _budget(self, now: float) -> float | None:
        if not self.timeout_s:
            return None
        return now + self.timeout_s * WATCHDOG_GRACE + WATCHDOG_MARGIN_S

    def _pop_ready(
        self, now: float, worker: _WorkerState | None = None
    ) -> Task | None:
        """Pop the next ready task, preferring cache affinity.

        A task whose preparation group the worker has already executed
        hits that worker's retained prepared-circuit cache, so among
        the ready tasks one whose prepared-circuit key the worker has
        seen wins; otherwise it is plain FIFO stealing.  (Batch workers
        never see a group twice, so the preference is inert there.)
        Caller holds the lock.
        """
        seen = worker.seen_groups if worker is not None else set()
        fallback = None
        for i, task in enumerate(self.pending):
            if task.ready_at > now:
                continue
            if seen and PreparedCache.prepared_key(task.group[0]) in seen:
                return self.pending.pop(i)
            if fallback is None:
                fallback = i
        if fallback is None:
            return None
        return self.pending.pop(fallback)

    def _assign(self) -> None:
        now = time.monotonic()
        for worker in self.workers:
            if worker.task is not None or worker.proc.exitcode is not None:
                continue
            with self._lock:
                task = self._pop_ready(now, worker)
            if task is None:
                return
            worker.task = task
            worker.started = []
            worker.rowed = set()
            worker.deadline = self._budget(now)
            worker.seen_groups.add(PreparedCache.prepared_key(task.group[0]))
            worker.task_queue.put((task.group, task.attempts))

    def _backoff_delay(self, job_id: str, attempt: int) -> float:
        """Delay before execution ``attempt`` (2-based) of a job.

        Exponential in the retry number, capped, with deterministic
        jitter from a per-(seed, job, attempt) RNG so concurrent
        retries do not stampede in lockstep yet replay identically.
        """
        rng = random.Random(f"{self.seed}:{job_id}:{attempt}")
        retry = max(1, attempt - 1)
        base = min(BACKOFF_CAP_S, self.backoff_s * (2 ** (retry - 1)))
        return base * (1 + BACKOFF_JITTER * rng.random())

    # -- the event loop ----------------------------------------------

    def _poll(self, wait_s: float) -> bool:
        """Is a result message available within ``wait_s`` seconds?

        SimpleQueue has no timed ``get``; its reader connection's
        ``poll`` provides the timeout (a message is written whole under
        the queue's write lock, so poll-then-get cannot block long).
        """
        return self.result_queue._reader.poll(wait_s)

    def _drain(self, wait_s: float) -> Iterator[dict[str, Any]]:
        if not self._poll(wait_s):
            return
        while True:
            yield from self._handle(self.result_queue.get())
            if not self._poll(0.0):
                return

    def _handle(self, message: tuple) -> Iterator[dict[str, Any]]:
        kind, worker_id = message[0], message[1]
        worker = self.by_id.get(worker_id)
        if kind == "row":
            row = message[2]
            if worker is not None and worker.task is not None:
                worker.rowed.add(row["job_id"])
                worker.deadline = self._budget(time.monotonic())
            # A row from an already-replaced worker is still a finished
            # row; if its job was re-enqueued, last-row-wins dedupes.
            yield row
            return
        if worker is None or worker.task is None:
            return  # stale message from a retired worker
        if kind == "phase":
            worker.deadline = self._budget(time.monotonic())
        elif kind == "start":
            worker.started.append(message[2])
            worker.deadline = self._budget(time.monotonic())
        elif kind == "done":
            worker.task = None
            worker.deadline = None
            if len(message) > 2 and isinstance(message[2], dict):
                self._worker_stats[worker_id] = message[2]

    def _check_workers(self) -> Iterator[dict[str, Any]]:
        now = time.monotonic()
        for i, worker in enumerate(self.workers):
            if worker.proc.exitcode is not None:
                cause = (
                    f"worker died (exit code {worker.proc.exitcode})"
                )
                yield from self._on_death(i, cause, is_timeout=False)
            elif (
                worker.task is not None
                and worker.deadline is not None
                and now > worker.deadline
            ):
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
                budget = (
                    self.timeout_s * WATCHDOG_GRACE + WATCHDOG_MARGIN_S
                )
                cause = (
                    f"watchdog killed hung worker "
                    f"(no heartbeat within {budget:g}s)"
                )
                yield from self._on_death(i, cause, is_timeout=True)

    def _on_death(
        self, index: int, cause: str, is_timeout: bool
    ) -> Iterator[dict[str, Any]]:
        worker = self.workers[index]
        # Rows the dying worker managed to put may still sit in the
        # pipe; give them a moment to land before declaring jobs lost.
        for _ in range(3):
            drained = list(self._drain(POLL_INTERVAL_S))
            yield from drained
            if not drained:
                break
        if worker.task is not None:
            yield from self._requeue(worker, cause, is_timeout)
        del self.by_id[worker.id]
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        worker.task_queue.cancel_join_thread()
        worker.task_queue.close()
        self.respawns += 1
        self.workers[index] = self._spawn()

    def _requeue(
        self, worker: _WorkerState, cause: str, is_timeout: bool
    ) -> Iterator[dict[str, Any]]:
        """Reschedule a dead worker's task: retry or poison the victim
        job, re-enqueue the rest of its group unchanged."""
        task = worker.task
        assert task is not None
        now = time.monotonic()
        remaining = [
            job for job in task.group if job.job_id not in worker.rowed
        ]
        if not remaining:
            return  # every row landed; only the "done" marker was lost
        victim = None
        for job_id in reversed(worker.started):
            if job_id not in worker.rowed:
                victim = next(
                    job for job in remaining if job.job_id == job_id
                )
                break
        if victim is None:
            # Died before any "start" (group preparation): blame the
            # group's first remaining job so a crash-looping prepare
            # phase still converges job by job.
            victim = remaining[0]
        attempt = task.attempts.get(victim.job_id, 1)
        others = [
            job for job in remaining if job.job_id != victim.job_id
        ]
        if others:
            with self._lock:
                self.pending.insert(
                    0,
                    Task(
                        group=tuple(others),
                        attempts={
                            job.job_id: task.attempts[job.job_id]
                            for job in others
                            if job.job_id in task.attempts
                        },
                    ),
                )
        if attempt >= self.max_attempts:
            exc: Exception = (
                JobTimeout(cause) if is_timeout else WorkerDied(cause)
            )
            self.say(
                f"POISON {victim.job_id} after {attempt} attempt(s): "
                f"{cause}"
            )
            yield make_failed_row(
                victim, exc, 0.0, attempt=attempt, status="poisoned"
            )
        else:
            delay = self._backoff_delay(victim.job_id, attempt + 1)
            self.say(
                f"retry  {victim.job_id} in {delay:.2f}s "
                f"(attempt {attempt + 1}/{self.max_attempts}): {cause}"
            )
            with self._lock:
                self.pending.append(
                    Task(
                        group=(victim,),
                        attempts={victim.job_id: attempt + 1},
                        ready_at=now + delay,
                    )
                )


__all__ = [
    "BACKOFF_CAP_S",
    "BACKOFF_JITTER",
    "DEFAULT_BACKOFF_BASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "POLL_INTERVAL_S",
    "WATCHDOG_GRACE",
    "WATCHDOG_MARGIN_S",
    "Supervisor",
    "Task",
    "WorkerDied",
]
