"""The serving daemon: one persistent pool, hot caches, NDJSON streams.

One :class:`Daemon` owns

* a :class:`~repro.flow.supervise.Supervisor` in keep-alive mode -- the
  full worker pool spawns at startup and stays up; every submission's
  job groups join the supervisor's shared work-stealing queue, so load
  balances dynamically across requests (this is what subsumes the batch
  path's static ``--shard K/N`` splits) and the PR 6 crash / hang /
  retry semantics apply to served jobs unchanged;
* per-worker :class:`~repro.api.cache.PreparedCache` instances in
  retention mode -- libraries, match tables, and prepared circuits
  survive across requests behind an LRU byte cap
  (``--cache-mb``), which is where the warm-request speedup comes from;
* one :class:`~repro.flow.store.ResultStore` -- every finished row is
  appended (the store's in-process advisory lock keeps concurrent
  streams torn-row-free), and the freshest ok row per job id doubles as
  a **result cache**: a resubmitted job id replays its row instantly
  unless the request says ``fresh``;
* an asyncio front end speaking plain HTTP/1.1 (stdlib only):

  ====== ==================== =======================================
  POST   ``/v1/jobs``         submit a :class:`~repro.api.jobs.JobRequest`;
                              the response is an NDJSON stream of
                              :class:`~repro.api.jobs.ProgressEvent`
                              lines (``accepted``, ``row``..., ``done``)
  GET    ``/v1/jobs/<id>``    one request's :class:`~repro.api.jobs.JobStatus`
  GET    ``/v1/health``       uptime, pool, queue, and cache counters
  POST   ``/v1/shutdown``     drain and exit
  ====== ==================== =======================================

A disconnected client cancels nothing: rows still land in the daemon's
store, so reconnecting with ``repro campaign --server URL --resume``
converges exactly like a batch resume.

Failure model: worker crashes and hangs are the supervisor's problem
(retry with backoff, then a ``poisoned`` row -- see
``docs/robustness.md``); a daemon crash loses only in-flight jobs, and
the store's append-only torn-tail tolerance means a restarted daemon
replays every completed row from disk.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api.config import FlowConfig
from repro.api.jobs import (
    JobRequest,
    JobStatus,
    ProgressEvent,
    new_request_id,
)
from repro.flow.campaign import group_jobs
from repro.flow.store import ResultStore
from repro.flow.supervise import Supervisor

DEFAULT_CACHE_MB = 256
"""Default per-worker prepared-circuit cache cap, in MiB."""


class BadRequest(ValueError):
    """A submission the daemon refuses (HTTP 400 with the message)."""


@dataclass(frozen=True)
class DaemonSettings:
    """Everything one daemon run is configured by.

    ``timeout_s`` is the pool's fixed per-job budget.  Submitted
    configs carry their own knobs, but the daemon only accepts configs
    whose fields outside the job id sit at their defaults, so every
    row the store keeps for a job id is the same run.  ``port=0`` binds
    an ephemeral port (the bound one is on :attr:`Daemon.port`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_workers: int = 2
    cache_bytes: int | None = DEFAULT_CACHE_MB * (1 << 20)
    store_path: str = "serve_results.jsonl"
    timeout_s: float | None = None
    plugins: tuple[str, ...] = ()


@dataclass
class _RequestState:
    """One admitted submission: its status and its event stream."""

    request_id: str
    status: JobStatus
    remaining: set[str] = field(default_factory=set)
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    started: float = field(default_factory=time.monotonic)


class Daemon:
    """See the module docstring; construct, then ``await serve()``.

    Threading model: the asyncio loop owns all request state; the
    supervisor's blocking ``run()`` generator lives on one engine
    thread and hands every row back via ``call_soon_threadsafe``, so
    no request state needs locking.
    """

    def __init__(self, settings: DaemonSettings | None = None):
        self.settings = settings or DaemonSettings()
        self.store = ResultStore(self.settings.store_path)
        self.port: int | None = None
        self.supervisor: Supervisor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._engine: threading.Thread | None = None
        self._engine_error: BaseException | None = None
        self._closing: asyncio.Event | None = None
        self._ready = threading.Event()
        self._started_at = time.monotonic()
        self._requests: dict[str, _RequestState] = {}
        self._subscribers: dict[str, list[_RequestState]] = {}
        self._inflight: set[str] = set()
        self._results: dict[str, dict[str, Any]] = {}
        self._rows_served = 0
        self._rows_replayed = 0
        self.log = lambda _msg: None

    @property
    def url(self) -> str:
        return f"http://{self.settings.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------

    async def serve(self) -> None:
        """Start, run until :meth:`request_shutdown`, then drain."""
        await self.start()
        try:
            await self._closing.wait()
        finally:
            await self.stop()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._closing = asyncio.Event()
        self.store.open_append()
        self._load_results()
        settings = self.settings
        self.supervisor = Supervisor(
            groups=[],
            n_workers=settings.n_workers,
            timeout_s=settings.timeout_s,
            plugins=settings.plugins,
            say=self.log,
            keep_alive=True,
            cache_bytes=settings.cache_bytes,
        )
        self._engine = threading.Thread(
            target=self._engine_main, name="repro-serve-engine", daemon=True
        )
        self._engine.start()
        # Listen only once the pool is forked: a worker forked after an
        # accept() inherits that connection and holds it open past the
        # daemon's close, so its client would never see the stream end.
        await asyncio.to_thread(self.supervisor.spawned.wait)
        self._server = await asyncio.start_server(
            self._handle_conn, settings.host, settings.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        self.log(f"serving on {self.url} (store: {self.store.path})")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._engine is not None:
            await asyncio.to_thread(self._engine.join, 60.0)
            self._engine = None
        self.store.close()
        self.log("daemon stopped")

    def request_shutdown(self) -> None:
        """Ask :meth:`serve` to drain and exit (any-thread safe)."""
        if self._loop is None or self._closing is None:
            return
        self._loop.call_soon_threadsafe(self._closing.set)

    def _load_results(self) -> None:
        """Warm the result cache: freshest ok row per job id on disk."""
        for row in self.store.iter_rows():
            job_id = row.get("job_id")
            if job_id is None:
                continue
            if row.get("status") == "ok":
                self._results[job_id] = row
            else:
                # A fresher failed row supersedes a stale ok row,
                # matching the store's last-row-wins aggregation.
                self._results.pop(job_id, None)

    # -- engine thread ------------------------------------------------

    def _engine_main(self) -> None:
        try:
            for row in self.supervisor.run():
                self._loop.call_soon_threadsafe(self._on_row, row)
        except BaseException as exc:  # surface, don't swallow
            self._engine_error = exc
            self._loop.call_soon_threadsafe(self._on_engine_death, exc)

    def _on_row(self, row: dict[str, Any]) -> None:
        """One finished row (loop thread): store it, fan it out."""
        job_id = row.get("job_id")
        self.store.append(row)
        self._rows_served += 1
        if row.get("status") == "ok":
            self._results[job_id] = row
        else:
            self._results.pop(job_id, None)
        self._inflight.discard(job_id)
        for state in self._subscribers.pop(job_id, []):
            self._deliver(state, row, replayed=False)

    def _on_engine_death(self, exc: BaseException) -> None:
        message = f"engine died: {type(exc).__name__}: {exc}"
        self.log(message)
        for state in self._requests.values():
            if state.remaining:
                state.queue.put_nowait(
                    ProgressEvent(
                        "error",
                        request_id=state.request_id,
                        message=message,
                    )
                )
        self._closing.set()

    def _deliver(
        self, state: _RequestState, row: dict[str, Any], replayed: bool
    ) -> None:
        job_id = row.get("job_id")
        if job_id not in state.remaining:
            return
        state.remaining.discard(job_id)
        status = state.status
        row_status = row.get("status")
        if row_status == "ok":
            status.ok += 1
        elif row_status == "poisoned":
            status.poisoned += 1
        else:
            status.failed += 1
        if replayed:
            status.replayed += 1
            self._rows_replayed += 1
        status.elapsed_s = time.monotonic() - state.started
        if not state.remaining:
            status.state = "done"
        state.queue.put_nowait(
            ProgressEvent(
                "row",
                request_id=state.request_id,
                row=row,
                replayed=replayed,
            )
        )

    # -- admission ----------------------------------------------------

    def _admit(self, request: JobRequest) -> _RequestState:
        """Validate a submission, wire up its subscriptions, and hand
        runnable groups to the supervisor.  Loop thread only."""
        jobs = request.configs
        seen: set[str] = set()
        for job in jobs:
            self._validate(job)
            if job.job_id in seen:
                raise BadRequest(
                    f"duplicate job in request: {job.job_id}"
                )
            seen.add(job.job_id)
        request_id = request.request_id or new_request_id()
        if request_id in self._requests:
            raise BadRequest(f"request id already in use: {request_id}")
        state = _RequestState(
            request_id=request_id,
            status=JobStatus(
                request_id=request_id, state="running", total=len(jobs)
            ),
            remaining={job.job_id for job in jobs},
        )
        self._requests[request_id] = state
        to_run: list[FlowConfig] = []
        for job in jobs:
            row = (
                None if request.fresh else self._results.get(job.job_id)
            )
            if row is not None:
                self._deliver(state, row, replayed=True)
            elif job.job_id in self._inflight:
                self._subscribers.setdefault(job.job_id, []).append(state)
            else:
                self._subscribers.setdefault(job.job_id, []).append(state)
                self._inflight.add(job.job_id)
                to_run.append(job)
        for _key, group in group_jobs(to_run):
            self.supervisor.submit(group)
        return state

    def _validate(self, config: FlowConfig) -> None:
        """Accept only configs at the defaults outside the job id, so
        a job id names exactly one run (and one cached result)."""
        expected = FlowConfig(
            circuit=config.circuit,
            method=config.method,
            vdd_low=config.vdd_low,
            slack_factor=config.slack_factor,
            rails=config.rails,
            cost_model=config.cost_model,
        )
        if config != expected:
            raise BadRequest(
                f"config for {config.job_id} does not match this daemon's "
                f"execution settings (every field outside the job id at "
                f"its default); submitted: {config.to_dict()}"
            )

    # -- HTTP front end ----------------------------------------------

    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
            await self._route(method, path, body, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        except Exception as exc:
            try:
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ConnectionError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, body

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "POST" and path == "/v1/jobs":
            await self._handle_submit(body, writer)
        elif method == "GET" and path.startswith("/v1/jobs/"):
            await self._handle_status(path[len("/v1/jobs/"):], writer)
        elif method == "GET" and path == "/v1/health":
            await self._send_json(writer, 200, self.health())
        elif method == "POST" and path == "/v1/shutdown":
            await self._send_json(writer, 200, {"ok": True})
            self._closing.set()
        else:
            await self._send_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = JobRequest.from_wire(json.loads(body))
            state = self._admit(request)
        except (ValueError, TypeError, KeyError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        self.log(
            f"accepted {state.request_id}: {state.status.total} job(s), "
            f"{state.status.replayed} replayed"
        )
        await self._start_stream(writer)
        await self._send_event(
            writer,
            ProgressEvent(
                "accepted",
                request_id=state.request_id,
                status=state.status,
            ),
        )
        sent = 0
        try:
            while sent < state.status.total:
                event = await state.queue.get()
                await self._send_event(writer, event)
                if event.event == "error":
                    return
                sent += 1
            await self._send_event(
                writer,
                ProgressEvent(
                    "done",
                    request_id=state.request_id,
                    status=state.status,
                ),
            )
        except ConnectionError:
            # The client went away; the jobs keep running and their
            # rows keep landing in the store (resume picks them up).
            self.log(f"client disconnected from {state.request_id}")

    async def _handle_status(
        self, request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        state = self._requests.get(request_id)
        if state is None:
            await self._send_json(
                writer, 404, {"error": f"unknown request id {request_id}"}
            )
            return
        if state.status.state != "done":
            state.status.elapsed_s = time.monotonic() - state.started
        await self._send_json(writer, 200, state.status.to_wire())

    def health(self) -> dict[str, Any]:
        """The ``/v1/health`` body (also handy in-process)."""
        supervisor = self.supervisor
        cache: dict[str, Any] = {}
        queued = 0
        if supervisor is not None:
            cache = supervisor.cache_stats().as_dict()
            with supervisor._lock:
                queued = len(supervisor.pending)
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_at,
            "workers": self.settings.n_workers,
            "timeout_s": self.settings.timeout_s,
            "queued_groups": queued,
            "inflight_jobs": len(self._inflight),
            "requests": len(self._requests),
            "rows_served": self._rows_served,
            "rows_replayed": self._rows_replayed,
            "results_cached": len(self._results),
            "respawns": supervisor.respawns if supervisor else 0,
            "worker_cache": cache,
        }

    # -- response plumbing -------------------------------------------

    async def _send_json(
        self, writer: asyncio.StreamWriter, code: int, payload: dict
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            code, "Error"
        )
        writer.write(
            (
                f"HTTP/1.1 {code} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    async def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: ProgressEvent
    ) -> None:
        writer.write(json.dumps(event.to_wire()).encode("utf-8") + b"\n")
        await writer.drain()


class BackgroundDaemon:
    """A daemon on a background thread -- the test/benchmark harness.

    Context-manager use::

        with BackgroundDaemon(DaemonSettings(store_path=...)) as bg:
            run_remote_campaign(bg.url, jobs, store)

    The thread runs its own event loop; ``__exit__`` drains and joins.
    """

    def __init__(self, settings: DaemonSettings | None = None):
        self.daemon = Daemon(settings)
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    @property
    def url(self) -> str:
        return self.daemon.url

    def start(self) -> BackgroundDaemon:
        def main() -> None:
            try:
                asyncio.run(self.daemon.serve())
            except BaseException as exc:
                self._failure = exc
                self.daemon._ready.set()

        self._thread = threading.Thread(
            target=main, name="repro-serve-daemon", daemon=True
        )
        self._thread.start()
        if not self.daemon._ready.wait(timeout=60.0):
            raise RuntimeError("daemon did not come up within 60s")
        if self._failure is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._failure}"
            ) from self._failure
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self.daemon.request_shutdown()
        self._thread.join(timeout=120.0)
        if self._thread.is_alive():
            raise RuntimeError("daemon did not shut down within 120s")
        self._thread = None
        if self._failure is not None:
            raise RuntimeError(
                f"daemon died: {self._failure}"
            ) from self._failure

    def __enter__(self) -> BackgroundDaemon:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = [
    "DEFAULT_CACHE_MB",
    "BackgroundDaemon",
    "BadRequest",
    "Daemon",
    "DaemonSettings",
]
