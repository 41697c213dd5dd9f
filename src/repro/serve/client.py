"""Stdlib HTTP client for the serving daemon.

The daemon answers every request with ``Connection: close``, so the
client is plain :mod:`http.client`: one connection per call, NDJSON
streams read line by line until EOF.  :func:`run_remote_campaign` is
the piece ``repro campaign --server URL`` runs on: it submits the
grid, streams rows into the *local* store as they arrive, and returns
the same :class:`~repro.flow.campaign.CampaignSummary` (same progress
lines, same resume semantics) a local campaign would -- the store it
leaves behind is ``rows_equal`` to the batch path's.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.api.config import FlowConfig
from repro.api.jobs import JobRequest, JobStatus, ProgressEvent
from repro.flow.campaign import CampaignSummary
from repro.flow.store import ResultStore

DEFAULT_TIMEOUT_S = 600.0
"""Socket timeout: generous, because a streamed row only arrives when
its job finishes."""


class ServeError(RuntimeError):
    """The daemon answered with an error (status + body message)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"daemon error {status}: {message}")
        self.status = status
        self.message = message


def _split_url(url: str) -> tuple[str, int]:
    parsed = urllib.parse.urlparse(url)
    if parsed.scheme not in ("http", ""):
        raise ValueError(
            f"only http:// daemon URLs are supported, got {url!r}"
        )
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    return host, port


def _request(
    url: str,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
    host, port = _split_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    body = json.dumps(payload).encode("utf-8") if payload else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    if response.status != 200:
        message = response.read().decode("utf-8", "replace")
        try:
            message = json.loads(message).get("error", message)
        except (json.JSONDecodeError, AttributeError):
            pass
        conn.close()
        raise ServeError(response.status, message)
    return conn, response


def _request_json(
    url: str,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> dict[str, Any]:
    conn, response = _request(url, method, path, payload, timeout_s)
    try:
        return json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def submit_stream(
    url: str,
    request: JobRequest,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> Iterator[ProgressEvent]:
    """Submit a request; yield its NDJSON stream as parsed events.

    Every event goes through :meth:`ProgressEvent.from_wire`, so rows
    written by a newer daemon schema are rejected loudly.  An
    ``error`` event raises :class:`ServeError`.
    """
    conn, response = _request(
        url, "POST", "/v1/jobs", request.to_wire(), timeout_s
    )
    try:
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            event = ProgressEvent.from_wire(json.loads(line))
            if event.event == "error":
                raise ServeError(500, event.message)
            yield event
    finally:
        conn.close()


def get_status(
    url: str, request_id: str, timeout_s: float = DEFAULT_TIMEOUT_S
) -> JobStatus:
    return JobStatus.from_wire(
        _request_json(url, "GET", f"/v1/jobs/{request_id}",
                      timeout_s=timeout_s)
    )


def get_health(
    url: str, timeout_s: float = DEFAULT_TIMEOUT_S
) -> dict[str, Any]:
    return _request_json(url, "GET", "/v1/health", timeout_s=timeout_s)


def shutdown_daemon(
    url: str, timeout_s: float = DEFAULT_TIMEOUT_S
) -> dict[str, Any]:
    return _request_json(url, "POST", "/v1/shutdown", timeout_s=timeout_s)


def run_remote_campaign(
    url: str,
    jobs: Sequence[FlowConfig],
    store: ResultStore,
    resume: bool = False,
    retry_failed: bool = False,
    fresh: bool = False,
    progress: Callable[[str], None] | None = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> CampaignSummary:
    """Run ``jobs`` on a daemon, mirroring :func:`run_campaign`.

    The local ``store`` gets every streamed row appended verbatim (wire
    rows *are* store rows), ``resume`` skips locally completed job ids
    before submitting, and the returned summary counts match what a
    local run of the same grid would report.  ``fresh`` forces the
    daemon to recompute jobs it holds cached results for.

    The configs are submitted as they are.  The daemon accepts only
    configs at the defaults outside the job id and runs under *its*
    timeout, which is what keeps every store row for a job id
    bit-identical no matter which client asked for it.
    """
    say = progress or (lambda _msg: None)
    get_health(url, timeout_s=timeout_s)  # fail fast offline
    summary, pending = CampaignSummary.begin(
        jobs, store, resume, retry_failed, say
    )
    if not pending:
        return summary

    request = JobRequest(configs=tuple(pending), fresh=fresh)
    started = time.perf_counter()
    with store:
        for event in submit_stream(url, request, timeout_s=timeout_s):
            if event.event != "row":
                continue
            store.append(event.row)
            summary.tally(event.row, say, replayed=event.replayed)
    summary.elapsed_s = time.perf_counter() - started
    return summary


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "ServeError",
    "get_health",
    "get_status",
    "run_remote_campaign",
    "shutdown_daemon",
    "submit_stream",
]
