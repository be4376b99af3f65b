"""A minimal jump-analysis web service (stdlib only).

The paper's future work: "we would also like to build a web-based
system on the Internet.  The user will be able to upload a video
sequence of a standing long jump ... the system will be able to
respond with advices to the user."  This module implements that
service over the library.

The HTTP surface is versioned: every endpoint lives under ``/v1/``,
and any other path answers 404 ``not_found``.  The full route table
(:data:`ROUTES`) is part of the public API and snapshot-tested.

* ``POST /v1/analyze`` — body is a JSON object
  ``{"video_npz_b64": <base64 of a compressed .npz with a 'frames'
  array>, "annotation": <optional annotation dict>, "seed": <int>}``;
  the response is the serialised analysis (report, advice, poses,
  events, measurement).
* ``POST /v1/analyze/batch`` — body is ``{"videos": [<analyze items>],
  "config"/"preset"/"seed": ...}``; all items share one resolved
  analyzer, one admission and one deadline, and fan out across the
  shared worker pool.
* ``POST /v1/jobs`` — the same body as ``/v1/analyze``, but the
  response is **202 Accepted** with a job id *before* the analysis
  runs.  The job executes on the shared worker pool; its per-stage
  progress is visible while it runs and it can be cancelled
  cooperatively between pipeline stages (:mod:`repro.jobs`).
* ``POST /v1/jobs`` with ``{"mode": "stream"}`` — open a **streaming**
  job that takes no video up front.  Frames are appended while it runs
  with ``POST /v1/jobs/{id}/frames`` (``{"frames_npz_b64": <base64 of
  a compressed .npz chunk with a 'frames' array>}``) and the stream is
  closed with ``POST /v1/jobs/{id}/eof``; ``GET /v1/jobs/{id}``
  meanwhile carries a ``stream`` block with the received-frame count
  and the latest provisional state (current pose box, provisional
  takeoff/landing estimate).  The per-job frame queue is bounded:
  chunks that would overflow it answer **429** + ``Retry-After``, and
  a stream that goes idle without ``eof`` fails after the configured
  timeout instead of pinning a worker.  See ``docs/streaming.md``.
* ``GET /v1/jobs`` / ``GET /v1/jobs/{id}`` /
  ``GET /v1/jobs/{id}/result`` / ``DELETE /v1/jobs/{id}`` — bounded
  listing, status+progress polling, result retrieval (structured 410
  after the result TTL), and cancellation.
* ``GET /v1/health`` — liveness probe, with the in-flight job count
  and the last analysis error (if any).
* ``GET /v1/standards`` — the Table 1 standards and Table 2 rules.
* ``GET /v1/config`` — the server's fully-resolved default
  configuration, its stable hash, and the known preset names.
* ``GET /v1/version`` — package version, API version, config hash.
* ``GET /v1/metrics`` — cumulative per-stage timings, pipeline
  counters, request counts, analyzer-cache stats, worker-pool
  utilisation, and job-store counters.

Every non-2xx response carries one envelope::

    {"error": {"type": <machine-readable>, "message": <human-readable>,
               "detail": <structured context or null>}}

Malformed requests map to 400, analysable-but-failing videos to 422,
unexpected faults to 500.  Every analysis is a job on the one
:class:`~repro.jobs.JobManager`, which owns admission, the circuit
breaker, the watchdog, cancellation and metrics.  ``/v1/analyze`` and
``/v1/analyze/batch`` submit *attached* jobs (the client waits on its
connection) and ``/v1/jobs`` *detached* ones.  The service is hardened
against abuse and overload (:class:`ServiceConfig`): bodies over
``max_body_bytes`` are refused with 413 before the payload is read;
an attached request finding all ``max_concurrent`` pool workers taken
is refused with 503 ``overloaded`` + ``Retry-After``; one that exceeds
``deadline_seconds`` is answered with 504 and its unfinished jobs are
cancelled at their next stage boundary.  Per-request analyzers are
served from an LRU cache keyed by config hash + execution backend
(``analyzer_cache_size``).  Analyses that completed through the
degradation machinery still return 200, with a top-level
``"degraded": true`` and a ``"degradation"`` block.

Start a server with :func:`serve` (blocking) or
:class:`ServiceHandle` (background thread, used by the tests and the
example).  The client side lives in :class:`repro.client.ServiceClient`.
"""

from __future__ import annotations

import base64
import io
import json
import os
import signal
import socket
import threading
import time
from concurrent.futures import CancelledError as FutureCancelled
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .config import (
    config_hash,
    config_to_dict,
    deep_merge,
    get_preset,
    preset_names,
)
from .errors import CircuitOpen, ConfigurationError, ReproError, StreamError
from .jobs import (
    FrameQueueFull,
    JobManager,
    JobQueueFull,
    JobsConfig,
    JobState,
    JobStore,
)
from .perf.cache import AnalyzerCache
from .perf.pool import WorkerPool
from .pipeline import AnalyzerConfig, JumpAnalyzer
from .resilience import ServiceLifecycle
from .runtime import MetricsRegistry
from .profiles import profile_names
from .serialization import (
    annotation_from_dict,
    profiles_payload,
    standards_payload,
)
from .video.sequence import VideoSequence

#: The one API version this server speaks.
API_VERSION = "v1"

#: The complete HTTP surface; any path outside ``/v1/`` is 404.
#: Snapshot-tested in ``tests/test_api_surface.py``.
ROUTES: tuple[tuple[str, str], ...] = (
    ("GET", "/v1/config"),
    ("GET", "/v1/health"),
    ("GET", "/v1/jobs"),
    ("GET", "/v1/jobs/{id}"),
    ("GET", "/v1/jobs/{id}/result"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/profiles"),
    ("GET", "/v1/standards"),
    ("GET", "/v1/version"),
    ("POST", "/v1/analyze"),
    ("POST", "/v1/analyze/batch"),
    ("POST", "/v1/jobs"),
    ("POST", "/v1/jobs/{id}/eof"),
    ("POST", "/v1/jobs/{id}/frames"),
    ("DELETE", "/v1/jobs/{id}"),
)


def route_table() -> list[str]:
    """The route surface as sorted ``"METHOD /path"`` strings."""
    return sorted(f"{method} {path}" for method, path in ROUTES)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Abuse/overload limits of the analysis service."""

    # Refuse request bodies larger than this (HTTP 413) before reading.
    max_body_bytes: int = 64 * 1024 * 1024
    # Answer 504 (and cancel the unfinished jobs) when a synchronous
    # request takes longer than this.
    deadline_seconds: float = 300.0
    # Width of the worker pool every analysis runs on; a synchronous
    # request finding no free worker is refused (HTTP 503).
    max_concurrent: int = 4
    # Advisory Retry-After header on 503 responses.
    retry_after_seconds: int = 5
    # LRU capacity of the per-request analyzer cache (distinct resolved
    # configs kept warm).
    analyzer_cache_size: int = 8
    # Upper bound on videos in one ``POST /v1/analyze/batch`` request.
    max_batch_videos: int = 16
    # How long a graceful stop waits for in-flight work before
    # cancelling what is still queued (``stop(drain=True)`` / SIGTERM).
    drain_timeout_seconds: float = 30.0
    # The job subsystem every analysis runs on; ``jobs.enabled`` gates
    # only the ``/v1/jobs`` endpoints.
    jobs: JobsConfig = field(default_factory=JobsConfig)

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ConfigurationError("service max_body_bytes must be >= 1")
        if self.deadline_seconds <= 0:
            raise ConfigurationError("service deadline_seconds must be > 0")
        if self.max_concurrent < 1:
            raise ConfigurationError("service max_concurrent must be >= 1")
        if self.retry_after_seconds < 0:
            raise ConfigurationError(
                "service retry_after_seconds must be >= 0"
            )
        if self.analyzer_cache_size < 1:
            raise ConfigurationError("service analyzer_cache_size must be >= 1")
        if self.max_batch_videos < 1:
            raise ConfigurationError("service max_batch_videos must be >= 1")
        if self.drain_timeout_seconds < 0:
            raise ConfigurationError(
                "service drain_timeout_seconds must be >= 0"
            )


class _ServiceState:
    """The last analysis error, shared by all handlers for ``/health``."""

    __slots__ = ("_lock", "_last_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last_error: dict[str, Any] | None = None

    def record_error(self, error_type: str, message: str) -> None:
        with self._lock:
            self._last_error = {"type": error_type, "message": message}

    def last_error(self) -> dict[str, Any] | None:
        with self._lock:
            return dict(self._last_error) if self._last_error else None


def encode_video(video: VideoSequence) -> str:
    """Encode a video as base64 of a compressed ``.npz`` payload."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, frames=video.frames)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_video(payload_b64: str) -> VideoSequence:
    """Inverse of :func:`encode_video`."""
    try:
        raw = base64.b64decode(payload_b64.encode("ascii"), validate=True)
        with np.load(io.BytesIO(raw)) as archive:
            return VideoSequence(archive["frames"])
    except Exception as exc:  # malformed payloads map to a clean 400
        raise ReproError(f"could not decode video payload: {exc}") from exc


class _BadRequest(Exception):
    """A client error that maps to an HTTP status with a structured payload."""

    def __init__(
        self,
        error_type: str,
        message: str,
        status: int = 400,
        headers: dict[str, str] | None = None,
        detail: Any = None,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.status = status
        self.headers = headers
        self.detail = detail


#: How an attached job's recorded error type answers; every other type
#: (each ``ReproError``, ``CancelledError`` included) is 422.
_JOB_ERROR_STATUS = {
    "InternalError": (500, "internal_error"),
    "WatchdogTimeout": (504, "deadline_exceeded"),
}


def _job_outcome(job: dict[str, Any] | None) -> tuple[int, dict[str, Any]]:
    """HTTP status and body of an attached job's terminal payload.

    200 carries the analysis; any other status carries the error body
    (``type``, ``message``, ``detail``).
    """
    if job is not None and job["state"] == JobState.SUCCEEDED:
        return 200, job["result"]
    error = (job or {}).get("error") or {
        "type": "InternalError",
        "message": "the job's record was gone before its outcome was read",
    }
    status, error_type = _JOB_ERROR_STATUS.get(
        error["type"], (422, "analysis_failed")
    )
    return status, {
        "type": error_type,
        "message": error["message"],
        "detail": error.get("detail"),
    }


def _item_digest(item: dict[str, Any], resolved_hash: str) -> str:
    """The content digest that ends a submitted video's job id."""
    return JobStore.digest_of(item["b64"], str(item["seed"]), resolved_hash)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one analyzer instance via the server."""

    server_version = "slj/1.0"

    def _route(self) -> str:
        """The request path below ``/v1``; any other path is a 404.

        The query string is parsed into ``self._query``.
        """
        parts = urlsplit(self.path)
        self._query = parse_qs(parts.query)
        prefix = f"/{API_VERSION}"
        if parts.path == prefix or parts.path.startswith(prefix + "/"):
            return parts.path[len(prefix):] or "/"
        raise _BadRequest("not_found", f"unknown path {self.path!r}", status=404)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: dict[str, str] | None = None,
        detail: Any = None,
    ) -> None:
        """The one error envelope: ``{"error": {"type", "message", "detail"}}``."""
        self._send_json(
            status,
            {
                "error": {
                    "type": error_type,
                    "message": message,
                    "detail": detail,
                }
            },
            headers=headers,
        )

    def _send_bad_request(self, exc: _BadRequest) -> None:
        self._send_error_json(
            exc.status,
            exc.error_type,
            str(exc),
            headers=exc.headers,
            detail=exc.detail,
        )
        self._finish(exc.status)

    def _finish(self, status: int) -> None:
        self.server.metrics.count_request(  # type: ignore[attr-defined]
            self.path, status
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output clean

    # ------------------------------------------------------------------
    # GET
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            path = self._route()
            if path == "/health":
                self._handle_health()
            elif path == "/standards":
                self._send_json(200, standards_payload())
                self._finish(200)
            elif path == "/profiles":
                self._send_json(200, profiles_payload())
                self._finish(200)
            elif path == "/config":
                self._handle_config()
            elif path == "/version":
                self._handle_version()
            elif path == "/metrics":
                self._handle_metrics()
            elif path == "/jobs":
                self._handle_jobs_list()
            elif path.startswith("/jobs/"):
                rest = path[len("/jobs/"):]
                if rest.endswith("/result"):
                    self._handle_job_result(rest[: -len("/result")])
                elif "/" not in rest and rest:
                    self._handle_job_status(rest)
                else:
                    raise _BadRequest(
                        "not_found", f"unknown path {self.path!r}", status=404
                    )
            else:
                raise _BadRequest(
                    "not_found", f"unknown path {self.path!r}", status=404
                )
        except _BadRequest as exc:
            self._send_bad_request(exc)

    def _lifecycle(self) -> ServiceLifecycle:
        return self.server.lifecycle  # type: ignore[attr-defined]

    def _retry_later(
        self, error_type: str, message: str, status: int = 503
    ) -> _BadRequest:
        """A refusal carrying the configured ``Retry-After`` header."""
        seconds = self.server.service_config.retry_after_seconds  # type: ignore[attr-defined]
        return _BadRequest(
            error_type, message, status=status, headers={"Retry-After": str(seconds)}
        )

    def _spool_failed(self, exc: OSError) -> _BadRequest:
        """The 503 a submission gets when its inputs could not be spooled.

        The manager already finished the job ``failed``; the state
        directory may recover (space freed), so the client may retry.
        """
        return self._retry_later(
            "spool_failed", f"could not persist the job's inputs: {exc}"
        )

    def _draining(self) -> _BadRequest:
        """The 503 a submission gets while the service shuts down."""
        return self._retry_later(
            "draining",
            "the service is shutting down and no longer accepts new "
            "work; retry against another instance or after restart",
        )

    def _check_not_draining(self) -> None:
        """Refuse new work while the service drains (HTTP 503).

        Only *new* submissions are refused: polling, results, frame
        pushes and ``eof`` for already-admitted streams keep working so
        in-flight jobs can finish.
        """
        if self._lifecycle().draining:
            raise self._draining()

    def _in_flight(self) -> int:
        """Non-terminal jobs on this replica: what its pool is working on."""
        return self.server.jobs.store.pending_count(local=True)  # type: ignore[attr-defined]

    def _handle_health(self) -> None:
        service_config = self.server.service_config  # type: ignore[attr-defined]
        lifecycle = self._lifecycle()
        draining = lifecycle.draining
        self._send_json(
            200,
            {
                "status": "shutting_down" if draining else "ok",
                "shutting_down": draining,
                "pid": os.getpid(),
                "uptime_seconds": lifecycle.uptime_seconds(),
                "in_flight": self._in_flight(),
                "max_concurrent": service_config.max_concurrent,
                "last_error": self.server.state.last_error(),  # type: ignore[attr-defined]
            },
        )
        self._finish(200)

    def _handle_config(self) -> None:
        config = self.server.analyzer.config  # type: ignore[attr-defined]
        resolved = config_to_dict(config)
        self._send_json(
            200,
            {
                "config": resolved,
                "config_hash": config_hash(resolved),
                "presets": list(preset_names()),
            },
        )
        self._finish(200)

    def _handle_version(self) -> None:
        import repro

        config = self.server.analyzer.config  # type: ignore[attr-defined]
        self._send_json(
            200,
            {
                "package_version": repro.__version__,
                "api_version": API_VERSION,
                "config_hash": config_hash(config_to_dict(config)),
            },
        )
        self._finish(200)

    def _handle_metrics(self) -> None:
        snapshot = self.server.metrics.snapshot()  # type: ignore[attr-defined]
        snapshot["analyzer_cache"] = (
            self.server.analyzer_cache.stats()  # type: ignore[attr-defined]
        )
        pool_stats = self.server.pool.stats()  # type: ignore[attr-defined]
        pool_stats["in_flight"] = self._in_flight()
        snapshot["pool"] = pool_stats
        jobs: JobManager = self.server.jobs  # type: ignore[attr-defined]
        job_stats = jobs.stats()
        snapshot["jobs"] = job_stats
        lifecycle = self._lifecycle()
        snapshot["service"] = {
            # With `--procs N` each worker process answers with its own
            # pid, so a scraper sees which replica served the request.
            "pid": os.getpid(),
            "uptime_seconds": lifecycle.uptime_seconds(),
            "shutting_down": lifecycle.draining,
            "watchdog_timeouts": job_stats.get("watchdog_timeouts", 0),
            "breaker_trips": job_stats.get("breaker", {}).get("trips", 0),
            "resumed_jobs": job_stats.get("resumed", 0),
            "tasks_cancelled_at_shutdown": lifecycle.cancelled_at_shutdown,
        }
        self._send_json(200, snapshot)
        self._finish(200)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def _jobs_manager(self) -> JobManager:
        manager: JobManager = self.server.jobs  # type: ignore[attr-defined]
        if not manager.config.enabled:
            raise _BadRequest(
                "jobs_disabled",
                "the asynchronous job API is disabled on this server",
                status=503,
            )
        return manager

    def _job_not_found(self, manager: JobManager, job_id: str) -> _BadRequest:
        if manager.is_expired(job_id):
            return _BadRequest(
                "result_expired",
                f"job {job_id!r} finished but its result expired",
                status=410,
            )
        return _BadRequest(
            "job_not_found", f"unknown job {job_id!r}", status=404
        )

    def _handle_jobs_list(self) -> None:
        manager = self._jobs_manager()
        try:
            limit = int(self._query.get("limit", ["50"])[0])
        except (TypeError, ValueError) as exc:
            raise _BadRequest("bad_limit", f"limit must be an integer: {exc}")
        if not 1 <= limit <= 500:
            raise _BadRequest(
                "bad_limit", f"limit must be in [1, 500], got {limit}"
            )
        state = self._query.get("state", [None])[0]
        try:
            jobs = manager.list_payload(limit=limit, state=state)
        except ConfigurationError as exc:
            raise _BadRequest("bad_state", str(exc))
        self._send_json(200, {"jobs": jobs, "count": len(jobs)})
        self._finish(200)

    def _handle_job_status(self, job_id: str) -> None:
        manager = self._jobs_manager()
        payload = manager.payload(job_id)
        if payload is None:
            raise self._job_not_found(manager, job_id)
        self._send_json(200, {"job": payload})
        self._finish(200)

    def _handle_job_result(self, job_id: str) -> None:
        manager = self._jobs_manager()
        payload = manager.payload(job_id, include_result=True)
        if payload is None:
            raise self._job_not_found(manager, job_id)
        analysis = payload.pop("result", None)
        state = payload["state"]
        if state == "succeeded":
            self._send_json(200, {"job": payload, "analysis": analysis})
            self._finish(200)
            return
        if state in ("failed", "cancelled"):
            raise _BadRequest(
                f"job_{state}",
                f"job {job_id!r} {state}; it has no result",
                status=409,
                detail=payload.get("error"),
            )
        raise _BadRequest(
            "job_not_finished",
            f"job {job_id!r} is still {state}; poll GET "
            f"/{API_VERSION}/jobs/{job_id} until it is terminal",
            status=409,
            detail={"state": state, "progress": payload.get("progress")},
        )

    def _circuit_open(self, exc: CircuitOpen) -> _BadRequest:
        """Map a tripped breaker to 503 + its own Retry-After."""
        metrics: MetricsRegistry = self.server.metrics  # type: ignore[attr-defined]
        metrics.increment("service.jobs.circuit_open")
        return _BadRequest(
            "circuit_open",
            str(exc),
            status=503,
            headers={"Retry-After": str(max(1, int(round(exc.retry_after))))},
        )

    def _handle_jobs_submit(self) -> None:
        manager = self._jobs_manager()
        self._check_not_draining()
        metrics: MetricsRegistry = self.server.metrics  # type: ignore[attr-defined]
        request = self._read_json_body()
        mode = request.get("mode", "batch")
        if mode == "stream":
            self._handle_stream_submit(manager, request)
            return
        if mode != "batch":
            raise _BadRequest(
                "bad_mode", f"'mode' must be 'batch' or 'stream', got {mode!r}"
            )
        parsed = self._parse_video_item(request)
        analyzer = self._resolve_analyzer(self._parse_config_block(request))
        resolved_hash = config_hash(config_to_dict(analyzer.config))
        try:
            payload = manager.submit_analysis(
                analyzer,
                parsed["video"],
                annotation=parsed["annotation"],
                seed=parsed["seed"],
                digest=_item_digest(parsed, resolved_hash),
                config_hash=resolved_hash,
                video_npz_b64=parsed["b64"],
            )
        except CircuitOpen as exc:
            raise self._circuit_open(exc)
        except JobQueueFull as exc:
            metrics.increment("service.jobs.rejected")
            raise self._retry_later("jobs_queue_full", str(exc))
        except OSError as exc:
            raise self._spool_failed(exc)
        metrics.increment("service.jobs.submitted")
        self._send_json(
            202,
            {"job": payload},
            headers={"Location": f"/{API_VERSION}/jobs/{payload['id']}"},
        )
        self._finish(202)

    def _handle_stream_submit(
        self, manager: JobManager, request: dict[str, Any]
    ) -> None:
        """``POST /v1/jobs`` with ``"mode": "stream"``: open a stream job."""
        metrics: MetricsRegistry = self.server.metrics  # type: ignore[attr-defined]
        try:
            annotation = (
                annotation_from_dict(request["annotation"])
                if request.get("annotation")
                else None
            )
        except (ReproError, TypeError) as exc:
            raise _BadRequest("bad_annotation_payload", str(exc))
        try:
            seed = int(request.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise _BadRequest("bad_seed", f"seed must be an integer: {exc}")
        analyzer = self._resolve_analyzer(self._parse_config_block(request))
        resolved_hash = config_hash(config_to_dict(analyzer.config))
        digest = JobStore.digest_of("stream", str(seed), resolved_hash)
        try:
            payload = manager.submit_stream(
                analyzer,
                annotation=annotation,
                seed=seed,
                digest=digest,
                config_hash=resolved_hash,
            )
        except CircuitOpen as exc:
            raise self._circuit_open(exc)
        except JobQueueFull as exc:
            metrics.increment("service.jobs.rejected")
            raise self._retry_later("jobs_queue_full", str(exc))
        except OSError as exc:
            raise self._spool_failed(exc)
        metrics.increment("service.jobs.submitted")
        metrics.increment("service.jobs.streams")
        self._send_json(
            202,
            {"job": payload},
            headers={"Location": f"/{API_VERSION}/jobs/{payload['id']}"},
        )
        self._finish(202)

    def _stream_job(self, manager: JobManager, job_id: str) -> dict[str, Any]:
        """A known stream job's payload, or the right :class:`_BadRequest`."""
        if not job_id or "/" in job_id:
            raise _BadRequest(
                "not_found", f"unknown path {self.path!r}", status=404
            )
        payload = manager.payload(job_id)
        if payload is None:
            raise self._job_not_found(manager, job_id)
        if payload.get("mode") != "stream":
            raise _BadRequest(
                "not_a_stream_job",
                f"job {job_id!r} is a batch job; it takes no frames",
                status=409,
            )
        if payload["state"] in ("succeeded", "failed", "cancelled"):
            raise _BadRequest(
                "job_finished",
                f"job {job_id!r} already {payload['state']}; its stream "
                "is closed",
                status=409,
                detail=payload.get("error"),
            )
        return payload

    def _handle_job_frames(self, job_id: str) -> None:
        """``POST /v1/jobs/{id}/frames``: append a chunk to a stream job."""
        manager = self._jobs_manager()
        metrics: MetricsRegistry = self.server.metrics  # type: ignore[attr-defined]
        self._stream_job(manager, job_id)
        request = self._read_json_body()
        if "frames_npz_b64" not in request:
            raise _BadRequest(
                "missing_field",
                "request is missing the 'frames_npz_b64' field",
            )
        try:
            chunk = decode_video(request["frames_npz_b64"])
        except (ReproError, TypeError) as exc:
            raise _BadRequest("bad_video_payload", str(exc))
        frames = [chunk.frames[index] for index in range(len(chunk))]
        try:
            result = manager.push_frames(job_id, frames)
        except FrameQueueFull as exc:
            metrics.increment("service.jobs.frames_rejected")
            raise self._retry_later("frame_queue_full", str(exc), status=429)
        except StreamError as exc:
            raise _BadRequest("stream_closed", str(exc), status=409)
        metrics.increment("service.jobs.frames", len(frames))
        self._send_json(
            202,
            {
                "job": manager.payload(job_id),
                "queued": result["queued"],
                "frames_received": result["frames_received"],
            },
        )
        self._finish(202)

    def _handle_job_eof(self, job_id: str) -> None:
        """``POST /v1/jobs/{id}/eof``: close a stream job's frame feed."""
        manager = self._jobs_manager()
        self._stream_job(manager, job_id)
        try:
            manager.eof(job_id)
        except StreamError as exc:
            raise _BadRequest("stream_closed", str(exc), status=409)
        self._send_json(202, {"job": manager.payload(job_id)})
        self._finish(202)

    def _handle_job_cancel(self, job_id: str) -> None:
        manager = self._jobs_manager()
        metrics: MetricsRegistry = self.server.metrics  # type: ignore[attr-defined]
        outcome = manager.cancel(job_id)
        if outcome is None:
            raise self._job_not_found(manager, job_id)
        payload = manager.payload(job_id)
        if outcome == "cancelling":
            # The worker owns the token; the cancel lands between stages.
            metrics.increment("service.jobs.cancelled")
            self._send_json(202, {"job": payload, "cancel": outcome})
            self._finish(202)
            return
        if outcome == "cancelled":
            metrics.increment("service.jobs.cancelled")
        # "cancelled" (was still queued) and "finished" (terminal
        # already — cancelling is an idempotent no-op) both answer 200.
        self._send_json(200, {"job": payload, "cancel": outcome})
        self._finish(200)

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _drain_body(self, length: int, cap: int = 256 * 1024 * 1024) -> None:
        """Read and discard up to ``min(length, cap)`` body bytes."""
        remaining = min(length, cap)
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    def _read_json_body(self) -> dict[str, Any]:
        """Read and decode the request body under the size cap."""
        self._body_read = True
        try:
            length = int(self.headers.get("Content-Length", "0") or 0)
        except ValueError:
            raise _BadRequest("bad_content_length", "invalid Content-Length header")
        limit = self.server.service_config.max_body_bytes  # type: ignore[attr-defined]
        if length > limit:
            # Refuse without buffering: the body is drained in fixed
            # chunks and discarded (never held in memory), so the
            # client can finish writing and read the 413 instead of
            # hitting a broken pipe.
            self._drain_body(length)
            # Draining is capped, so part of the body may still sit on
            # the socket: close the connection so request framing stays
            # correct even if keep-alive is ever enabled.
            raise _BadRequest(
                "body_too_large",
                f"request body is {length} bytes; the limit is {limit}",
                status=413,
                headers={"Connection": "close"},
            )
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(
                "malformed_json", f"request body is not valid JSON: {exc}"
            )
        if not isinstance(request, dict):
            raise _BadRequest(
                "malformed_json",
                f"request body must be a JSON object, got {type(request).__name__}",
            )
        return request

    def _resolve_analyzer(self, config: AnalyzerConfig | None) -> JumpAnalyzer:
        """The shared analyzer, or a cached per-config one.

        Built before any job is admitted: JumpAnalyzer performs
        validation beyond AnalyzerConfig.from_dict (e.g. robustness
        stage names), and a failure must be a structured 400 that
        creates no job.
        """
        if config is None:
            return self.server.analyzer  # type: ignore[attr-defined]
        try:
            return self.server.analyzer_cache.get(  # type: ignore[attr-defined]
                config
            )
        except ConfigurationError as exc:
            raise _BadRequest("bad_config", str(exc))

    def _parse_video_item(
        self, item: dict[str, Any], default_seed: int = 0
    ) -> dict[str, Any]:
        """Validate one video payload (shared by single, batch and jobs)."""
        if "video_npz_b64" not in item:
            raise _BadRequest(
                "missing_field", "request is missing the 'video_npz_b64' field"
            )
        try:
            video = decode_video(item["video_npz_b64"])
        except (ReproError, TypeError) as exc:
            raise _BadRequest("bad_video_payload", str(exc))
        try:
            annotation = (
                annotation_from_dict(item["annotation"])
                if item.get("annotation")
                else None
            )
        except (ReproError, TypeError) as exc:
            raise _BadRequest("bad_annotation_payload", str(exc))
        try:
            seed = int(item.get("seed", default_seed))
        except (TypeError, ValueError) as exc:
            raise _BadRequest("bad_seed", f"seed must be an integer: {exc}")
        return {
            "video": video,
            "annotation": annotation,
            "seed": seed,
            "b64": item["video_npz_b64"],
        }

    def _parse_config_block(
        self, request: dict[str, Any]
    ) -> AnalyzerConfig | None:
        """Resolve the ``preset`` / ``config`` / ``profile`` request fields.

        Returns ``None`` when the request doesn't customise the
        configuration (the server's shared analyzer is used).
        ``profile`` is first-class shorthand for
        ``{"config": {"profile": ...}}``, validated against the
        movement-profile registry before any analysis starts so an
        unknown name is a structured 400, not a mid-analysis failure.
        """
        preset = request.get("preset")
        overlay = request.get("config")
        profile = request.get("profile")
        if profile is not None:
            if not isinstance(profile, str):
                raise _BadRequest(
                    "bad_config",
                    f"'profile' must be a string, got {profile!r}",
                )
            if profile not in profile_names():
                raise _BadRequest(
                    "unknown_profile",
                    f"unknown movement profile {profile!r}",
                    detail={"valid_profiles": list(profile_names())},
                )
        if preset is None and overlay is None and profile is None:
            return None
        if preset is not None and not isinstance(preset, str):
            raise _BadRequest(
                "bad_config", f"'preset' must be a string, got {preset!r}"
            )
        if overlay is not None and not isinstance(overlay, dict):
            raise _BadRequest(
                "bad_config",
                f"'config' must be an object, got {type(overlay).__name__}",
            )
        try:
            if preset is not None:
                base = get_preset(preset)
            else:
                base = self.server.analyzer.config  # type: ignore[attr-defined]
            resolved = config_to_dict(base)
            if overlay:
                resolved = deep_merge(resolved, overlay)
            if profile is not None:
                # The explicit field wins over a profile buried in the
                # config overlay.
                resolved = deep_merge(resolved, {"profile": profile})
            return AnalyzerConfig.from_dict(resolved)
        except ConfigurationError as exc:
            raise _BadRequest("bad_config", str(exc))

    # ------------------------------------------------------------------
    # POST / DELETE
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._body_read = False
        try:
            path = self._route()
            if path == "/analyze":
                self._handle_analyze()
            elif path == "/analyze/batch":
                self._handle_analyze_batch()
            elif path == "/jobs":
                self._handle_jobs_submit()
            elif path.startswith("/jobs/"):
                rest = path[len("/jobs/"):]
                if rest.endswith("/frames"):
                    self._handle_job_frames(rest[: -len("/frames")])
                elif rest.endswith("/eof"):
                    self._handle_job_eof(rest[: -len("/eof")])
                else:
                    raise _BadRequest(
                        "not_found", f"unknown path {self.path!r}", status=404
                    )
            else:
                raise _BadRequest(
                    "not_found", f"unknown path {self.path!r}", status=404
                )
        except _BadRequest as exc:
            if not self._body_read:
                # Refused before the body was read (unknown path,
                # draining, jobs disabled): drain it, capped as for a
                # 413, so a client still sending reads this answer
                # instead of a broken pipe.
                try:
                    self._drain_body(int(self.headers.get("Content-Length") or 0))
                except ValueError:
                    pass
            self._send_bad_request(exc)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        try:
            path = self._route()
            if path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                if not job_id or "/" in job_id:
                    raise _BadRequest(
                        "not_found", f"unknown path {self.path!r}", status=404
                    )
                self._handle_job_cancel(job_id)
            else:
                raise _BadRequest(
                    "not_found", f"unknown path {self.path!r}", status=404
                )
        except _BadRequest as exc:
            self._send_bad_request(exc)

    def _run_attached(
        self, analyzer: Any, items: list[dict[str, Any]], what: str
    ) -> list[dict[str, Any] | None]:
        """Run ``items`` as attached jobs and wait under one deadline.

        Returns each item's terminal job payload (result included), in
        order, and discards the records: the client reads the outcome
        on this connection, so nobody polls for it.  On the deadline
        every unfinished job is cancelled (it stops at its next stage
        boundary and its record stays until TTL) and the request is
        answered 504.
        """
        manager: JobManager = self.server.jobs  # type: ignore[attr-defined]
        service_config: ServiceConfig = self.server.service_config  # type: ignore[attr-defined]
        resolved_hash = config_hash(config_to_dict(analyzer.config))
        for item in items:
            item["digest"] = _item_digest(item, resolved_hash)
        try:
            submitted = manager.submit_attached(
                analyzer, items, config_hash=resolved_hash
            )
        except CircuitOpen as exc:
            raise self._circuit_open(exc)
        except JobQueueFull:
            raise self._retry_later(
                "overloaded",
                f"{service_config.max_concurrent} analyses already in "
                "flight; retry later",
            )
        deadline = time.monotonic() + service_config.deadline_seconds
        try:
            for _, future in submitted:
                future.result(timeout=max(0.0, deadline - time.monotonic()))
        except FutureTimeout:
            for job_id, future in submitted:
                if future.done():
                    manager.store.discard(job_id)
                else:
                    manager.cancel(job_id)
            message = (
                f"{what} exceeded the "
                f"{service_config.deadline_seconds:g}s deadline"
            )
            self.server.state.record_error("deadline_exceeded", message)  # type: ignore[attr-defined]
            raise _BadRequest("deadline_exceeded", message, status=504)
        except FutureCancelled:  # the pool shut down under a queued job
            raise self._draining()
        return [manager.store.discard(job_id) for job_id, _ in submitted]

    def _handle_analyze(self) -> None:
        self._check_not_draining()
        request = self._read_json_body()
        item = self._parse_video_item(request)
        analyzer = self._resolve_analyzer(self._parse_config_block(request))
        (job,) = self._run_attached(analyzer, [item], "analysis")
        status, body = _job_outcome(job)
        if status != 200:
            self.server.state.record_error(body["type"], body["message"])  # type: ignore[attr-defined]
            raise _BadRequest(
                body["type"], body["message"], status=status, detail=body["detail"]
            )
        self._send_json(200, body)
        self._finish(200)

    def _handle_analyze_batch(self) -> None:
        """``POST /v1/analyze/batch``: many videos, one admission.

        The request is ``{"videos": [{video_npz_b64, annotation?,
        seed?}, ...], "config"?: ..., "preset"?: ..., "seed"?: int}``.
        All items share one resolved analyzer, one admission and one
        deadline, and run as attached jobs across the worker pool.  The
        response is 200 with per-item ``{"ok": true, "analysis": ...}``
        / ``{"ok": false, "error": ...}`` entries in request order.
        """
        self._check_not_draining()
        service_config: ServiceConfig = self.server.service_config  # type: ignore[attr-defined]
        request = self._read_json_body()
        videos = request.get("videos")
        if not isinstance(videos, list) or not videos:
            raise _BadRequest("bad_batch", "'videos' must be a non-empty array")
        if len(videos) > service_config.max_batch_videos:
            raise _BadRequest(
                "batch_too_large",
                f"batch has {len(videos)} videos; the limit is "
                f"{service_config.max_batch_videos}",
            )
        try:
            base_seed = int(request.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise _BadRequest("bad_seed", f"seed must be an integer: {exc}")
        items = []
        for index, entry in enumerate(videos):
            if not isinstance(entry, dict):
                raise _BadRequest(
                    "bad_batch",
                    f"videos[{index}] must be an object, got "
                    f"{type(entry).__name__}",
                )
            try:
                items.append(
                    self._parse_video_item(entry, default_seed=base_seed + index)
                )
            except _BadRequest as exc:
                raise _BadRequest(
                    exc.error_type,
                    f"videos[{index}]: {exc}",
                    status=exc.status,
                    detail=exc.detail,
                )
        analyzer = self._resolve_analyzer(self._parse_config_block(request))
        results: list[dict[str, Any]] = []
        for index, job in enumerate(self._run_attached(analyzer, items, "batch")):
            status, body = _job_outcome(job)
            key = "analysis" if status == 200 else "error"
            results.append({"ok": status == 200, "index": index, key: body})
        failed = sum(1 for entry in results if not entry["ok"])
        if failed:
            self.server.state.record_error(  # type: ignore[attr-defined]
                "analysis_failed", f"{failed}/{len(results)} batch items failed"
            )
        self._send_json(
            200, {"results": results, "count": len(results), "failed": failed}
        )
        self._finish(200)


class _SharedSocketHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer accepting on a socket bound elsewhere.

    The multi-process front (``slj serve --procs N``) binds one
    listener in the parent and forks; every child adopts the same
    socket through this class, so the kernel load-balances ``accept``
    across processes with no proxy in front.  The adopted socket is
    deliberately not closed-on-bind here: the parent owns its fd.
    """

    def __init__(self, listener: socket.socket, handler: type) -> None:
        super().__init__(
            listener.getsockname()[:2], handler, bind_and_activate=False
        )
        self.socket.close()  # discard the unbound socket super() made
        # Every worker's poll wakes on a new connection; the losers of
        # the accept race must get BlockingIOError (socketserver's "no
        # request") rather than block in accept(), where shutdown()
        # would wait on them until the next connection arrives.
        listener.setblocking(False)
        self.socket = listener
        # What server_bind() would have derived, minus the getfqdn()
        # DNS round-trip (the listener is already bound and listening).
        self.server_name, self.server_port = listener.getsockname()[:2]


class ServiceHandle:
    """A jump-analysis server running on a background thread."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: AnalyzerConfig | None = None,
        service_config: ServiceConfig | None = None,
        listener: socket.socket | None = None,
    ) -> None:
        service_config = service_config or ServiceConfig()
        if listener is not None:
            self._server: ThreadingHTTPServer = _SharedSocketHTTPServer(
                listener, _Handler
            )
        else:
            self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.analyzer = JumpAnalyzer(config)  # type: ignore[attr-defined]
        self._server.metrics = MetricsRegistry()  # type: ignore[attr-defined]
        self._server.service_config = service_config  # type: ignore[attr-defined]
        self._server.state = _ServiceState()  # type: ignore[attr-defined]
        # Per-config analyzers are cached so repeated custom-config
        # requests skip re-validating and re-building the whole stack.
        self._server.analyzer_cache = AnalyzerCache(  # type: ignore[attr-defined]
            JumpAnalyzer, capacity=service_config.analyzer_cache_size
        )
        # Every analysis is a job on one bounded pool, never a thread
        # per request.
        self._server.pool = WorkerPool(  # type: ignore[attr-defined]
            service_config.max_concurrent, thread_name_prefix="slj-worker"
        )
        self._server.jobs = JobManager(  # type: ignore[attr-defined]
            service_config.jobs,
            self._server.pool,  # type: ignore[attr-defined]
            metrics=self._server.metrics,  # type: ignore[attr-defined]
        )
        self._server.lifecycle = ServiceLifecycle()  # type: ignore[attr-defined]
        # Re-submit jobs a previous process left behind (store restored
        # them as resumable from their persisted state + input spool).
        self._server.jobs.recover(  # type: ignore[attr-defined]
            self._recovery_analyzer
        )
        # With a shared store (jobs.store_dir) this replica also drains
        # the cross-replica submit queue in the background.
        self._server.jobs.start_drain(  # type: ignore[attr-defined]
            self._recovery_analyzer
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )

    def _recovery_analyzer(
        self, config_dict: dict[str, Any] | None
    ) -> JumpAnalyzer:
        """Analyzer for a recovered job, from its spooled config dict.

        An unreadable or stale config falls back to the server's shared
        analyzer, which re-runs the job from its spool as any other.
        """
        if config_dict is None:
            return self._server.analyzer  # type: ignore[attr-defined]
        try:
            return self._server.analyzer_cache.get(  # type: ignore[attr-defined]
                AnalyzerConfig.from_dict(config_dict)
            )
        except ConfigurationError:
            return self._server.analyzer  # type: ignore[attr-defined]

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's cumulative metrics registry."""
        return self._server.metrics  # type: ignore[attr-defined]

    @property
    def jobs(self) -> JobManager:
        """The server's job manager (store + workers)."""
        return self._server.jobs  # type: ignore[attr-defined]

    @property
    def address(self) -> str:
        """The server's base URL."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHandle":
        """Start serving in the background; returns self."""
        self._thread.start()
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Flip into draining mode and wait for in-flight work.

        New submissions answer 503 ``draining`` immediately; polling,
        frame pushes and ``eof`` keep working so admitted jobs can
        finish.  Returns True when the service went idle within the
        deadline (``service_config.drain_timeout_seconds`` by default).
        """
        lifecycle: ServiceLifecycle = self._server.lifecycle  # type: ignore[attr-defined]
        lifecycle.begin_drain()
        if timeout is None:
            timeout = self._server.service_config.drain_timeout_seconds  # type: ignore[attr-defined]
        jobs: JobManager = self._server.jobs  # type: ignore[attr-defined]
        return lifecycle.wait_drained(
            lambda: not jobs.store.running_jobs(), timeout
        )

    def stop(self, drain: bool = False, drain_timeout: float | None = None) -> None:
        """Shut the server down and join its thread.

        With ``drain=True`` the service first refuses new submissions
        and waits (up to the drain deadline) for in-flight jobs to
        finish.  Work still queued when the deadline passes is
        cancelled; with a persisted store and a spool directory
        (``jobs.checkpoint_dir``) those jobs stay ``submitted`` on disk
        and re-run from their spools on the next start.
        """
        if drain:
            self.drain(timeout=drain_timeout)
        self._server.shutdown()
        self._server.server_close()
        self._server.jobs.close()  # type: ignore[attr-defined]
        # Don't wait: a zombie analysis past its deadline must not
        # block shutdown.  Queued-but-unstarted work is cancelled.
        cancelled = self._server.pool.shutdown(  # type: ignore[attr-defined]
            wait=False, cancel_futures=True
        )
        lifecycle: ServiceLifecycle = self._server.lifecycle  # type: ignore[attr-defined]
        lifecycle.cancelled_at_shutdown += int(cancelled or 0)
        self._thread.join(timeout=5)

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    config: AnalyzerConfig | None = None,
    service_config: ServiceConfig | None = None,
    procs: int = 1,
) -> None:
    """Run the analysis service in the foreground.

    Ctrl-C (SIGINT) and SIGTERM both trigger a graceful drain: new
    submissions get 503 ``draining`` while in-flight jobs finish
    (bounded by ``service_config.drain_timeout_seconds``), then the
    process exits.  With a persisted job store and a spool directory
    (``jobs.checkpoint_dir``) configured, jobs still queued at the
    deadline re-run from their spools on the next start.

    ``procs > 1`` forks that many worker processes sharing one
    pre-bound listener socket (kernel-balanced ``accept``); each
    worker reports its own pid in ``/health`` and ``/metrics`` and
    runs the same drain path on SIGTERM.  Requires ``os.fork``.
    """
    if procs > 1:
        _serve_forked(host, port, config, service_config, procs)
        return
    handle = ServiceHandle(
        host=host, port=port, config=config, service_config=service_config
    )
    _serve_until_signalled(handle)


def _serve_until_signalled(handle: ServiceHandle) -> None:
    """Start ``handle``, then drain and stop on SIGTERM/Ctrl-C."""
    stop_requested = threading.Event()

    def _request_stop(signum: int, _frame: Any) -> None:
        stop_requested.set()

    previous = signal.signal(signal.SIGTERM, _request_stop)
    handle.start()
    print(
        f"standing-long-jump analysis service on {handle.address} "
        f"(pid {os.getpid()})"
    )
    try:
        while not stop_requested.wait(0.2):
            pass
        print("drain requested; waiting for in-flight work")
    except KeyboardInterrupt:
        print("interrupt; draining in-flight work")
    finally:
        handle.stop(drain=True)
        signal.signal(signal.SIGTERM, previous)


def _serve_forked(
    host: str,
    port: int,
    config: AnalyzerConfig | None,
    service_config: ServiceConfig | None,
    procs: int,
) -> None:
    """Fork ``procs`` workers accepting on one pre-bound listener.

    The parent binds, marks the fd inheritable, forks, then only
    forwards signals and reaps: SIGTERM/SIGINT fan out to every child,
    whose own handler runs the standard drain-then-stop path.  A child
    that exits is not restarted — crash-restart policy belongs to the
    supervisor running ``slj serve``, not to this process.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        raise ConfigurationError(
            f"--procs {procs} requires os.fork, unavailable on this platform"
        )
    listener = socket.create_server(
        (host, port), backlog=128, reuse_port=False
    )
    listener.set_inheritable(True)
    children: list[int] = []
    for _ in range(procs):
        pid = os.fork()
        if pid == 0:  # worker
            try:
                handle = ServiceHandle(
                    config=config,
                    service_config=service_config,
                    listener=listener,
                )
                _serve_until_signalled(handle)
            finally:
                # Skip atexit/GC teardown shared with the parent —
                # exit hard so only this worker's state is torn down.
                os._exit(0)
        children.append(pid)

    resolved_host, resolved_port = listener.getsockname()[:2]
    print(
        f"standing-long-jump analysis service on "
        f"http://{resolved_host}:{resolved_port} "
        f"({procs} workers: {' '.join(str(pid) for pid in children)})"
    )

    def _forward(signum: int, _frame: Any) -> None:
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous_term = signal.signal(signal.SIGTERM, _forward)
    previous_int = signal.signal(signal.SIGINT, _forward)
    try:
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # pragma: no cover - already reaped
                pass
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        listener.close()
