"""Asynchronous analysis jobs.

The paper's envisioned web system takes an upload and answers "with
advices" — but a real video analysis takes long enough that holding an
HTTP connection open for it is the wrong contract.  This package adds
the asynchronous one: ``POST /v1/jobs`` answers **202 + a job id**
immediately, the analysis runs on the service's shared bounded worker
pool, and the client polls ``GET /v1/jobs/{id}`` (per-stage progress
included) until the job is terminal, then fetches the result.  The
synchronous routes (``/v1/analyze``, ``/v1/analyze/batch``) run on the
same machinery as *attached* jobs, whose client waits on the open
connection instead of polling.

Layout
------
``models``
    :class:`Job` records, :class:`JobState` lifecycle constants, and
    the :class:`JobsConfig` knobs (wired into ``ServiceConfig``).
``store``
    :class:`JobStore` — lock-guarded LRU with result TTL and optional
    JSON-file persistence.
``backends``
    :class:`JobStoreBackend` storage protocol with the default
    :class:`SingleProcessBackend` (in-memory + JSON snapshot) and the
    :class:`SharedDirectoryBackend` N replicas drain together (atomic
    rename claims — zero double-claims).
``worker``
    :class:`JobWorkerPool` — runs jobs on a shared
    :class:`~repro.perf.pool.WorkerPool`, mirrors pipeline
    instrumentation into job progress, honours cooperative
    cancellation between stages.
``manager``
    :class:`JobManager` — the submit/read/cancel/list facade the HTTP
    layer talks to, plus :class:`JobQueueFull` backpressure.
``stream``
    :class:`FrameQueue` — the bounded hand-off between the streaming
    ingest endpoints (``POST /v1/jobs/{id}/frames`` / ``.../eof``) and
    the worker's :class:`~repro.streaming.StreamingAnalyzer`, with
    :class:`FrameQueueFull` (→ 429) and :class:`StreamIdleTimeout`
    (a producer that never sends ``eof`` fails the job instead of
    pinning a pool slot).
"""

from __future__ import annotations

from .backends import (
    JobStoreBackend,
    SharedDirectoryBackend,
    SingleProcessBackend,
)
from .manager import JobManager, JobQueueFull
from .models import Job, JobsConfig, JobState
from .store import JobStore
from .stream import FrameQueue, FrameQueueFull, StreamIdleTimeout
from .worker import JobProgressSink, JobWorkerPool

__all__ = [
    "FrameQueue",
    "FrameQueueFull",
    "Job",
    "JobManager",
    "JobProgressSink",
    "JobQueueFull",
    "JobState",
    "JobStore",
    "JobStoreBackend",
    "JobWorkerPool",
    "JobsConfig",
    "SharedDirectoryBackend",
    "SingleProcessBackend",
    "StreamIdleTimeout",
]
