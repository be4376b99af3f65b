"""Crash-safe lifecycle for the service and its jobs.

The analysis pipeline learned to degrade-not-die in PR 3; this package
gives the *process around it* the same property:

* :mod:`~repro.resilience.spool` — job input spools, so a restart
  re-runs interrupted work instead of failing it;
* :mod:`~repro.resilience.drain` — graceful shutdown: refuse new work,
  finish in-flight jobs, persist the queue;
* :mod:`~repro.resilience.watchdog` — soft per-job deadlines that reap
  hung analyses and reclaim their pool slots;
* :mod:`~repro.resilience.breaker` — a per-config-hash circuit breaker
  that quarantines a failing configuration behind 503 + Retry-After.

Ops-level fault injection for all of the above lives in
:mod:`repro.faults.ops` (``slj chaos --ops``).
"""

from .breaker import CircuitBreaker
from .drain import ServiceLifecycle
from .spool import (
    clear_spool,
    has_spool,
    load_input_frames,
    load_input_meta,
    load_stream_spool,
    spool_input,
    spool_stream_chunk,
    spool_stream_eof,
    stream_chunk_count,
)
from .watchdog import Watchdog

__all__ = [
    "CircuitBreaker",
    "ServiceLifecycle",
    "Watchdog",
    "clear_spool",
    "has_spool",
    "load_input_frames",
    "load_input_meta",
    "load_stream_spool",
    "spool_input",
    "spool_stream_chunk",
    "spool_stream_eof",
    "stream_chunk_count",
]
