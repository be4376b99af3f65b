"""The bounded worker pool every service analysis runs on.

The service runs each analysis — synchronous, batch item or
asynchronous job — as a job of :mod:`repro.jobs` on one fixed set of
workers instead of a thread per request, so one knob
(``ServiceConfig.max_concurrent``) bounds the host's total analysis
parallelism no matter which API surface the work arrived through.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from ..errors import ConfigurationError


class WorkerPool:
    """A counted, bounded thread pool.

    Thin wrapper over :class:`~concurrent.futures.ThreadPoolExecutor`
    that tracks submitted / completed / active counts for ``/metrics``.
    Futures behave exactly like executor futures (cancellation of
    queued work included); cancelled futures count as completed.
    """

    def __init__(
        self, max_workers: int, thread_name_prefix: str = "worker"
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"worker pool needs max_workers >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=thread_name_prefix
        )
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._cancelled = 0
        self._reclaimed = 0
        self._reclaimed_total = 0

    @property
    def max_workers(self) -> int:
        """The configured worker count (reclaims excluded)."""
        return self._max_workers

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Schedule ``fn(*args, **kwargs)``; returns its future."""
        with self._lock:
            self._submitted += 1
        future = self._executor.submit(fn, *args, **kwargs)
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future: Future) -> None:
        with self._lock:
            self._completed += 1
            if future.cancelled():
                self._cancelled += 1

    def reclaim_slot(self) -> None:
        """Grow the pool by one: a worker is wedged, route around it.

        The watchdog calls this after reaping a hung job — its thread
        still occupies an executor slot, so the executor's worker
        budget is raised by one to keep throughput at ``max_workers``.
        :meth:`release_reclaimed` undoes it when the zombie exits.
        """
        with self._lock:
            self._reclaimed += 1
            self._reclaimed_total += 1
            self._executor._max_workers += 1

    def release_reclaimed(self) -> None:
        """Shrink back after a reclaimed (zombie) worker finally exits."""
        with self._lock:
            if self._reclaimed <= 0:
                return
            self._reclaimed -= 1
            self._executor._max_workers -= 1

    def stats(self) -> dict[str, int]:
        """Counters for ``/metrics``: workers, submitted, completed, active."""
        with self._lock:
            return {
                "workers": self._max_workers,
                "submitted": self._submitted,
                "completed": self._completed,
                "cancelled": self._cancelled,
                "active": self._submitted - self._completed,
                "reclaimed": self._reclaimed,
                "reclaimed_total": self._reclaimed_total,
            }

    def shutdown(self, wait: bool = False, cancel_futures: bool = True) -> int:
        """Stop accepting work; optionally cancel queued futures.

        Returns how many queued futures were cancelled by this call —
        accepted work that never ran, which the service records as
        ``tasks_cancelled_at_shutdown``.
        """
        with self._lock:
            before = self._cancelled
        self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
        with self._lock:
            return self._cancelled - before
