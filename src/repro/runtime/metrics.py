"""Cumulative, thread-safe metrics across many pipeline runs.

:class:`MetricsRegistry` is the service-side aggregation point: each
request runs the pipeline with its own per-run
:class:`~repro.runtime.instrumentation.Instrumentation`, then folds the
resulting :class:`~repro.runtime.trace.RunTrace` in here.  The
``GET /v1/metrics`` endpoint serves :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import threading
from typing import Any

from .trace import RunTrace


class MetricsRegistry:
    """Accumulate stage timings, counters and request counts."""

    __slots__ = ("_lock", "_stage_seconds", "_stage_calls", "_counters",
                 "_requests")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stage_seconds: dict[str, float] = {}
        self._stage_calls: dict[str, int] = {}
        self._counters: dict[str, float] = {}
        self._requests: dict[str, int] = {}

    def observe_trace(self, trace: RunTrace) -> None:
        """Fold one run's trace into the cumulative totals."""
        with self._lock:
            for timing in (trace.timings or trace.stages):
                self._stage_seconds[timing.name] = (
                    self._stage_seconds.get(timing.name, 0.0) + timing.seconds
                )
                self._stage_calls[timing.name] = (
                    self._stage_calls.get(timing.name, 0) + timing.calls
                )
            for name, value in trace.counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value

    def increment(self, name: str, value: float = 1.0) -> None:
        """Add to a free-form cumulative counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def count_request(self, endpoint: str, status: int) -> None:
        """Record one served request by endpoint and status code."""
        with self._lock:
            self._requests["total"] = self._requests.get("total", 0) + 1
            by_endpoint = f"endpoint:{endpoint}"
            self._requests[by_endpoint] = self._requests.get(by_endpoint, 0) + 1
            by_status = f"status:{status}"
            self._requests[by_status] = self._requests.get(by_status, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of everything accumulated so far."""
        with self._lock:
            return {
                "requests": dict(self._requests),
                "stages": {
                    name: {
                        "calls": self._stage_calls[name],
                        "total_seconds": seconds,
                        "mean_seconds": (
                            seconds / self._stage_calls[name]
                            if self._stage_calls[name]
                            else 0.0
                        ),
                    }
                    for name, seconds in self._stage_seconds.items()
                },
                "counters": dict(self._counters),
            }
