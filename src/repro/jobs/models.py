"""Job records, states and the :class:`JobsConfig` knobs.

A *job* is one asynchronous analysis request moving through the
lifecycle::

    submitted ──> running ──> succeeded
                     │  └───> failed
                     └──────> cancelled   (also reachable from submitted)

Terminal jobs carry either a ``result`` (the serialized analysis) or a
structured ``error``; every job carries per-stage ``progress`` sourced
from the pipeline's instrumentation events.  Records are plain mutable
dataclasses — all mutation happens under the owning
:class:`~repro.jobs.store.JobStore`'s lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError


class JobState:
    """String constants for the job lifecycle."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL: tuple[str, ...] = (SUBMITTED, RUNNING, SUCCEEDED, FAILED, CANCELLED)
    TERMINAL: tuple[str, ...] = (SUCCEEDED, FAILED, CANCELLED)


def _new_progress() -> dict[str, Any]:
    return {
        "total_stages": 0,
        "stages_completed": [],
        "current_stage": None,
        "fraction": 0.0,
    }


@dataclass(frozen=True, slots=True)
class JobsConfig:
    """Behaviour of the asynchronous job subsystem.

    Wired into :class:`~repro.service.ServiceConfig` (and therefore
    into ``config_to_dict`` / ``config_from_dict``), so a service's
    job policy is part of its declarative configuration.
    """

    # Serve the /v1/jobs endpoints at all (503 ``jobs_disabled`` when off).
    enabled: bool = True
    # LRU capacity of the job store (terminal jobs evicted oldest-first).
    max_jobs: int = 256
    # Seconds a finished job (and its result) stays retrievable; after
    # this the job answers a structured 410.
    result_ttl_seconds: float = 3600.0
    # Refuse new submissions beyond this many non-terminal jobs (503).
    max_queued: int = 64
    # Optional JSON file the store mirrors itself into; terminal jobs
    # (results included) survive a service restart.
    persist_path: str | None = None
    # Shared-directory job store (see repro.jobs.backends) N service
    # replicas drain together: submissions are enqueued there and any
    # replica claims them (atomic rename — zero double-claims).
    # Requires checkpoint_dir, since the claiming replica rebuilds the
    # job from its input spool.  Mutually exclusive with persist_path.
    store_dir: str | None = None
    # Cadence at which a replica polls the shared queue for claimable
    # work (store_dir mode only).
    store_drain_interval_seconds: float = 0.25
    # Bounded per-job frame queue for streaming jobs; chunks that would
    # overflow it answer 429 until the worker drains the backlog.
    stream_queue_frames: int = 64
    # A running stream job that sees no frame and no eof for this long
    # fails (freeing its pool slot) instead of waiting forever.
    stream_idle_timeout_seconds: float = 30.0
    # Directory for job input spools (see repro.resilience.spool),
    # one ``<job_id>/`` each; a restart re-runs a spooled job from it.
    # None (default) disables spooling: jobs interrupted by a restart
    # fail as ``Interrupted``.
    checkpoint_dir: str | None = None
    # With a checkpoint_dir, re-submit interrupted jobs automatically
    # when the service starts (JobManager.recover).
    resume_on_start: bool = True
    # Soft per-job deadline: a running job older than this is failed
    # by the watchdog (WatchdogTimeout) and its pool slot reclaimed.
    # 0 disables the watchdog — deadlines are workload-specific.
    job_deadline_seconds: float = 0.0
    # Cadence of the watchdog scan thread.
    watchdog_interval_seconds: float = 0.5
    # Circuit breaker: this many *consecutive* failures under one
    # config_hash trip it (503 circuit_open until a cooldown probe
    # passes).  0 disables the breaker.
    breaker_threshold: int = 0
    breaker_cooldown_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ConfigurationError("jobs.max_jobs must be >= 1")
        if self.result_ttl_seconds <= 0:
            raise ConfigurationError("jobs.result_ttl_seconds must be > 0")
        if self.max_queued < 1:
            raise ConfigurationError("jobs.max_queued must be >= 1")
        if self.stream_queue_frames < 1:
            raise ConfigurationError("jobs.stream_queue_frames must be >= 1")
        if self.stream_idle_timeout_seconds <= 0:
            raise ConfigurationError(
                "jobs.stream_idle_timeout_seconds must be > 0"
            )
        if self.job_deadline_seconds < 0:
            raise ConfigurationError("jobs.job_deadline_seconds must be >= 0")
        if self.watchdog_interval_seconds <= 0:
            raise ConfigurationError(
                "jobs.watchdog_interval_seconds must be > 0"
            )
        if self.breaker_threshold < 0:
            raise ConfigurationError("jobs.breaker_threshold must be >= 0")
        if self.breaker_cooldown_seconds <= 0:
            raise ConfigurationError(
                "jobs.breaker_cooldown_seconds must be > 0"
            )
        if self.store_dir is not None:
            if self.persist_path is not None:
                raise ConfigurationError(
                    "jobs.store_dir and jobs.persist_path are mutually "
                    "exclusive (the shared store persists per-job records)"
                )
            if self.checkpoint_dir is None:
                raise ConfigurationError(
                    "jobs.store_dir requires jobs.checkpoint_dir: claiming "
                    "replicas rebuild jobs from the input spool"
                )
        if self.store_drain_interval_seconds <= 0:
            raise ConfigurationError(
                "jobs.store_drain_interval_seconds must be > 0"
            )


@dataclass(slots=True)
class Job:
    """One asynchronous analysis and everything known about it."""

    id: str
    state: str = JobState.SUBMITTED
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    expires_at: float | None = None
    seed: int = 0
    config_hash: str = ""
    progress: dict[str, Any] = field(default_factory=_new_progress)
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    degraded: bool = False
    degradation: dict[str, Any] | None = None
    cancel_requested: bool = False
    # True when the job survived a service restart: it was re-queued
    # from its input spool instead of failing as ``Interrupted``.
    resumed: bool = False
    # Streaming jobs ("mode": "stream"): frames appended over HTTP run
    # through the push-based pipeline as they arrive.
    mode: str = "batch"
    frames_received: int = 0
    eof: bool = False
    provisional: dict[str, Any] | None = None

    @property
    def terminal(self) -> bool:
        """True once the job reached a final state."""
        return self.state in JobState.TERMINAL

    def to_dict(self, include_result: bool = False) -> dict[str, Any]:
        """JSON-ready status payload (result omitted unless asked)."""
        payload: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "mode": self.mode,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "expires_at": self.expires_at,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "progress": {
                "total_stages": self.progress["total_stages"],
                "stages_completed": list(self.progress["stages_completed"]),
                "current_stage": self.progress["current_stage"],
                "fraction": self.progress["fraction"],
            },
            "error": dict(self.error) if self.error else None,
            "degraded": self.degraded,
            "degradation": dict(self.degradation) if self.degradation else None,
            "cancel_requested": self.cancel_requested,
            "resumed": self.resumed,
        }
        if self.mode == "stream":
            payload["stream"] = {
                "frames_received": self.frames_received,
                "eof": self.eof,
                "provisional": (
                    dict(self.provisional) if self.provisional else None
                ),
            }
        if include_result:
            payload["result"] = self.result
        return payload

    def to_record(self) -> dict[str, Any]:
        """Full persistence form (result always included)."""
        record = self.to_dict(include_result=True)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Job":
        """Inverse of :meth:`to_record` (for the file-backed store)."""
        progress = record.get("progress") or _new_progress()
        stream = record.get("stream") or {}
        return cls(
            id=str(record["id"]),
            state=str(record.get("state", JobState.SUBMITTED)),
            created_at=float(record.get("created_at", 0.0)),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            expires_at=record.get("expires_at"),
            seed=int(record.get("seed", 0)),
            config_hash=str(record.get("config_hash", "")),
            progress={
                "total_stages": int(progress.get("total_stages", 0)),
                "stages_completed": list(progress.get("stages_completed", [])),
                "current_stage": progress.get("current_stage"),
                "fraction": float(progress.get("fraction", 0.0)),
            },
            result=record.get("result"),
            error=record.get("error"),
            degraded=bool(record.get("degraded", False)),
            degradation=record.get("degradation"),
            cancel_requested=bool(record.get("cancel_requested", False)),
            resumed=bool(record.get("resumed", False)),
            mode=str(record.get("mode", "batch")),
            frames_received=int(stream.get("frames_received", 0)),
            eof=bool(stream.get("eof", False)),
            provisional=stream.get("provisional"),
        )
