"""Thread-safe job storage: in-memory LRU + optional JSON persistence.

The store owns every :class:`~repro.jobs.models.Job` record and all of
its mutation; workers and HTTP handlers only ever call store methods,
so one reentrant lock serialises the whole lifecycle.

* **Deterministic ids** — ``j<seq>-<digest>``: a monotone sequence
  number plus a content digest of the submission (video bytes, seed,
  config hash).  Two stores fed the same submissions in the same order
  mint identical ids, which keeps job tests and replayed traffic
  stable.
* **LRU bound** — beyond ``capacity``, the oldest *terminal* jobs are
  evicted first; running/queued jobs are never evicted (their workers
  hold them).
* **TTL** — terminal jobs expire ``ttl_seconds`` after finishing.
  Expired ids are remembered (bounded) so the service can answer a
  structured ``410 result_expired`` instead of a bare 404.
* **Persistence** — with ``persist_path`` the store mirrors itself to
  a JSON file on every state transition; terminal jobs (results
  included) survive a restart.  Jobs caught mid-flight are restored as
  ``failed`` with an ``Interrupted`` error — unless the owner passes a
  ``resumable`` predicate (the manager's input-spool check, see
  :mod:`repro.resilience.spool`) that recognises them, in which
  case they are re-queued as ``submitted`` with ``resumed`` set and
  picked up by :meth:`~repro.jobs.manager.JobManager.recover`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from .backends import JobStoreBackend, SingleProcessBackend
from .models import Job, JobState
from ..errors import ConfigurationError

#: How many expired job ids are remembered for 410 answers.
_EXPIRED_MEMORY = 1024


class JobStore:
    """Lock-guarded LRU of :class:`Job` records with TTL + persistence.

    Storage is delegated to a :class:`~repro.jobs.backends.JobStoreBackend`:
    the default :class:`~repro.jobs.backends.SingleProcessBackend`
    reproduces the historical in-memory + JSON-snapshot behaviour; a
    *shared* backend (``backend.shared``) keeps one record per job in
    a directory N replicas read concurrently, in which case this
    store's dict only holds **locally owned** jobs (created streams,
    claimed batch work) and every other read falls through to the
    backend's records.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_seconds: float = 3600.0,
        persist_path: str | Path | None = None,
        clock: Callable[[], float] = time.time,
        resumable: Callable[[str], bool] | None = None,
        backend: JobStoreBackend | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"job store capacity must be >= 1, got {capacity}")
        if ttl_seconds <= 0:
            raise ConfigurationError(
                f"job store ttl_seconds must be > 0, got {ttl_seconds}"
            )
        if backend is not None and persist_path is not None:
            raise ConfigurationError(
                "pass either persist_path or an explicit backend, not both"
            )
        self._capacity = capacity
        self._ttl = ttl_seconds
        self._backend = backend or SingleProcessBackend(persist_path)
        self._clock = clock
        self._resumable = resumable or (lambda _job_id: False)
        self._lock = threading.RLock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._expired: OrderedDict[str, str] = OrderedDict()
        self._seq = 0
        self.resumed_count = 0  # jobs re-queued across restarts (metrics)
        self._load()

    @property
    def clock(self) -> Callable[[], float]:
        """The store's time source (shared by the watchdog)."""
        return self._clock

    @property
    def backend(self) -> JobStoreBackend:
        """The storage backend records live in."""
        return self._backend

    @property
    def shared(self) -> bool:
        """True when multiple replicas share this store's records."""
        return self._backend.shared

    # ------------------------------------------------------------------
    # Creation / identity
    # ------------------------------------------------------------------
    @staticmethod
    def digest_of(*parts: bytes | str) -> str:
        """Stable content digest over the submission's identifying parts."""
        hasher = hashlib.sha256()
        for part in parts:
            if isinstance(part, str):
                part = part.encode("utf-8")
            hasher.update(part)
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def create(
        self,
        digest: str,
        seed: int = 0,
        config_hash: str = "",
        mode: str = "batch",
    ) -> dict[str, Any]:
        """Mint a new ``submitted`` job; returns its status payload.

        With a shared backend the sequence number comes from the
        backend's atomic counter (so replicas never collide) and the
        record is written for everyone to see; it enters this store's
        local dict only when this replica executes it (streams, or a
        batch job claimed via :meth:`adopt`).
        """
        with self._lock:
            self._evict_expired()
            if self.shared:
                seq = self._backend.allocate_seq()
                self._seq = max(self._seq, seq)
            else:
                self._seq += 1
                seq = self._seq
            job_id = f"j{seq:05d}-{digest[:10]}"
            job = Job(
                id=job_id,
                created_at=self._clock(),
                seed=seed,
                config_hash=config_hash,
                mode=mode,
            )
            if self.shared:
                self._backend.write_job(job.to_record())
                return job.to_dict()
            self._jobs[job_id] = job
            self._enforce_capacity()
            self._save()
            return job.to_dict()

    # ------------------------------------------------------------------
    # Shared-backend queue surface
    # ------------------------------------------------------------------
    def enqueue(self, job_id: str) -> None:
        """Publish a submitted job for any replica to claim."""
        self._backend.enqueue(job_id)

    def claim_next(self, owner: str) -> str | None:
        """Claim the oldest queued job for ``owner`` (at most one winner)."""
        return self._backend.claim_next(owner)

    def adopt(self, job_id: str) -> dict[str, Any] | None:
        """Take local ownership of a shared record (after a claim).

        Returns the job's status payload, or ``None`` when the record
        vanished.  The caller decides what to do with non-``submitted``
        states (e.g. a job cancelled while queued).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                record = self._backend.read_job(job_id)
                if record is None:
                    return None
                job = Job.from_record(record)
                self._jobs[job_id] = job
                self._enforce_capacity()
            return job.to_dict()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def payload(
        self, job_id: str, include_result: bool = False
    ) -> dict[str, Any] | None:
        """Status payload of one job, or ``None`` when unknown/expired.

        Shared backend: a job this replica doesn't own locally is read
        fresh from its backend record, so any replica can answer status
        and result polls regardless of which replica ran the job.
        """
        with self._lock:
            self._evict_expired()
            job = self._jobs.get(job_id)
            if job is None and self.shared:
                record = self._backend.read_job(job_id)
                if record is not None:
                    job = Job.from_record(record)
            return job.to_dict(include_result=include_result) if job else None

    def is_expired(self, job_id: str) -> bool:
        """True when the job existed but its TTL has evicted it."""
        with self._lock:
            self._evict_expired()
            return job_id in self._expired

    def list_payload(
        self, limit: int = 50, state: str | None = None
    ) -> list[dict[str, Any]]:
        """Newest-first bounded listing of job summaries (no results)."""
        if state is not None and state not in JobState.ALL:
            raise ConfigurationError(
                f"unknown job state {state!r}; states are {list(JobState.ALL)}"
            )
        with self._lock:
            self._evict_expired()
            out: list[dict[str, Any]] = []
            for job in reversed(self._visible_jobs()):
                if state is not None and job.state != state:
                    continue
                out.append(job.to_dict())
                if len(out) >= limit:
                    break
            return out

    def _visible_jobs(self) -> list[Job]:
        """Every job a reader should see, oldest first (lock held).

        Local jobs win over their backend record — the local copy has
        the live progress block that is deliberately never persisted.
        """
        if not self.shared:
            return list(self._jobs.values())
        merged: dict[str, Job] = {}
        for job_id in self._backend.list_job_ids():
            local = self._jobs.get(job_id)
            if local is not None:
                merged[job_id] = local
                continue
            record = self._backend.read_job(job_id)
            if record is not None:
                merged[job_id] = Job.from_record(record)
        for job_id, job in self._jobs.items():  # local-only stragglers
            merged.setdefault(job_id, job)
        return [merged[job_id] for job_id in sorted(merged)]

    def counts(self) -> dict[str, int]:
        """Number of stored jobs per state."""
        with self._lock:
            self._evict_expired()
            out = {state: 0 for state in JobState.ALL}
            for job in self._visible_jobs():
                out[job.state] += 1
            return out

    def pending_count(self, local: bool = False) -> int:
        """Jobs not yet terminal (queued + running).

        ``local`` counts only the jobs this replica runs; without a
        shared backend that is every job.
        """
        with self._lock:
            self._evict_expired()
            jobs = self._jobs.values() if local else self._visible_jobs()
            return sum(1 for job in jobs if not job.terminal)

    def queued_jobs(self) -> list[dict[str, Any]]:
        """Status payloads of every ``submitted`` job, oldest first.

        Recovery uses this to re-submit restart survivors; the payloads
        carry everything the manager needs (id, mode, seed, resumed).
        """
        with self._lock:
            self._evict_expired()
            return [
                job.to_dict()
                for job in self._jobs.values()
                if job.state == JobState.SUBMITTED
            ]

    def running_jobs(self) -> list[tuple[str, float, str | None]]:
        """``(job_id, started_at, current_stage)`` of every running job.

        The watchdog's scan set: ``started_at`` is on the store's own
        clock, so deadline arithmetic stays consistent with it.
        """
        with self._lock:
            return [
                (
                    job.id,
                    float(job.started_at or job.created_at),
                    job.progress.get("current_stage"),
                )
                for job in self._jobs.values()
                if job.state == JobState.RUNNING
            ]

    def stats(self) -> dict[str, Any]:
        """Counters for ``/metrics``."""
        with self._lock:
            counts = self.counts()
            return {
                "states": counts,
                "pending": counts[JobState.SUBMITTED] + counts[JobState.RUNNING],
                "size": sum(counts.values()),
                "capacity": self._capacity,
                "created": self._seq,
                "expired": len(self._expired),
                "resumed": self.resumed_count,
            }

    # ------------------------------------------------------------------
    # Lifecycle transitions (called by the worker pool)
    # ------------------------------------------------------------------
    def mark_running(self, job_id: str, total_stages: int = 0) -> bool:
        """``submitted`` → ``running``; False when the job was cancelled
        (or evicted) before its worker picked it up."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.SUBMITTED:
                return False
            if job.cancel_requested:
                self._finish_locked(job, JobState.CANCELLED, error={
                    "type": "CancelledError",
                    "message": "job cancelled before it started",
                })
                return False
            job.state = JobState.RUNNING
            job.started_at = self._clock()
            job.progress["total_stages"] = total_stages
            self._save(job)
            return True

    def update_progress(
        self,
        job_id: str,
        current_stage: str | None = None,
        completed_stage: str | None = None,
    ) -> None:
        """Record stage progress (not persisted — too chatty)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            progress = job.progress
            if current_stage is not None:
                progress["current_stage"] = current_stage
            if completed_stage is not None:
                done = progress["stages_completed"]
                if completed_stage not in done:
                    done.append(completed_stage)
                if progress["current_stage"] == completed_stage:
                    progress["current_stage"] = None
                total = progress["total_stages"]
                if total:
                    progress["fraction"] = round(len(done) / total, 4)

    def record_frames(self, job_id: str, count: int) -> int | None:
        """Add ``count`` to a stream job's received-frame total.

        Returns the new total, or ``None`` for unknown/terminal jobs.
        Like stage progress, this is not persisted (too chatty).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return None
            job.frames_received += count
            return job.frames_received

    def mark_eof(self, job_id: str) -> bool:
        """Record that the stream's producer signalled end-of-frames."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return False
            job.eof = True
            return True

    def set_provisional(self, job_id: str, provisional: dict[str, Any]) -> None:
        """Replace a stream job's provisional block (not persisted)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            job.provisional = dict(provisional)

    def finish(
        self,
        job_id: str,
        state: str,
        result: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
        degraded: bool = False,
        degradation: dict[str, Any] | None = None,
    ) -> bool:
        """Move a job to a terminal state and arm its TTL.

        Returns True when the transition applied; False when the job
        is unknown or already terminal (a lost race — e.g. the
        watchdog against a normal completion — is a no-op, never a
        state flip).
        """
        if state not in JobState.TERMINAL:
            raise ConfigurationError(
                f"finish() needs a terminal state, got {state!r}"
            )
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return False
            self._finish_locked(
                job, state, result=result, error=error,
                degraded=degraded, degradation=degradation,
            )
            return True

    def _finish_locked(
        self,
        job: Job,
        state: str,
        result: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
        degraded: bool = False,
        degradation: dict[str, Any] | None = None,
    ) -> None:
        job.state = state
        job.finished_at = self._clock()
        job.expires_at = job.finished_at + self._ttl
        job.result = result
        job.error = error
        job.degraded = degraded
        job.degradation = degradation
        if state == JobState.SUCCEEDED:
            job.progress["fraction"] = 1.0
            job.progress["current_stage"] = None
        self._save(job)

    def request_cancel(self, job_id: str) -> str | None:
        """Ask for cancellation.

        Returns ``"cancelled"`` (was still queued — cancelled on the
        spot), ``"cancelling"`` (running — its token is the worker's
        to honour), ``"finished"`` (already terminal), or ``None``
        (unknown job).
        """
        with self._lock:
            self._evict_expired()
            job = self._jobs.get(job_id)
            if job is None and self.shared:
                return self._request_cancel_remote(job_id)
            if job is None:
                return None
            if job.terminal:
                return "finished"
            job.cancel_requested = True
            if job.state == JobState.SUBMITTED:
                self._finish_locked(job, JobState.CANCELLED, error={
                    "type": "CancelledError",
                    "message": "job cancelled before it started",
                })
                return "cancelled"
            self._save(job)
            return "cancelling"

    def _request_cancel_remote(self, job_id: str) -> str | None:
        """Cancel a shared job another replica owns (lock held).

        Queued jobs are cancelled on the spot: the terminal record is
        written before any claimer adopts it, so the eventual claimer
        sees a non-``submitted`` state and skips execution (the claim
        marker race is benign either way).  For a job already running
        elsewhere the flag is written best-effort — the owner's next
        record write wins, so this is advisory, mirroring the
        single-process "the token is the worker's to honour" contract.
        """
        record = self._backend.read_job(job_id)
        if record is None:
            return None
        job = Job.from_record(record)
        if job.terminal:
            return "finished"
        job.cancel_requested = True
        if job.state == JobState.SUBMITTED:
            job.state = JobState.CANCELLED
            job.finished_at = self._clock()
            job.expires_at = job.finished_at + self._ttl
            job.error = {
                "type": "CancelledError",
                "message": "job cancelled before it started",
            }
            self._backend.write_job(job.to_record())
            return "cancelled"
        self._backend.write_job(job.to_record())
        return "cancelling"

    def cancel_requested(self, job_id: str) -> bool:
        """Whether cancellation was requested for this job."""
        with self._lock:
            job = self._jobs.get(job_id)
            return bool(job and job.cancel_requested)

    def discard(self, job_id: str) -> dict[str, Any] | None:
        """Remove a terminal job outright and return its final payload.

        For records nobody will poll (attached jobs, whose client read
        the answer on its own connection): unlike TTL or LRU eviction
        the id is not remembered as expired.  Returns ``None`` (and
        removes nothing) for unknown or non-terminal jobs.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or not job.terminal:
                return None
            del self._jobs[job_id]
            if self.shared:
                self._backend.remove_job(job_id)
            self._save()
            return job.to_dict(include_result=True)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _remember_expired(self, job: Job) -> None:
        self._expired[job.id] = job.state
        while len(self._expired) > _EXPIRED_MEMORY:
            self._expired.popitem(last=False)

    def _evict_expired(self, now: float | None = None) -> int:
        """Drop terminal jobs past their TTL (call with the lock held)."""
        now = self._clock() if now is None else now
        stale = [
            job for job in self._jobs.values()
            if job.terminal and job.expires_at is not None
            and job.expires_at <= now
        ]
        for job in stale:
            del self._jobs[job.id]
            self._remember_expired(job)
            if self.shared:
                self._backend.remove_job(job.id)
        if stale:
            self._save()
        return len(stale)

    def _enforce_capacity(self) -> None:
        """Evict oldest terminal jobs beyond capacity (lock held)."""
        if len(self._jobs) <= self._capacity:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= self._capacity:
                break
            job = self._jobs[job_id]
            if job.terminal:
                del self._jobs[job_id]
                self._remember_expired(job)
                if self.shared:
                    self._backend.remove_job(job_id)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _save(self, job: Job | None = None) -> None:
        """Persist after a mutation (lock held).

        Non-shared: the whole store is snapshotted (historical
        behaviour; without a persist path the backend never builds the
        snapshot).  Shared: only the changed job's record is rewritten
        — full snapshots would race other replicas' writes.
        """
        if self.shared:
            if job is not None:
                self._backend.write_job(job.to_record())
            return
        self._backend.persist_snapshot(lambda: {
            "seq": self._seq,
            "jobs": [job.to_record() for job in self._jobs.values()],
            "expired": dict(self._expired),
        })

    def _load(self) -> None:
        payload = self._backend.load_snapshot()
        if payload is None:
            return
        self._seq = int(payload.get("seq", 0))
        if self.shared:
            # Records stay in the backend; claims, not restarts, decide
            # who runs queued work, so no Interrupted/resumed rewrite.
            return
        for name, state in dict(payload.get("expired", {})).items():
            self._expired[str(name)] = str(state)
        for record in payload.get("jobs", []):
            job = Job.from_record(record)
            if not job.terminal:
                if self._resumable(job.id):
                    # The inputs were spooled: re-queue instead of
                    # failing.  The job re-runs from its spool, so
                    # progress restarts from zero.
                    job.state = JobState.SUBMITTED
                    job.started_at = None
                    job.progress = {
                        "total_stages": 0,
                        "stages_completed": [],
                        "current_stage": None,
                        "fraction": 0.0,
                    }
                    job.frames_received = 0
                    job.provisional = None
                    job.resumed = True
                    self.resumed_count += 1
                else:
                    # The previous process died mid-flight and nothing
                    # was spooled; the work is gone.
                    job.state = JobState.FAILED
                    job.error = {
                        "type": "Interrupted",
                        "message": "job interrupted by a service restart",
                    }
                    job.finished_at = self._clock()
                    job.expires_at = job.finished_at + self._ttl
            self._jobs[job.id] = job
