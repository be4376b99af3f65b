"""The facade the service (and tests) talk to.

:class:`JobManager` wires a :class:`~repro.jobs.store.JobStore` and a
:class:`~repro.jobs.worker.JobWorkerPool` together behind one small
API: submit, read, cancel, list.  It owns admission control — one
rule, bounded by ``max_queued`` for *detached* jobs (the client polls)
and by the pool width for *attached* ones (the client waits on its
connection) — but no HTTP concerns: status codes live in
:mod:`repro.service`.
"""

from __future__ import annotations

import base64
import os
import threading
import uuid
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .backends import SharedDirectoryBackend
from .models import JobsConfig, JobState
from .store import JobStore
from .stream import FrameQueue
from .worker import JobWorkerPool
from ..errors import ConfigurationError, ReproError, StreamError
from ..perf.pool import WorkerPool
from ..resilience import (
    CircuitBreaker,
    Watchdog,
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
from ..serialization import (
    analysis_payload,
    annotation_from_dict,
    annotation_to_dict,
)
from ..video.sequence import VideoSequence


class JobQueueFull(ReproError):
    """Too many jobs already queued or running (maps to HTTP 503)."""


class JobManager:
    """Owns the job store and worker pool for one service instance.

    With ``config.checkpoint_dir`` the manager also owns crash safety:
    submissions are spooled to disk, restart survivors are re-queued
    (``resumed``) instead of failed, and :meth:`recover` runs them
    again from their spools.  The watchdog and the per-config circuit
    breaker live here too — the service only maps their refusals to
    status codes.
    """

    def __init__(
        self,
        config: JobsConfig,
        pool: WorkerPool,
        metrics: Any | None = None,
        serializer: Callable[[Any], dict[str, Any]] = analysis_payload,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config
        resumable = None
        if config.checkpoint_dir and config.resume_on_start:
            directory = config.checkpoint_dir

            def resumable(job_id: str) -> bool:
                return has_spool(directory, job_id)

        store_kwargs: dict[str, Any] = {
            "capacity": config.max_jobs,
            "ttl_seconds": config.result_ttl_seconds,
            "resumable": resumable,
        }
        if config.store_dir:
            store_kwargs["backend"] = SharedDirectoryBackend(config.store_dir)
        else:
            store_kwargs["persist_path"] = config.persist_path
        if clock is not None:
            store_kwargs["clock"] = clock
        self.store = JobStore(**store_kwargs)
        # This replica's identity on claim markers in the shared store.
        self.owner = f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._drain_thread: threading.Thread | None = None
        self._drain_stop = threading.Event()
        self.claimed_count = 0  # jobs this replica claimed from the queue
        self._pool_width = pool.max_workers  # bound on attached jobs
        # Held from the admission check to the job's creation, so
        # concurrent submissions cannot all pass one free slot.
        self._admission_lock = threading.Lock()
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_seconds=config.breaker_cooldown_seconds,
        )
        self.workers = JobWorkerPool(
            pool,
            self.store,
            metrics=metrics,
            serializer=serializer,
            breaker=self.breaker,
            spool_dir=config.checkpoint_dir,
        )
        self.watchdog = Watchdog(
            self.workers,
            deadline_seconds=config.job_deadline_seconds,
            interval_seconds=config.watchdog_interval_seconds,
        )
        self.watchdog.start()
        # job id -> FrameQueue for streaming jobs; pruned lazily once
        # the job is terminal (its queue is closed by the worker).
        self._streams: dict[str, FrameQueue] = {}
        self._streams_lock = threading.Lock()
        # Next spool chunk index per streaming job (seeded from disk
        # on recovery so resumed streams append, never overwrite).
        self._chunk_counts: dict[str, int] = {}

    def close(self) -> None:
        """Stop background machinery (watchdog + shared-queue drain)."""
        self._drain_stop.set()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=5)
            self._drain_thread = None
        self.watchdog.stop()

    # ------------------------------------------------------------------
    # Crash-safety helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _analyzer_config_dict(analyzer: Any) -> dict[str, Any] | None:
        """The analyzer's resolved config as a dict, when it has one."""
        config = getattr(analyzer, "config", None)
        to_dict = getattr(config, "to_dict", None)
        return to_dict() if callable(to_dict) else None

    def _spool_submission(
        self,
        job_id: str,
        mode: str,
        analyzer: Any,
        annotation: Any,
        seed: int,
        video_npz_b64: str | None = None,
    ) -> None:
        """Persist a submission's inputs (only with a checkpoint_dir).

        A failed write (disk full, read-only state dir) finishes the
        just-created record ``failed`` before the ``OSError``
        propagates: left ``submitted``, it would never run, never be
        evicted and count against ``max_queued`` until a restart.
        """
        directory = self.config.checkpoint_dir
        if not directory:
            return
        try:
            spool_input(
                directory,
                job_id,
                mode=mode,
                seed=seed,
                config=self._analyzer_config_dict(analyzer),
                annotation=(
                    None
                    if annotation is None
                    else annotation_to_dict(annotation)
                ),
                archive=(
                    None
                    if video_npz_b64 is None
                    else base64.b64decode(video_npz_b64)
                ),
            )
        except OSError as exc:
            clear_spool(directory, job_id)
            if self.store.shared:
                self.store.adopt(job_id)
            self.store.finish(
                job_id,
                JobState.FAILED,
                error={
                    "type": "SpoolFailed",
                    "message": f"could not spool the job's inputs: {exc}",
                },
            )
            raise

    # ------------------------------------------------------------------
    @contextmanager
    def _admitted(
        self, bound: int, config_hash: str, local: bool = False
    ) -> Iterator[None]:
        """The one admission rule, for every kind of submission.

        Raises :class:`JobQueueFull` when ``bound`` non-terminal jobs
        already exist (``local``: on this replica), then lets the
        circuit breaker refuse with :class:`~repro.errors.CircuitOpen`.
        A refused submission creates nothing; an admitted one creates
        its jobs inside the ``with`` block, under the same lock.
        """
        with self._admission_lock:
            if self.store.pending_count(local=local) >= bound:
                raise JobQueueFull(
                    f"{bound} jobs already queued or running; retry later"
                )
            self.breaker.check(config_hash)
            yield

    def submit_attached(
        self,
        analyzer: Any,
        items: list[dict[str, Any]],
        config_hash: str = "",
    ) -> list[tuple[str, Future]]:
        """Admit one request whose client waits on its connection.

        An attached request is admitted only while a worker of this
        replica's pool is free (fewer non-terminal local jobs than the
        pool width); then each of its ``items`` (``video``,
        ``annotation``, ``seed``, ``digest``) becomes one job, run here
        and never enqueued or spooled, since after a crash nobody could
        collect it.  Returns ``(job_id, future)`` per item, in order.
        """
        job_ids = []
        with self._admitted(self._pool_width, config_hash, local=True):
            for item in items:
                job_id = self.store.create(
                    item["digest"], seed=item["seed"], config_hash=config_hash
                )["id"]
                if self.store.shared:
                    self.store.adopt(job_id)  # local: counted from here on
                job_ids.append(job_id)
        submitted = []
        for job_id, item in zip(job_ids, items):
            future = self.workers.submit(
                job_id,
                analyzer,
                item["video"],
                annotation=item["annotation"],
                seed=item["seed"],
            )
            submitted.append((job_id, future))
        return submitted

    def submit_analysis(
        self,
        analyzer: Any,
        video: Any,
        annotation: Any = None,
        seed: int = 0,
        digest: str = "",
        config_hash: str = "",
        video_npz_b64: str | None = None,
    ) -> dict[str, Any]:
        """Admit one detached job and queue it; returns its payload.

        Raises :class:`JobQueueFull` when ``max_queued`` non-terminal
        jobs already exist — the job is *not* created, so a rejected
        submission leaves no trace.

        With a ``checkpoint_dir`` the job's inputs are spooled first,
        the video as ``video_npz_b64`` (the base64 ``.npz`` archive
        ``video`` was decoded from, e.g. the request field) — required
        then, since a restart or another replica re-runs the job from
        it.  A failed spool write raises ``OSError``, with the job
        already finished ``failed``.
        """
        if self.config.checkpoint_dir and video_npz_b64 is None:
            raise ConfigurationError(
                "a spooled submission needs video_npz_b64, the archive "
                "the job is re-run from after a restart"
            )
        with self._admitted(self.config.max_queued, config_hash):
            payload = self.store.create(
                digest or "0" * 10, seed=seed, config_hash=config_hash
            )
        self._spool_submission(
            payload["id"], "batch", analyzer, annotation, seed, video_npz_b64
        )
        if self.store.shared:
            # Shared store: the submission is published to the queue
            # and *any* replica (possibly this one, via its drain loop)
            # claims and runs it from the input spool.
            self.store.enqueue(payload["id"])
            return payload
        self.workers.submit(
            payload["id"],
            analyzer,
            video,
            annotation=annotation,
            seed=seed,
        )
        return payload

    # ------------------------------------------------------------------
    # Streaming jobs
    # ------------------------------------------------------------------
    def submit_stream(
        self,
        analyzer: Any,
        annotation: Any = None,
        seed: int = 0,
        digest: str = "",
        config_hash: str = "",
    ) -> dict[str, Any]:
        """Admit one streaming job; frames arrive via :meth:`push_frames`.

        Same :class:`JobQueueFull` admission rule and spool-failure
        ``OSError`` as :meth:`submit_analysis`.  The worker starts
        immediately and waits on the job's bounded frame queue; a
        producer that never sends ``eof`` fails the job after the
        configured idle timeout.
        """
        with self._admitted(self.config.max_queued, config_hash):
            payload = self.store.create(
                digest or "0" * 10,
                seed=seed,
                config_hash=config_hash,
                mode="stream",
            )
        if self.store.shared:
            # Streams always run on the replica holding the HTTP
            # connection (the frame queue lives here), so adopt the
            # record immediately instead of publishing it for claims.
            self.store.adopt(payload["id"])
        self._spool_submission(payload["id"], "stream", analyzer, annotation, seed)
        queue = FrameQueue(self.config.stream_queue_frames)
        with self._streams_lock:
            self._prune_streams_locked()
            self._streams[payload["id"]] = queue
        self.workers.submit_stream(
            payload["id"],
            analyzer,
            queue,
            annotation=annotation,
            seed=seed,
            idle_timeout=self.config.stream_idle_timeout_seconds,
        )
        return payload

    def _prune_streams_locked(self) -> None:
        for job_id in list(self._streams):
            payload = self.store.payload(job_id)
            if payload is None or payload["state"] in JobState.TERMINAL:
                del self._streams[job_id]

    def stream_queue(self, job_id: str) -> FrameQueue | None:
        """The live frame queue of one streaming job, if any."""
        with self._streams_lock:
            return self._streams.get(job_id)

    def push_frames(self, job_id: str, frames: list) -> dict[str, Any]:
        """Append frames to a streaming job's queue.

        Raises :class:`~repro.jobs.stream.FrameQueueFull` at capacity
        (HTTP 429) and :class:`~repro.errors.StreamError` when the
        stream is closed or unknown (HTTP 409).
        """
        queue = self.stream_queue(job_id)
        if queue is None:
            raise StreamError(f"job {job_id!r} has no open stream")
        queued = queue.put(frames)
        self._spool_chunk(job_id, frames)
        total = self.store.record_frames(job_id, len(frames))
        return {"queued": queued, "frames_received": total}

    def _spool_chunk(self, job_id: str, frames: list) -> None:
        """Persist one accepted frame chunk (only with a checkpoint_dir).

        Spooled *after* ``queue.put`` succeeds so the spool never holds
        frames the stream rejected, and the chunk sequence mirrors the
        accepted-frame sequence exactly.
        """
        if not self.config.checkpoint_dir:
            return
        with self._streams_lock:
            index = self._chunk_counts.get(job_id)
            if index is None:
                index = stream_chunk_count(self.config.checkpoint_dir, job_id)
            self._chunk_counts[job_id] = index + 1
        spool_stream_chunk(self.config.checkpoint_dir, job_id, index, frames)

    def eof(self, job_id: str) -> None:
        """Signal end-of-frames; the worker finishes and scores the job."""
        queue = self.stream_queue(job_id)
        if queue is None:
            raise StreamError(f"job {job_id!r} has no open stream")
        if queue.closed:
            raise StreamError(f"job {job_id!r} already received eof")
        if self.config.checkpoint_dir:
            spool_stream_eof(self.config.checkpoint_dir, job_id)
        queue.close()
        self.store.mark_eof(job_id)

    def open_streams(self) -> int:
        """Streaming jobs whose frame queue is still registered."""
        with self._streams_lock:
            self._prune_streams_locked()
            return len(self._streams)

    # ------------------------------------------------------------------
    def payload(
        self, job_id: str, include_result: bool = False
    ) -> dict[str, Any] | None:
        """One job's status payload (``None`` when unknown/expired)."""
        return self.store.payload(job_id, include_result=include_result)

    def is_expired(self, job_id: str) -> bool:
        """Whether the job existed but aged out of the store."""
        return self.store.is_expired(job_id)

    def cancel(self, job_id: str) -> str | None:
        """Request cancellation; see :meth:`JobStore.request_cancel`.

        For streaming jobs the frame queue is closed *after* the token
        trips, so a worker woken by the close observes the cancel
        before it can finish the analysis.
        """
        outcome = self.store.request_cancel(job_id)
        if outcome == "cancelling":
            self.workers.cancel(job_id)
        if outcome in ("cancelling", "cancelled"):
            queue = self.stream_queue(job_id)
            if queue is not None:
                queue.close()
        return outcome

    def list_payload(
        self, limit: int = 50, state: str | None = None
    ) -> list[dict[str, Any]]:
        """Newest-first bounded job listing."""
        return self.store.list_payload(limit=limit, state=state)

    # ------------------------------------------------------------------
    # Restart recovery
    # ------------------------------------------------------------------
    def recover(self, analyzer_factory: Callable[[dict[str, Any] | None], Any]) -> list[str]:
        """Re-submit jobs the store restored as resumable.

        ``analyzer_factory`` maps a spooled config dict (or ``None``)
        to an analyzer.  Each job is rebuilt from its input spool and
        run again with its seed (see :meth:`_resubmit`), so a
        reconnecting stream client can keep pushing from
        ``frames_received``.  Returns the re-submitted job ids.
        """
        if not self.config.checkpoint_dir or not self.config.resume_on_start:
            return []
        recovered: list[str] = []
        for payload in self.store.queued_jobs():
            if payload.get("resumed") and self._resubmit(
                payload["id"], analyzer_factory
            ):
                recovered.append(payload["id"])
        return recovered

    def _resubmit(
        self,
        job_id: str,
        analyzer_factory: Callable[[dict[str, Any] | None], Any],
    ) -> bool:
        """Rebuild one job from its input spool and hand it to the workers.

        The analysis is a deterministic function of the spooled video
        (or stream chunks), annotation, config and seed, so the re-run
        reproduces the interrupted run's payload.  A streaming job gets
        a fresh frame queue and replays its spooled chunks first.  A
        job whose spool turns out unreadable is failed cleanly as
        ``Interrupted`` rather than left queued forever; returns
        whether the job was submitted.
        """
        directory = self.config.checkpoint_dir
        meta = load_input_meta(directory, job_id)
        if meta is None:
            self._fail_unrecoverable(job_id, "input spool unreadable")
            return False
        annotation = None
        if meta.get("annotation") is not None:
            annotation = annotation_from_dict(meta["annotation"])
        seed = int(meta.get("seed", 0))
        if meta.get("mode") == "stream":
            frames, eof = load_stream_spool(directory, job_id)
            queue = FrameQueue(self.config.stream_queue_frames)
            if eof:
                queue.close()
            with self._streams_lock:
                self._streams[job_id] = queue
                self._chunk_counts[job_id] = stream_chunk_count(
                    directory, job_id
                )
            self.workers.submit_stream(
                job_id,
                analyzer_factory(meta.get("config")),
                queue,
                annotation=annotation,
                seed=seed,
                idle_timeout=self.config.stream_idle_timeout_seconds,
                replay=frames,
                replay_eof=eof,
            )
            return True
        video = load_input_frames(directory, job_id)
        if video is None:
            self._fail_unrecoverable(job_id, "frame spool unreadable")
            return False
        self.workers.submit(
            job_id,
            analyzer_factory(meta.get("config")),
            VideoSequence(video),
            annotation=annotation,
            seed=seed,
        )
        return True

    # ------------------------------------------------------------------
    # Shared-queue draining (store_dir mode)
    # ------------------------------------------------------------------
    def start_drain(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> bool:
        """Start claiming queued jobs from the shared store.

        No-op (returns False) without a shared backend.  The loop polls
        ``claim_next`` every ``store_drain_interval_seconds``; each
        claimed job is rebuilt from its input spool by
        :meth:`_resubmit`, as :meth:`recover` rebuilds restart
        survivors, and handed to this replica's worker pool.
        """
        if not self.store.shared or self._drain_thread is not None:
            return False
        self._drain_stop.clear()
        self._drain_thread = threading.Thread(
            target=self._drain_loop,
            args=(analyzer_factory,),
            name="slj-job-drain",
            daemon=True,
        )
        self._drain_thread.start()
        return True

    def _drain_loop(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> None:
        while not self._drain_stop.is_set():
            claimed = self.drain_once(analyzer_factory)
            if not claimed:
                self._drain_stop.wait(self.config.store_drain_interval_seconds)

    def drain_once(
        self, analyzer_factory: Callable[[dict[str, Any] | None], Any]
    ) -> str | None:
        """Claim and start at most one queued job; returns its id.

        Exposed separately from the background loop so tests (and
        synchronous drains) can step the queue deterministically.
        """
        job_id = self.store.claim_next(self.owner)
        if job_id is None:
            return None
        self.claimed_count += 1
        payload = self.store.adopt(job_id)
        if payload is None:
            return None
        if payload["state"] != JobState.SUBMITTED or payload["cancel_requested"]:
            # Cancelled (or otherwise resolved) while queued — the
            # claim is consumed but nothing runs.
            return None
        return job_id if self._resubmit(job_id, analyzer_factory) else None

    def _fail_unrecoverable(self, job_id: str, reason: str) -> None:
        self.store.mark_running(job_id)
        self.store.finish(
            job_id,
            JobState.FAILED,
            error={
                "type": "Interrupted",
                "message": f"job could not be resumed after restart: {reason}",
            },
        )

    def stats(self) -> dict[str, Any]:
        """Job counters for ``/metrics``."""
        stats = self.store.stats()
        stats["enabled"] = self.config.enabled
        stats["max_queued"] = self.config.max_queued
        stats["backend"] = self.store.backend.kind
        stats["claimed"] = self.claimed_count
        stats["open_streams"] = self.open_streams()
        stats["watchdog_timeouts"] = self.workers.watchdog_timeouts
        stats["breaker"] = self.breaker.snapshot()
        return stats
