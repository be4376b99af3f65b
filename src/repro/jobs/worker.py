"""Runs jobs on the shared worker pool with progress + cancellation.

The worker is deliberately thin: every state transition goes through
the :class:`~repro.jobs.store.JobStore`, progress comes straight from
the pipeline's own :class:`~repro.runtime.Instrumentation` events (no
second bookkeeping path to drift), and cancellation is the runtime's
cooperative :class:`~repro.runtime.CancellationToken`, checked by the
:class:`~repro.runtime.runner.PipelineRunner` between stages.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable

import numpy as np

from .models import JobState
from .store import JobStore
from .stream import FrameQueue, StreamIdleTimeout
from ..errors import CancelledError, ReproError
from ..perf.pool import WorkerPool
from ..runtime import CancellationToken, Instrumentation
from ..runtime.instrumentation import SpanEvent
from ..serialization import analysis_payload


class JobProgressSink:
    """Instrumentation sink that mirrors stage events into a job record.

    The runner emits a ``runtime/stage_start`` event before each stage
    and a span for each finished one; this sink translates exactly
    those two signals into the job's ``progress`` block.
    """

    __slots__ = ("_store", "_job_id", "_stages")

    def __init__(
        self, store: JobStore, job_id: str, stage_names: tuple[str, ...]
    ) -> None:
        self._store = store
        self._job_id = job_id
        self._stages = set(stage_names)

    def emit(self, event: SpanEvent) -> None:
        if event.kind == "event" and event.name == "runtime/stage_start":
            stage = event.field_dict().get("stage")
            if stage in self._stages:
                self._store.update_progress(self._job_id, current_stage=stage)
        elif event.kind == "span" and event.name in self._stages:
            self._store.update_progress(
                self._job_id, completed_stage=event.name
            )


class JobWorkerPool:
    """Executes jobs on a shared :class:`~repro.perf.pool.WorkerPool`.

    Holds one :class:`CancellationToken` per in-flight job so
    ``DELETE /v1/jobs/{id}`` can interrupt the run between pipeline
    stages without poisoning the pool: the worker catches the resulting
    :class:`~repro.errors.CancelledError`, records the terminal state,
    and returns its thread to the pool clean.
    """

    def __init__(
        self,
        pool: WorkerPool,
        store: JobStore,
        metrics: Any | None = None,
        serializer: Callable[[Any], dict[str, Any]] = analysis_payload,
        breaker: Any | None = None,
    ) -> None:
        self._pool = pool
        self._store = store
        self._metrics = metrics
        self._serializer = serializer
        self._breaker = breaker
        self._lock = threading.Lock()
        self._tokens: dict[str, CancellationToken] = {}
        self._reaped: set[str] = set()  # watchdog-reaped, thread zombie
        self.watchdog_timeouts = 0  # lifetime reaps (metrics)

    def submit(
        self,
        job_id: str,
        analyzer: Any,
        video: Any,
        annotation: Any = None,
        seed: int = 0,
        checkpointer: Any = None,
    ) -> Future:
        """Queue one job; returns its pool future at once.

        The future resolves (to ``None``) when :meth:`_run` returns, by
        which time the job's record is terminal; a client waiting on it
        reads the outcome from the store.
        """
        token = CancellationToken()
        with self._lock:
            self._tokens[job_id] = token
        return self._pool.submit(
            self._run,
            job_id,
            analyzer,
            video,
            annotation,
            seed,
            token,
            checkpointer,
        )

    def submit_stream(
        self,
        job_id: str,
        analyzer: Any,
        frames: FrameQueue,
        annotation: Any = None,
        seed: int = 0,
        idle_timeout: float = 30.0,
        checkpointer: Any = None,
        replay: list[Any] | None = None,
        replay_eof: bool = False,
    ) -> None:
        """Queue one streaming job fed by ``frames``; returns immediately.

        ``replay`` (recovery) is a list of frames spooled before a
        restart: they are pushed through the stream first — rebuilding
        the received-frame count and the background-model state — and
        the queue is drained after.  ``replay_eof`` means the producer
        already signalled end-of-frames, so the job finishes from the
        replay alone, no client required.
        """
        token = CancellationToken()
        with self._lock:
            self._tokens[job_id] = token
        self._pool.submit(
            self._run_stream,
            job_id,
            analyzer,
            frames,
            annotation,
            seed,
            idle_timeout,
            token,
            checkpointer,
            replay,
            replay_eof,
        )

    def cancel(self, job_id: str) -> None:
        """Trip the job's token (no-op when it already finished)."""
        with self._lock:
            token = self._tokens.get(job_id)
        if token is not None:
            token.cancel()

    def active(self) -> int:
        """Jobs currently holding a cancellation token."""
        with self._lock:
            return len(self._tokens)

    def reap_overdue(self, deadline_seconds: float) -> list[str]:
        """Fail every running job older than the soft deadline.

        The watchdog's one move: the job is finished as ``failed``
        (``WatchdogTimeout`` + diagnostics), its token is tripped in
        case the wedged stage eventually yields, and the pool grows a
        replacement slot — shrunk back by the job's ``finally`` block
        when the zombie thread exits, so no slot ever leaks.
        """
        now = self._store.clock()
        reaped: list[str] = []
        for job_id, started_at, stage in self._store.running_jobs():
            elapsed = now - started_at
            if elapsed < deadline_seconds:
                continue
            with self._lock:
                token = self._tokens.get(job_id)
                if token is None or job_id in self._reaped:
                    continue
            applied = self._store.finish(
                job_id,
                JobState.FAILED,
                error={
                    "type": "WatchdogTimeout",
                    "message": (
                        f"job exceeded its {deadline_seconds:g}s soft "
                        "deadline and was reaped by the watchdog"
                    ),
                    "detail": {
                        "elapsed_seconds": round(elapsed, 3),
                        "current_stage": stage,
                    },
                },
            )
            if not applied:  # finished cleanly in the meantime
                continue
            token.cancel()
            with self._lock:
                self._reaped.add(job_id)
            self._pool.reclaim_slot()
            self.watchdog_timeouts += 1
            self._report_outcome(job_id, success=False)
            reaped.append(job_id)
        return reaped

    def _report_outcome(self, job_id: str, success: bool) -> None:
        """Feed the circuit breaker (keyed on the job's config hash)."""
        if self._breaker is None:
            return
        payload = self._store.payload(job_id)
        key = (payload or {}).get("config_hash") or ""
        if success:
            self._breaker.record_success(key)
        else:
            self._breaker.record_failure(key)

    def _release(self, job_id: str) -> None:
        """Common exit: drop the token, shrink a reclaimed slot."""
        with self._lock:
            self._tokens.pop(job_id, None)
            was_reaped = job_id in self._reaped
            self._reaped.discard(job_id)
        if was_reaped:
            self._pool.release_reclaimed()

    def _cleanup_state(self, job_id: str, checkpointer: Any) -> None:
        """Drop a terminal job's checkpoint + spool (crash state only
        matters for jobs that still have work left)."""
        if checkpointer is None:
            return
        payload = self._store.payload(job_id)
        if payload is not None and payload["state"] not in JobState.TERMINAL:
            return
        try:
            from ..resilience.checkpoint import clear_spool

            checkpointer.clear()
            clear_spool(checkpointer.directory.parent, job_id)
        except Exception:  # cleanup must never poison the pool thread
            pass

    # ------------------------------------------------------------------
    def _run(
        self,
        job_id: str,
        analyzer: Any,
        video: Any,
        annotation: Any,
        seed: int,
        token: CancellationToken,
        checkpointer: Any = None,
    ) -> None:
        store = self._store
        try:
            # A cancel that landed while the job sat in the queue is
            # honoured without ever starting the pipeline.
            if store.cancel_requested(job_id):
                token.cancel()
            stage_names = tuple(getattr(analyzer, "STAGES", ()))
            if not store.mark_running(job_id, total_stages=len(stage_names)):
                return  # cancelled pre-start or evicted
            if token.cancelled:
                store.finish(
                    job_id,
                    JobState.CANCELLED,
                    error={
                        "type": "CancelledError",
                        "message": "job cancelled before it started",
                    },
                )
                return
            instrumentation = Instrumentation(
                sink=JobProgressSink(store, job_id, stage_names)
            )
            # Stub analyzers (tests) keep their narrower signature; the
            # checkpointer kwarg is only threaded when one exists.
            extra = {"checkpointer": checkpointer} if checkpointer else {}
            analysis = analyzer.analyze(
                video,
                annotation=annotation,
                rng=np.random.default_rng(seed),
                instrumentation=instrumentation,
                cancel_token=token,
                **extra,
            )
            if self._metrics is not None and hasattr(analysis, "trace"):
                self._metrics.observe_trace(analysis.trace)
            result = self._serializer(analysis)
            if store.finish(
                job_id,
                JobState.SUCCEEDED,
                result=result,
                degraded=bool(result.get("degraded", False)),
                degradation=result.get("degradation"),
            ):
                self._report_outcome(job_id, success=True)
        except CancelledError as exc:
            store.finish(
                job_id,
                JobState.CANCELLED,
                error={"type": "CancelledError", "message": str(exc)},
            )
        except ReproError as exc:
            if store.finish(
                job_id,
                JobState.FAILED,
                error={"type": type(exc).__name__, "message": str(exc)},
            ):
                self._report_outcome(job_id, success=False)
        except BaseException as exc:  # the pool thread must survive
            if store.finish(
                job_id,
                JobState.FAILED,
                error={"type": "InternalError", "message": str(exc)},
            ):
                self._report_outcome(job_id, success=False)
        finally:
            self._cleanup_state(job_id, checkpointer)
            self._release(job_id)

    @staticmethod
    def _stream_progress(update: Any) -> dict[str, Any]:
        """The job payload's ``provisional`` block for one frame update."""
        return {
            "frames_seen": update.frames_seen,
            "phase": update.phase,
            "pose_box": (
                list(update.pose_box) if update.pose_box is not None else None
            ),
            "estimate": (
                update.provisional.to_dict()
                if update.provisional is not None
                else None
            ),
        }

    def _run_stream(
        self,
        job_id: str,
        analyzer: Any,
        frames: FrameQueue,
        annotation: Any,
        seed: int,
        idle_timeout: float,
        token: CancellationToken,
        checkpointer: Any = None,
        replay: list[Any] | None = None,
        replay_eof: bool = False,
    ) -> None:
        """Drain the frame queue through a streaming analyzer.

        Mirrors :meth:`_run`'s lifecycle and error mapping; the extra
        exits are :class:`StreamIdleTimeout` (no frame and no eof →
        ``failed``, never a leaked pool slot) and a queue closed by
        cancellation (the token raises on the next push or at finish).
        """
        store = self._store
        try:
            if store.cancel_requested(job_id):
                token.cancel()
            stage_names = tuple(getattr(analyzer, "STAGES", ()))
            if not store.mark_running(job_id, total_stages=len(stage_names)):
                return  # cancelled pre-start or evicted
            if token.cancelled:
                store.finish(
                    job_id,
                    JobState.CANCELLED,
                    error={
                        "type": "CancelledError",
                        "message": "job cancelled before it started",
                    },
                )
                return
            instrumentation = Instrumentation(
                sink=JobProgressSink(store, job_id, stage_names)
            )
            extra = {"checkpointer": checkpointer} if checkpointer else {}
            stream = analyzer.open_stream(
                annotation=annotation,
                rng=np.random.default_rng(seed),
                instrumentation=instrumentation,
                cancel_token=token,
                **extra,
            )
            # Recovery replay: frames spooled before a restart rebuild
            # the stream (received count, background model) before any
            # newly pushed ones are consumed.
            for frame in replay or ():
                update = stream.push_frame(frame)
                store.record_frames(job_id, 1)
                store.set_provisional(job_id, self._stream_progress(update))
            if replay_eof:
                store.mark_eof(job_id)
            else:
                while True:
                    frame = frames.get(timeout=idle_timeout)
                    if frame is None:  # eof (or a cancel closed the queue)
                        break
                    update = stream.push_frame(frame)
                    store.set_provisional(
                        job_id, self._stream_progress(update)
                    )
            token.raise_if_cancelled("finish")
            analysis = stream.finish()
            if self._metrics is not None and hasattr(analysis, "trace"):
                self._metrics.observe_trace(analysis.trace)
            result = self._serializer(analysis)
            if store.finish(
                job_id,
                JobState.SUCCEEDED,
                result=result,
                degraded=bool(result.get("degraded", False)),
                degradation=result.get("degradation"),
            ):
                self._report_outcome(job_id, success=True)
        except StreamIdleTimeout as exc:
            if store.finish(
                job_id,
                JobState.FAILED,
                error={"type": "StreamIdleTimeout", "message": str(exc)},
            ):
                self._report_outcome(job_id, success=False)
        except CancelledError as exc:
            store.finish(
                job_id,
                JobState.CANCELLED,
                error={"type": "CancelledError", "message": str(exc)},
            )
        except ReproError as exc:
            if store.finish(
                job_id,
                JobState.FAILED,
                error={"type": type(exc).__name__, "message": str(exc)},
            ):
                self._report_outcome(job_id, success=False)
        except BaseException as exc:  # the pool thread must survive
            if store.finish(
                job_id,
                JobState.FAILED,
                error={"type": "InternalError", "message": str(exc)},
            ):
                self._report_outcome(job_id, success=False)
        finally:
            frames.close()  # further pushes answer "stream closed"
            self._cleanup_state(job_id, checkpointer)
            self._release(job_id)
