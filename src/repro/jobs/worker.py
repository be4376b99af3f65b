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
from .stream import FrameQueue
from ..errors import CancelledError, ReproError
from ..perf.pool import WorkerPool
from ..resilience import clear_spool
from ..runtime import CancellationToken, Instrumentation
from ..runtime.instrumentation import SpanEvent
from ..serialization import analysis_payload

#: What a job runs between ``mark_running`` and ``finish``: called with
#: the job's progress-reporting instrumentation and its cancellation
#: token, it returns the analysis the serializer turns into the result.
JobBody = Callable[[Instrumentation, CancellationToken], Any]


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

    ``spool_dir`` is the manager's ``checkpoint_dir``: a job's input
    spool under it is deleted once the job is terminal.
    """

    def __init__(
        self,
        pool: WorkerPool,
        store: JobStore,
        metrics: Any | None = None,
        serializer: Callable[[Any], dict[str, Any]] = analysis_payload,
        breaker: Any | None = None,
        spool_dir: str | None = None,
    ) -> None:
        self._pool = pool
        self._store = store
        self._metrics = metrics
        self._serializer = serializer
        self._breaker = breaker
        self._spool_dir = spool_dir
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
    ) -> Future:
        """Queue one job; returns its pool future at once.

        The future resolves (to ``None``) when the job's run returns,
        by which time its record is terminal; a client waiting on it
        reads the outcome from the store.
        """

        def body(
            instrumentation: Instrumentation, token: CancellationToken
        ) -> Any:
            return analyzer.analyze(
                video,
                annotation=annotation,
                rng=np.random.default_rng(seed),
                instrumentation=instrumentation,
                cancel_token=token,
            )

        return self._submit(job_id, analyzer, body)

    def submit_stream(
        self,
        job_id: str,
        analyzer: Any,
        frames: FrameQueue,
        annotation: Any = None,
        seed: int = 0,
        idle_timeout: float = 30.0,
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

        Beyond the batch lifecycle, a stream fails with
        :class:`~repro.jobs.stream.StreamIdleTimeout` when no frame and
        no eof arrive for ``idle_timeout`` seconds (never a leaked pool
        slot), and a cancel closes the queue, so the token raises at
        the next push or at finish.  The queue is closed whichever way
        the job ends.
        """
        store = self._store

        def body(
            instrumentation: Instrumentation, token: CancellationToken
        ) -> Any:
            stream = analyzer.open_stream(
                annotation=annotation,
                rng=np.random.default_rng(seed),
                instrumentation=instrumentation,
                cancel_token=token,
            )
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
            return stream.finish()

        # Further pushes answer "stream closed".
        self._submit(job_id, analyzer, body, on_exit=frames.close)

    def _submit(
        self,
        job_id: str,
        analyzer: Any,
        body: JobBody,
        on_exit: Callable[[], None] | None = None,
    ) -> Future:
        """Register the job's token and queue its :meth:`_run`."""
        token = CancellationToken()
        with self._lock:
            self._tokens[job_id] = token
        return self._pool.submit(
            self._run, job_id, analyzer, token, body, on_exit
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

    def _clear_spool(self, job_id: str) -> None:
        """Drop a terminal job's input spool (crash state only matters
        for jobs that still have work left)."""
        if self._spool_dir is None:
            return
        payload = self._store.payload(job_id)
        if payload is not None and payload["state"] not in JobState.TERMINAL:
            return
        clear_spool(self._spool_dir, job_id)

    def _fail(self, job_id: str, error_type: str, message: str) -> None:
        if self._store.finish(
            job_id,
            JobState.FAILED,
            error={"type": error_type, "message": message},
        ):
            self._report_outcome(job_id, success=False)

    # ------------------------------------------------------------------
    def _run(
        self,
        job_id: str,
        analyzer: Any,
        token: CancellationToken,
        body: JobBody,
        on_exit: Callable[[], None] | None,
    ) -> None:
        """One job's lifecycle around ``body``, batch or stream alike."""
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
            analysis = body(
                Instrumentation(
                    sink=JobProgressSink(store, job_id, stage_names)
                ),
                token,
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
        except ReproError as exc:  # StreamIdleTimeout included
            self._fail(job_id, type(exc).__name__, str(exc))
        except BaseException as exc:  # the pool thread must survive
            self._fail(job_id, "InternalError", str(exc))
        finally:
            if on_exit is not None:
                on_exit()
            self._clear_spool(job_id)
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
