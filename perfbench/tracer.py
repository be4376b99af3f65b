"""Outside-in span recorder for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces the public entry points of each layer (module functions,
class methods, the movement profiles' event detector and the job
workers' serializer) with timing wrappers, and
:meth:`Installation.undo` puts the originals back.

Accounting rules:

* Exactly one operation is in flight, so every span recorded between
  :meth:`SpanRecorder.begin_op` and :meth:`SpanRecorder.end_op` belongs
  to that operation, whichever thread records it.
* Each thread keeps its own span stack.  A span's self time is its
  duration minus the durations of its children.
* A span that opens on an empty stack in another thread (the HTTP
  handler decoding the body, the ``slj-worker`` thread running the
  analysis) is a child of the innermost span open on the operation's
  own thread: the blocking call that caused it.
* While a ``parallel_map`` fan-out is open, a span that opens on an
  empty stack in another thread is pool work.  It is busy time tagged
  to the fan-out and is never subtracted from the fan-out's wall time.
* "Transparent" spans (job submit round trip, status polls) only
  count calls and inclusive time; they take no part in self time.

With these rules the self times of an operation's blocking spans sum
to its wall time, and a negative self time would expose two children
that overlap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from typing import Any, Callable

import numpy as np


class OpRecord:
    """Spans and counters of one operation."""

    __slots__ = (
        "t0", "t1", "root", "root_stack", "totals", "counters",
        "decode_end", "blocking_self", "min_self",
    )

    def __init__(self) -> None:
        self.t0 = 0.0
        self.t1 = 0.0
        #: A frame is ``[name, start, child seconds, is pool work]``.
        self.root: list = ["op", 0.0, 0.0, False]
        self.root_stack: list = []
        #: span name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.decode_end: float | None = None
        #: Summed self time of every span on the blocking path.
        self.blocking_self = 0.0
        self.min_self = 0.0

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def root_self(self) -> float:
        return self.wall - self.root[2]


class SpanRecorder:
    """Per-thread span stacks feeding per-operation totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: OpRecord | None = None
        self._fanout: list | None = None
        self._fanout_thread: int | None = None

    # -- operations ----------------------------------------------------
    def begin_op(self) -> OpRecord:
        op = OpRecord()
        stack = self._stack()
        if stack:
            raise RuntimeError("an operation is already open on this thread")
        op.root_stack = stack
        stack.append(op.root)
        self.op = op
        op.t0 = op.root[1] = time.perf_counter()
        return op

    def end_op(self) -> OpRecord:
        op = self.op
        op.t1 = time.perf_counter()
        self.op = None
        op.root_stack.pop()
        op.min_self = min(op.min_self, op.root_self)
        return op

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # -- span bookkeeping ----------------------------------------------
    def _parent(self, stack: list, op: OpRecord) -> tuple[list, bool]:
        """``(parent frame, is pool work)`` for a span about to open."""
        if stack:
            return stack[-1], stack[-1][3]
        fanout = self._fanout
        if fanout is not None and threading.get_ident() != self._fanout_thread:
            return fanout, True
        return (op.root_stack[-1] if op.root_stack else op.root), False

    def _close(
        self,
        op: OpRecord,
        name: str,
        duration: float,
        frame: list,
        parent: list,
    ) -> None:
        own = duration - frame[2]
        with self._lock:
            entry = op.totals.get(name)
            if entry is None:
                op.totals[name] = [1, duration, own]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
            if frame[3]:
                # Pool work: busy time beside the fan-out, never
                # subtracted from the fan-out's wall time.
                if parent[3]:
                    parent[2] += duration
                return
            parent[2] += duration
            op.blocking_self += own
            if own < op.min_self:
                op.min_self = own

    def add(self, name: str, value: float) -> None:
        """Add to a counter of the operation in flight (if any)."""
        op = self.op
        if op is not None:
            with self._lock:
                op.counters[name] = op.counters.get(name, 0.0) + value

    # -- wrappers ------------------------------------------------------
    def span(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        on_result: Callable[["SpanRecorder", tuple, Any], None] | None = None,
        on_start: Callable[["SpanRecorder", OpRecord, list, float], None] | None = None,
        on_end: Callable[["SpanRecorder", OpRecord, float], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call inside an operation records a span.

        ``name`` may be a callable of the call's arguments.
        """
        recorder = self
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = recorder.op
            if op is None:
                return fn(*args, **kwargs)
            span_name = fixed or name(*args, **kwargs)
            stack = recorder._stack()
            parent, pool = recorder._parent(stack, op)
            frame = [span_name, 0.0, 0.0, pool]
            stack.append(frame)
            start = frame[1] = clock()
            if on_start is not None and not pool:
                on_start(recorder, op, parent, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder._close(op, span_name, end - start, frame, parent)
                if on_end is not None:
                    on_end(recorder, op, end)
            if on_result is not None:
                on_result(recorder, args, result)
            return result

        return wrapper

    def transparent(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count calls and inclusive time only.

        For calls that overlap the work they wait for (the job submit
        round trip, status polls): they take no part in self time.
        """
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = recorder.op
            if op is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                with recorder._lock:
                    entry = op.totals.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += clock() - start

        return wrapper

    def parallel_map(self, fn: Callable) -> Callable:
        """Wrap ``repro.perf.executors.parallel_map`` as a fan-out span.

        Each task runs under a ``perf.task`` span, so pool threads
        report their busy time; the fan-out records its task count and
        its capacity (wall time x workers) for the efficiency ratio.
        """
        recorder = self
        clock = time.perf_counter
        task_span = self.span("perf.task", lambda task, item: task(item))

        @functools.wraps(fn)
        def wrapper(task, items, config=None, **kwargs):
            op = recorder.op
            if op is None:
                return fn(task, items, config, **kwargs)
            work = list(items)
            workers = 1
            if config is not None and not config.is_serial:
                workers = config.pool_size(len(work))
            traced_task = task
            if config is None or config.backend != "processes":
                # Threads share this process, so the task itself is
                # timed; a process pool would need a picklable task.
                traced_task = functools.partial(task_span, task)
            stack = recorder._stack()
            parent, pool = recorder._parent(stack, op)
            frame = ["perf.fanout", 0.0, 0.0, pool]
            stack.append(frame)
            start = frame[1] = clock()
            recorder._fanout, recorder._fanout_thread = frame, threading.get_ident()
            try:
                return fn(traced_task, work, config, **kwargs)
            finally:
                end = clock()
                recorder._fanout = recorder._fanout_thread = None
                stack.pop()
                recorder._close(op, "perf.fanout", end - start, frame, parent)
                recorder.add("perf.fanout_tasks", len(work))
                recorder.add("perf.fanout_capacity_s", (end - start) * workers)

        return wrapper


# ----------------------------------------------------------------------
# Result hooks: counts measured where the work happens.
# ----------------------------------------------------------------------
def _fitness_rows(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("model.fitness_rows", np.atleast_1d(result).size)


def _containment_rows(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    verdicts = np.atleast_1d(result)
    recorder.add("model.containment_rows", verdicts.size)
    recorder.add("model.containment_rejects", int(verdicts.size - verdicts.sum()))


def _ga_run(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    engine = args[0]
    generations = len(result.history) - 1
    config = engine.config
    recorder.add("ga.runs", 1)
    recorder.add("ga.generations", generations)
    recorder.add("ga.evaluations", result.total_evaluations)
    recorder.add("ga.rejected", result.rejected_offspring)
    recorder.add(
        "ga.bred", generations * (config.population_size - config.elite_count)
    )
    if generations:
        recorder.add("ga.best_generation_frac_sum", result.generation_of_best / generations)


def _session_step(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    _, health = result
    if not health.healthy:
        recorder.add("ga.recovered_frames", 1)


def _segmented_video(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("segmentation.frames", len(result))


def _segmented_frame(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.add("segmentation.frames", 1)


def _decode_done(recorder: SpanRecorder, op: OpRecord, end: float) -> None:
    op.decode_end = end


def _analyze_start(
    recorder: SpanRecorder, op: OpRecord, parent: list, start: float
) -> None:
    """Record the queue wait from the end of decode to this start."""
    if op.decode_end is None:
        return
    frame = ["service.queue_wait", op.decode_end, 0.0, False]
    op.decode_end = None
    recorder._close(op, "service.queue_wait", start - frame[1], frame, parent)


def _finish_name(stream: Any) -> str:
    # A batch-mode stream's finish() *is* JumpAnalyzer.analyze's
    # pipeline glue; only a live stream's finish belongs to streaming.
    return "streaming.finish" if stream.live else "runtime.finish_batch"


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class Installation:
    """The patches applied by :func:`install`, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    @staticmethod
    def _assign(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, (type, types.ModuleType)):
            setattr(owner, attr, value)
        else:  # instances, including frozen dataclasses (profiles)
            object.__setattr__(owner, attr, value)

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        self._assign(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            self._assign(*self._undo.pop())


def _patch_function(inst: Installation, original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module global and profile field at ``wrapper``."""
    from repro.profiles import MOVEMENT_PROFILES

    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                inst.set(module, attr, wrapper)
                replaced += 1
    for profile_name in MOVEMENT_PROFILES.names():
        profile = MOVEMENT_PROFILES.get(profile_name)
        for field in getattr(type(profile), "__dataclass_fields__", {}):
            if getattr(profile, field) is original:
                inst.set(profile, field, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no reference to {original.__qualname__} to trace")


def install(recorder: SpanRecorder, service_handle: Any = None) -> Installation:
    """Wrap every traced public call; ``service_handle`` gets its job
    serializer wrapped too (it was bound when the handle was built)."""
    import repro.analysis.events as events
    import repro.ga.operators as operators
    import repro.ga.population as population
    import repro.ga.refine as refine
    import repro.imaging.components as components
    import repro.model.annotation as annotation
    import repro.perf.executors as executors
    import repro.segmentation.cleanup as cleanup
    import repro.segmentation.shadow as shadow
    import repro.segmentation.subtraction as subtraction
    import repro.serialization as serialization
    import repro.service as service
    import repro.tracking.association as association
    from repro.analysis.trajectory import PoseTrajectory
    from repro.client import ServiceClient
    from repro.ga.engine import GeneticAlgorithm
    from repro.ga.temporal import TemporalPoseTracker, TrackingSession
    from repro.model.containment import ContainmentChecker
    from repro.model.fitness import SilhouetteFitness
    from repro.pipeline import JumpAnalyzer
    from repro.runtime.runner import PipelineRunner
    from repro.scoring.report import JumpScorer
    from repro.segmentation.online import WarmupBackgroundModel
    from repro.segmentation.pipeline import SegmentationPipeline
    from repro.streaming.analyzer import StreamingAnalyzer
    from repro.tracking.manager import TrackManager

    inst = Installation()
    span = recorder.span

    inst.set(ServiceClient, "submit",
             recorder.transparent("jobs.submit", vars(ServiceClient)["submit"]))
    inst.set(ServiceClient, "job",
             recorder.transparent("jobs.poll", vars(ServiceClient)["job"]))
    methods = (
        (ServiceClient, "analyze", "client.analyze", {}),
        (JumpAnalyzer, "analyze", "pipeline.analyze", {"on_start": _analyze_start}),
        (PipelineRunner, "run", "runtime.run", {}),
        (StreamingAnalyzer, "push_frame", "streaming.push", {}),
        (StreamingAnalyzer, "finish", _finish_name, {}),
        (SegmentationPipeline, "segment_video", "segmentation.segment_video",
         {"on_result": _segmented_video}),
        (SegmentationPipeline, "segment", "segmentation.segment",
         {"on_result": _segmented_frame}),
        (SegmentationPipeline, "fit", "segmentation.fit", {}),
        (WarmupBackgroundModel, "freeze", "segmentation.freeze", {}),
        (SilhouetteFitness, "__init__", "model.fitness_setup", {}),
        (SilhouetteFitness, "evaluate", "model.fitness", {"on_result": _fitness_rows}),
        (ContainmentChecker, "__init__", "model.containment_setup", {}),
        (ContainmentChecker, "check", "model.containment",
         {"on_result": _containment_rows}),
        (TemporalPoseTracker, "estimate_frame", "ga.estimate", {}),
        (TrackingSession, "step", "ga.step", {"on_result": _session_step}),
        (GeneticAlgorithm, "run", "ga.engine", {"on_result": _ga_run}),
        (TrackManager, "step", "tracking.step", {}),
        (PoseTrajectory, "median_filtered", "analysis.smoothing", {}),
        (JumpScorer, "score", "scoring.score", {}),
    )
    for owner, attr, name, hooks in methods:
        inst.set(owner, attr, span(name, vars(owner)[attr], **hooks))

    functions = (
        (service.decode_video, "service.decode", {"on_end": _decode_done}),
        (serialization.analysis_payload, "service.payload", {}),
        (subtraction.subtract_background, "segmentation.subtract", {}),
        (cleanup.step_noise_removal, "segmentation.noise_removal", {}),
        (cleanup.step_spot_removal, "segmentation.spot_removal", {}),
        (cleanup.step_hole_fill, "segmentation.hole_fill", {}),
        (shadow.remove_shadows, "segmentation.shadow", {}),
        (components.label_components, "imaging.components", {}),
        (annotation.auto_annotate, "model.annotate", {}),
        (population.temporal_population, "ga.population", {}),
        (operators.grouped_crossover, "ga.crossover", {}),
        (operators.mutate, "ga.mutate", {}),
        (refine.local_polish, "ga.polish", {}),
        (association.associate, "tracking.associate", {}),
        (events.detect_events, "analysis.events", {}),
    )
    payload = serialization.analysis_payload
    wrappers: dict[Callable, Callable] = {}
    for original, name, hooks in functions:
        wrappers[original] = span(name, original, **hooks)
        _patch_function(inst, original, wrappers[original])
    _patch_function(
        inst, executors.parallel_map, recorder.parallel_map(executors.parallel_map)
    )
    if service_handle is not None:
        # JobWorkerPool bound analysis_payload as a default argument.
        inst.set(service_handle.jobs.workers, "_serializer", wrappers[payload])
    return inst
