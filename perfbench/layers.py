"""Per-layer metrics computed from the traced run's span records.

Each metric names the span that must have run for its layer to be
present on a workload; a layer that did not run is reported absent,
never as zero.  Seconds are self time per operation (per request, or
per pushed frame on ``two_actor_live``), except the inclusive
``jobs.submit_s``, ``pipeline.analyze_s``, ``perf.fanout_s``,
``segmentation.wall_s``, ``segmentation.busy_s``,
``segmentation.background_s``, ``ga.frame_s`` and
``streaming.finish_s``.  Counts are per operation; metrics with
``per_op=False`` are per request or per clip.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable


class Unit:
    """Span totals and counters of one unit (a request or a clip)."""

    def __init__(self, records: list[Any], norm: int, extra: dict[str, float]) -> None:
        self.norm = norm
        self.extra = extra
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {"op.root_self": 0.0}
        for record in records:
            for name, (calls, incl, own) in record.totals.items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += own
            for name, value in record.counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            self.counters["op.root_self"] += record.root_self

    def calls(self, *names: str) -> float:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def incl(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def own(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    #: Span that must have run for the metric to be present.
    requires: str
    value: Callable[[Unit], float]
    #: Divide by the unit's operation count (else: per request/clip).
    per_op: bool = True


def _ratio(num: Callable[[Unit], float], den: Callable[[Unit], float]):
    def value(u: Unit) -> float:
        bottom = den(u)
        return num(u) / bottom if bottom else 0.0

    return value


def _own(*names):
    return lambda u: u.own(*names)


def _incl(*names):
    return lambda u: u.incl(*names)


def _calls(*names):
    return lambda u: u.calls(*names)


def _count(name):
    return lambda u: u.count(name)


def _extra(name):
    return lambda u: u.extra[name]


M = LayerMetric
METRICS: tuple[LayerMetric, ...] = (
    # service: repro.service, repro.client, repro.serialization
    M("service.decode_s", "s", "service.decode", _own("service.decode")),
    M("service.queue_wait_s", "s", "service.decode", _incl("service.queue_wait")),
    M("service.payload_s", "s", "service.payload", _own("service.payload")),
    # The request minus decode, queue wait, analyze and payload.
    M("service.overhead_s", "s", "service.decode",
      lambda u: u.count("op.root_self") + u.own("client.analyze")),
    M("service.request_mb", "MB", "service.decode", _extra("service.request_mb"), False),
    M("service.response_kb", "kB", "service.decode", _extra("service.response_kb"), False),
    M("service.cache_hit_frac", "frac", "service.decode",
      _extra("service.cache_hit_frac"), False),
    # jobs: repro.jobs
    M("jobs.submit_s", "s", "jobs.submit", _incl("jobs.submit")),
    M("jobs.polls", "count", "jobs.poll", _calls("jobs.poll")),
    # pipeline, runtime: repro.pipeline, repro.runtime
    M("pipeline.analyze_s", "s", "pipeline.analyze", _incl("pipeline.analyze")),
    M("runtime.self_s", "s", "runtime.run",
      _own("pipeline.analyze", "runtime.finish_batch", "runtime.run")),
    # perf: repro.perf.executors
    M("perf.fanout_s", "s", "perf.fanout", _incl("perf.fanout")),
    M("perf.fanout_tasks", "count", "perf.fanout", _count("perf.fanout_tasks")),
    M("perf.fanout_efficiency", "frac", "perf.fanout",
      _ratio(_incl("perf.task"), _count("perf.fanout_capacity_s")), False),
    # segmentation, imaging
    M("segmentation.frames", "count", "segmentation.subtract",
      _count("segmentation.frames")),
    M("segmentation.wall_s", "s", "segmentation.subtract",
      _incl("segmentation.segment_video", "segmentation.segment")),
    M("segmentation.busy_s", "s", "segmentation.subtract",
      _incl("perf.task", "segmentation.segment")),
    M("segmentation.background_s", "s", "segmentation.subtract",
      lambda u: u.own("segmentation.fit") + u.incl("segmentation.freeze")),
    M("segmentation.subtract_s", "s", "segmentation.subtract",
      _own("segmentation.subtract")),
    M("segmentation.noise_removal_s", "s", "segmentation.noise_removal",
      _own("segmentation.noise_removal")),
    M("segmentation.spot_removal_s", "s", "segmentation.spot_removal",
      _own("segmentation.spot_removal")),
    M("segmentation.hole_fill_s", "s", "segmentation.hole_fill",
      _own("segmentation.hole_fill")),
    M("segmentation.shadow_s", "s", "segmentation.shadow", _own("segmentation.shadow")),
    M("imaging.components_s", "s", "imaging.components", _own("imaging.components")),
    # model: repro.model
    M("model.annotate_s", "s", "model.annotate", _own("model.annotate")),
    M("model.fitness_calls", "count", "model.fitness", _calls("model.fitness")),
    M("model.fitness_rows_per_call", "count", "model.fitness",
      _ratio(_count("model.fitness_rows"), _calls("model.fitness")), False),
    M("model.fitness_s", "s", "model.fitness", _own("model.fitness")),
    M("model.fitness_setup_s", "s", "model.fitness_setup", _own("model.fitness_setup")),
    M("model.containment_calls", "count", "model.containment",
      _calls("model.containment")),
    M("model.containment_rows_per_call", "count", "model.containment",
      _ratio(_count("model.containment_rows"), _calls("model.containment")), False),
    M("model.containment_s", "s", "model.containment", _own("model.containment")),
    M("model.containment_setup_s", "s", "model.containment_setup",
      _own("model.containment_setup")),
    M("model.containment_reject_frac", "frac", "model.containment",
      _ratio(_count("model.containment_rejects"), _count("model.containment_rows")),
      False),
    # ga: repro.ga
    M("ga.frames", "count", "ga.step", _calls("ga.step")),
    M("ga.frame_s", "s", "ga.step", _incl("ga.step")),
    # Limb-rescue grid, pose conversion, recovery-ladder bookkeeping.
    M("ga.estimate_self_s", "s", "ga.step", _own("ga.estimate", "ga.step")),
    M("ga.engine_self_s", "s", "ga.engine", _own("ga.engine")),
    M("ga.generations", "count", "ga.engine", _count("ga.generations")),
    M("ga.evaluations", "count", "ga.engine", _count("ga.evaluations")),
    M("ga.best_generation_frac", "frac", "ga.engine",
      _ratio(_count("ga.best_generation_frac_sum"), _count("ga.runs")), False),
    M("ga.rejected_offspring_frac", "frac", "ga.engine",
      _ratio(_count("ga.rejected"), _count("ga.bred")), False),
    M("ga.operator_calls", "count", "ga.crossover", _calls("ga.crossover", "ga.mutate")),
    M("ga.operators_s", "s", "ga.crossover", _own("ga.crossover", "ga.mutate")),
    M("ga.population_s", "s", "ga.population", _own("ga.population")),
    M("ga.polish_s", "s", "ga.polish", _own("ga.polish")),
    M("ga.recovered_frames", "count", "ga.step", _count("ga.recovered_frames")),
    # tracking: repro.tracking
    M("tracking.steps", "count", "tracking.step", _calls("tracking.step")),
    M("tracking.step_self_s", "s", "tracking.step", _own("tracking.step")),
    M("tracking.associate_s", "s", "tracking.associate", _own("tracking.associate")),
    M("tracking.tracks", "count", "tracking.step", _extra("tracking.tracks"), False),
    # streaming: repro.streaming (live streams only)
    M("streaming.push_self_s", "s", "streaming.push", _own("streaming.push")),
    M("streaming.finish_s", "s", "streaming.finish", _incl("streaming.finish"), False),
    # analysis, scoring: repro.analysis, repro.scoring, repro.profiles
    M("analysis.events_calls", "count", "analysis.events", _calls("analysis.events")),
    M("analysis.events_s", "s", "analysis.events", _own("analysis.events")),
    M("analysis.smoothing_s", "s", "analysis.smoothing", _own("analysis.smoothing")),
    M("scoring.score_calls", "count", "scoring.score", _calls("scoring.score")),
    M("scoring.score_s", "s", "scoring.score", _own("scoring.score")),
)

#: Counts that depend on timing, so they may differ between two runs.
TIMING_DEPENDENT = frozenset({"jobs.polls", "perf.fanout_efficiency"})

#: The parts ``ga.frame_s`` splits into on the single-jumper workloads.
GA_FRAME_PARTS = (
    "model.fitness_s", "model.fitness_setup_s", "model.containment_s",
    "model.containment_setup_s", "ga.operators_s", "ga.population_s",
    "ga.polish_s", "ga.estimate_self_s", "ga.engine_self_s",
)


def layer_metrics(units: list[Unit]) -> dict[str, dict[str, Any]]:
    """``name -> {"value", "unit"}`` for every layer that ran.

    Times are the mean over units, so additive splits hold; counts and
    fractions are the median over units, which equals every unit's
    value when the counts repeat exactly.
    """
    ran = {name for unit in units for name, entry in unit.totals.items() if entry[0]}
    metrics: dict[str, dict[str, Any]] = {}
    for metric in METRICS:
        if metric.requires not in ran:
            continue
        values = []
        for unit in units:
            value = metric.value(unit)
            values.append(value / unit.norm if metric.per_op else value)
        if metric.unit == "s":
            value = statistics.fmean(values)
        else:
            value = statistics.median(values)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return metrics
