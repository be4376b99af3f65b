"""Benchmark harness behind ``slj bench``.

Times the hot paths of the reproduction on a synthetic jump and
reports a machine-readable JSON document (committed as
``BENCH_4.json``):

* ``segmentation`` — frames/sec of the five-step pipeline per
  execution backend (serial / threads);
* ``ga_single_frame`` — one run of the Shoji-style single-frame GA
  (evaluations/sec: fitness rows requested, including those its
  per-silhouette score table answers);
* ``tracking`` — per-frame temporal tracking throughput, read from the
  end-to-end run's stage trace;
* ``end_to_end`` — a full :meth:`JumpAnalyzer.analyze` under the
  configured defaults (the ``optimized`` entry the CI gate reads);
* ``time_to_first_result`` — how long a live stream
  (:meth:`JumpAnalyzer.open_stream`, ``warmup_frames=4``) takes to
  produce its first tracked-frame update, against the batch
  end-to-end latency it replaces;
* ``fitness_batch`` — the population-batched
  :meth:`SilhouetteFitness.evaluate` against a per-chromosome loop
  (evaluations/sec and the batch speedup), each timed repeat on a
  fresh instance so the Eq. 3 kernel runs rather than the score
  table;
* ``localization`` — the temporal attempt-localisation front-stage
  (:func:`repro.localization.localize_attempts`) over a long
  multi-attempt clip with dead time: frames/sec of the scan and
  attempt windows found per second.

The report also records machine info and the config hash, so two
bench files are comparable at a glance.  :func:`compare_to_baseline`
implements the CI gate: fail when end-to-end throughput regresses by
more than the allowed factor against a committed baseline file.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import time
from typing import Any, Callable

import numpy as np

from .executors import BACKENDS, ParallelConfig

#: Bumped when the JSON schema changes shape.
BENCH_VERSION = 1


def machine_info() -> dict[str, Any]:
    """The host facts that make timings comparable across runs."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _with_parallel(config: Any, parallel: ParallelConfig) -> Any:
    return dataclasses.replace(config, parallel=parallel)


def _bench_segmentation(config: Any, video: Any, workers: int) -> dict[str, Any]:
    from ..segmentation.pipeline import SegmentationPipeline

    results: dict[str, Any] = {}
    for backend in BACKENDS:
        parallel = ParallelConfig(backend=backend, workers=workers)
        pipeline = SegmentationPipeline(config.segmentation, parallel=parallel)
        seconds, segmented = _timed(lambda: pipeline.segment_video(video))
        results[backend] = {
            "seconds": round(seconds, 4),
            "frames_per_sec": round(len(segmented) / seconds, 2),
        }
    return {"frames": len(video), "backends": results}


def _bench_ga_single_frame(
    mask: np.ndarray, dims: Any, quick: bool, seed: int
) -> dict[str, Any]:
    from ..ga.engine import GAConfig
    from ..ga.operators import OperatorConfig
    from ..ga.single_frame import SingleFrameConfig, estimate_single_frame

    generations = 40 if quick else 120
    base_ga = GAConfig(
        population_size=60,
        max_generations=generations,
        patience=None,
        operators=OperatorConfig(
            crossover_rate=0.2,
            mutation_rate=0.15,
            center_sigma=3.0,
            angle_sigma=25.0,
        ),
    )
    config = SingleFrameConfig(ga=base_ga)
    seconds, estimate = _timed(
        lambda: estimate_single_frame(
            mask, dims, config, rng=np.random.default_rng(seed)
        )
    )
    evaluations = estimate.search.total_evaluations
    return {
        "generations": generations,
        "seconds": round(seconds, 4),
        "evaluations": evaluations,
        "evaluations_per_sec": round(evaluations / seconds, 1),
        "best_fitness": float(estimate.fitness),
    }


def _analyze_once(
    config: Any, jump: Any, annotation: Any, seed: int
) -> tuple[float, Any]:
    from ..pipeline import JumpAnalyzer

    analyzer = JumpAnalyzer(config)
    return _timed(
        lambda: analyzer.analyze(
            jump.video,
            annotation=annotation,
            rng=np.random.default_rng(seed),
        )
    )


def _bench_time_to_first_result(
    config: Any, jump: Any, annotation: Any, seed: int, batch_seconds: float
) -> dict[str, Any]:
    """Time a live stream's first tracked-frame update vs batch latency.

    ``batch_seconds`` is the already-measured optimised end-to-end
    time: the streaming pitch is that a caller sees a per-frame result
    after only the warmup prefix instead of waiting for the whole
    video, so the headline number is ``first_result_seconds /
    batch_seconds``.
    """
    from ..pipeline import JumpAnalyzer

    warmup = 4
    live_config = dataclasses.replace(
        config,
        streaming=dataclasses.replace(
            config.streaming, warmup_frames=warmup
        ),
    )
    analyzer = JumpAnalyzer(live_config)
    start = time.perf_counter()
    stream = analyzer.open_stream(
        annotation=annotation, rng=np.random.default_rng(seed)
    )
    first_result_seconds = None
    for frame in jump.video:
        update = stream.push_frame(frame)
        if first_result_seconds is None and update.phase == "tracking":
            first_result_seconds = time.perf_counter() - start
    stream.finish()
    total_seconds = time.perf_counter() - start
    if first_result_seconds is None:  # video shorter than the warmup
        first_result_seconds = total_seconds
    return {
        "warmup_frames": warmup,
        "frames": len(jump.video),
        "batch_seconds": round(batch_seconds, 4),
        "first_result_seconds": round(first_result_seconds, 4),
        "stream_total_seconds": round(total_seconds, 4),
        "ratio_vs_batch": round(first_result_seconds / batch_seconds, 4),
    }


def _bench_multi_actor(
    config: Any, seed: int, frames: int, single_seconds: float
) -> dict[str, Any]:
    """Time a 2-actor scene end to end against the single-actor run.

    The headline is ``overhead_vs_single``: a 2-actor analysis runs two
    GA pose trackers plus association, so the honest expectation is
    roughly 2x — this section keeps that factor visible so association
    overhead (the part that is *not* inherent) can't silently grow.
    """
    from ..pipeline import JumpAnalyzer, multi_actor_config
    from ..video.synthesis.multi import (
        MultiActorJumpConfig,
        synthesize_multi_jump,
    )

    actors = 2
    jump = synthesize_multi_jump(
        MultiActorJumpConfig(
            seed=seed, actors=actors, num_frames=max(frames, 8)
        )
    )
    analyzer = JumpAnalyzer(multi_actor_config(config, actors=actors))
    seconds, analysis = _timed(
        lambda: analyzer.analyze(
            jump.video, rng=np.random.default_rng(seed)
        )
    )
    return {
        "actors": actors,
        "frames": len(jump.video),
        "tracks": len(analysis.tracks),
        "seconds": round(seconds, 4),
        "frames_per_sec": round(len(jump.video) / seconds, 3),
        "overhead_vs_single": round(seconds / single_seconds, 3),
    }


def _bench_fitness_batch(
    mask: np.ndarray, dims: Any, quick: bool, seed: int
) -> dict[str, Any]:
    """Population-batched fitness versus a per-chromosome Python loop.

    The GA has evaluated whole ``(P, 10)`` populations in one
    vectorised call since the perf layer landed; this section keeps
    that a measured claim rather than a documentation assertion.  A
    :class:`SilhouetteFitness` remembers every score it computed, so
    each timed repeat gets an instance built before the clock starts.
    """
    from ..ga.population import random_population
    from ..model.fitness import SilhouetteFitness

    population = 64 if quick else 256
    repeats = 3 if quick else 10
    genes = random_population(
        mask, population, rng=np.random.default_rng(seed)
    )
    SilhouetteFitness(mask, dims).evaluate(genes)  # warm caches before timing

    def _fresh() -> list[SilhouetteFitness]:
        return [SilhouetteFitness(mask, dims) for _ in range(repeats)]

    def _batched(instances: list[SilhouetteFitness]) -> np.ndarray:
        for fitness in instances:
            values = fitness.evaluate(genes)
        return values

    def _per_row(instances: list[SilhouetteFitness]) -> np.ndarray:
        for fitness in instances:
            values = np.array(
                [float(fitness.evaluate(row)) for row in genes]
            )
        return values

    batch_instances, row_instances = _fresh(), _fresh()
    batched_seconds, batched_values = _timed(lambda: _batched(batch_instances))
    per_row_seconds, per_row_values = _timed(lambda: _per_row(row_instances))
    evaluations = population * repeats
    return {
        "population": population,
        "repeats": repeats,
        "batched": {
            "seconds": round(batched_seconds, 4),
            "evaluations_per_sec": round(evaluations / batched_seconds, 1),
        },
        "per_row": {
            "seconds": round(per_row_seconds, 4),
            "evaluations_per_sec": round(evaluations / per_row_seconds, 1),
        },
        "batch_speedup": round(per_row_seconds / batched_seconds, 3),
        "identical_values": bool(
            np.array_equal(batched_values, per_row_values)
        ),
    }


def _bench_localization(seed: int, quick: bool) -> dict[str, Any]:
    """Attempt localisation throughput on a long dead-time clip.

    The scan is a whole-video pass (motion energy + centroid track +
    hysteresis segmentation), so the honest unit is frames/sec of long
    clip processed; ``windows_per_sec`` is the headline the ISSUE asks
    for.  The full bench uses a ~300-frame two-attempt clip; ``quick``
    drops to the default 76-frame clip.
    """
    from ..localization import LocalizationConfig, localize_attempts
    from ..video.synthesis.longclip import LongClipConfig, synthesize_long_clip

    clip_config = (
        LongClipConfig(seed=seed)
        if quick
        else LongClipConfig(
            seed=seed,
            attempt_frames=60,
            dead_pre=60,
            dead_between=60,
            dead_post=60,
        )
    )
    clip = synthesize_long_clip(clip_config)
    config = LocalizationConfig(enabled=True)
    repeats = 3 if quick else 5
    localize_attempts(clip.video, config)  # warm caches before timing
    seconds = float("inf")
    for _ in range(repeats):
        attempt, result = _timed(lambda: localize_attempts(clip.video, config))
        seconds = min(seconds, attempt)
    return {
        "frames": len(clip.video),
        "attempts_truth": len(clip.windows),
        "windows_found": len(result.windows),
        "seconds": round(seconds, 4),
        "frames_per_sec": round(len(clip.video) / seconds, 2),
        "windows_per_sec": round(len(result.windows) / seconds, 2),
    }


def run_bench(
    config: Any = None,
    *,
    frames: int = 24,
    workers: int = 4,
    seed: int = 3,
    quick: bool = False,
) -> dict[str, Any]:
    """Run every bench section and return the JSON-ready report.

    ``config`` defaults to the ``fast`` preset.  ``quick`` trims the
    single-frame GA, fitness and localisation budgets so the bench
    finishes in well under a minute — the CI smoke mode.  Frame
    count is the caller's choice: a regression gate must measure at the
    baseline's frame count, because fixed per-run costs amortise
    differently across video lengths.
    """
    from ..config import config_hash, get_preset
    from ..model.annotation import simulate_human_annotation
    from ..video.synthesis.dataset import SyntheticJumpConfig, synthesize_jump
    from ..video.synthesis.motion import JumpParameters

    if config is None:
        config = get_preset("fast")
    frames = max(frames, 4)  # a jump needs at least 4 frames

    jump = synthesize_jump(
        SyntheticJumpConfig(seed=seed, params=JumpParameters(num_frames=frames))
    )
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(seed),
    )

    sections: dict[str, Any] = {}
    sections["segmentation"] = _bench_segmentation(config, jump.video, workers)
    sections["ga_single_frame"] = _bench_ga_single_frame(
        jump.person_masks[0], jump.dims, quick, seed
    )
    sections["fitness_batch"] = _bench_fitness_batch(
        jump.person_masks[0], jump.dims, quick, seed
    )
    sections["localization"] = _bench_localization(seed, quick)

    # Optimised: the defaults, with the requested worker count.
    optimized_config = _with_parallel(
        config,
        dataclasses.replace(config.parallel, workers=workers)
        if not config.parallel.is_serial
        else config.parallel,
    )
    optimized_seconds, analysis = _analyze_once(
        optimized_config, jump, annotation, seed
    )

    tracking_timing = analysis.trace.timing("tracking")
    tracking_seconds = tracking_timing.seconds if tracking_timing else 0.0
    sections["tracking"] = {
        "seconds": round(tracking_seconds, 4),
        "frames_per_sec": round(frames / tracking_seconds, 2)
        if tracking_seconds
        else None,
        "fitness_evaluations": analysis.trace.counters.get("ga.evaluations"),
    }
    sections["end_to_end"] = {
        "optimized": {
            "seconds": round(optimized_seconds, 4),
            "frames_per_sec": round(frames / optimized_seconds, 3),
        },
    }
    sections["time_to_first_result"] = _bench_time_to_first_result(
        optimized_config, jump, annotation, seed, optimized_seconds
    )
    sections["multi_actor"] = _bench_multi_actor(
        optimized_config, seed, frames, optimized_seconds
    )

    return {
        "bench_version": BENCH_VERSION,
        "machine": machine_info(),
        "params": {
            "frames": frames,
            "workers": workers,
            "seed": seed,
            "quick": quick,
        },
        "config_hash": config_hash(config),
        "sections": sections,
    }


def compare_to_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 2.0,
) -> tuple[bool, str]:
    """CI gate: has end-to-end throughput regressed too far?

    Returns ``(ok, message)``.  The run fails only when the current
    optimised frames/sec falls more than ``max_regression``× below the
    committed baseline — loose enough to absorb shared-runner noise,
    tight enough to catch a real performance cliff.
    """
    try:
        committed = float(
            baseline["sections"]["end_to_end"]["optimized"]["frames_per_sec"]
        )
        measured = float(
            current["sections"]["end_to_end"]["optimized"]["frames_per_sec"]
        )
    except (KeyError, TypeError) as exc:
        return False, f"baseline file is missing end-to-end throughput: {exc}"
    floor = committed / max_regression
    message = (
        f"end-to-end {measured:.3f} frames/sec vs committed "
        f"{committed:.3f} (floor {floor:.3f} at {max_regression:g}x allowed "
        "regression)"
    )
    return measured >= floor, message
