"""Tests for the composable stage runtime and its observability layer."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig, JumpAnalyzer
from repro.runtime import (
    FunctionStage,
    Instrumentation,
    LoggingSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    PipelineRunner,
    RunTrace,
    StageTiming,
    stage,
)


def _fast_analyzer():
    return JumpAnalyzer(
        AnalyzerConfig(
            tracker=TrackerConfig(
                ga=GAConfig(population_size=20, max_generations=6, patience=3),
                fitness=FitnessConfig(max_points=300),
                containment_margin=1,
                min_inside_fraction=0.95,
                containment_samples=7,
            )
        )
    )


class TestPipelineRunner:
    def test_stage_ordering_and_value_threading(self):
        seen = []

        def make(name):
            def fn(value, ctx):
                seen.append(name)
                return value + [name]

            return FunctionStage(name, fn)

        runner = PipelineRunner([make("a"), make("b"), make("c")])
        outcome = runner.run([])
        assert seen == ["a", "b", "c"]
        assert outcome.value == ["a", "b", "c"]
        assert outcome.trace.stage_names == ("a", "b", "c")

    def test_artifacts_flow_between_stages(self):
        producer = FunctionStage(
            "produce", lambda v, ctx: ctx.artifacts.__setitem__("x", 41) or v
        )
        consumer = FunctionStage(
            "consume", lambda v, ctx: ctx.require("x") + 1
        )
        outcome = PipelineRunner([producer, consumer]).run(None)
        assert outcome.value == 42

    def test_missing_artifact_is_a_clear_error(self):
        needy = FunctionStage("needy", lambda v, ctx: ctx.require("absent"))
        with pytest.raises(ConfigurationError, match="absent"):
            PipelineRunner([needy]).run(None)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineRunner([])

    def test_duplicate_stage_names_rejected(self):
        a = FunctionStage("same", lambda v, ctx: v)
        b = FunctionStage("same", lambda v, ctx: v)
        with pytest.raises(ConfigurationError, match="same"):
            PipelineRunner([a, b])

    def test_non_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineRunner([object()])

    def test_timing_monotonicity(self):
        def sleepy(value, ctx):
            time.sleep(0.01)
            return value

        runner = PipelineRunner(
            [FunctionStage("s1", sleepy), FunctionStage("s2", sleepy)]
        )
        trace = runner.run(None).trace
        assert trace.seconds("s1") >= 0.01
        assert trace.seconds("s2") >= 0.01
        # the whole run takes at least as long as its stages combined
        assert trace.total_seconds >= trace.seconds("s1") + trace.seconds("s2")

    def test_stage_decorator(self):
        @stage("double")
        def double(value, ctx):
            return value * 2

        assert double.name == "double"
        assert PipelineRunner([double]).run(21).value == 42

    def test_exception_propagates(self):
        def boom(value, ctx):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            PipelineRunner([FunctionStage("boom", boom)]).run(None)


class TestInstrumentation:
    def test_span_accumulates_across_calls(self):
        inst = Instrumentation()
        for _ in range(3):
            with inst.span("work"):
                pass
        timings = {t.name: t for t in inst.timings()}
        assert timings["work"].calls == 3
        assert timings["work"].seconds >= 0.0

    def test_counter_accumulation(self):
        inst = Instrumentation()
        inst.count("ga.evaluations", 60)
        inst.count("ga.evaluations", 40)
        inst.count("ga.runs")
        assert inst.counter("ga.evaluations") == 100
        assert inst.counter("ga.runs") == 1
        assert inst.counter("missing", default=-1) == -1

    def test_memory_sink_captures_everything(self):
        sink = MemorySink()
        inst = Instrumentation(sink)
        with inst.span("seg", frame=3):
            pass
        inst.count("pixels", 17)
        inst.event("converged", generation=2)

        (span,) = sink.spans()
        assert span.name == "seg" and span.value >= 0.0
        assert span.field_dict() == {"frame": 3}
        (counter,) = sink.counters()
        assert counter.name == "pixels" and counter.value == 17
        (event,) = sink.named("converged")
        assert event.kind == "event"
        assert event.field_dict() == {"generation": 2}

    def test_logging_sink_emits_records(self, caplog):
        import logging

        sink = LoggingSink(logging.getLogger("repro.test"), logging.INFO)
        inst = Instrumentation(sink)
        with caplog.at_level("INFO", logger="repro.test"):
            with inst.span("seg"):
                pass
            inst.count("pixels", 3)
            inst.event("done", ok=True)
        messages = " ".join(record.getMessage() for record in caplog.records)
        assert "span seg" in messages
        assert "counter pixels" in messages
        assert "event done" in messages

    def test_null_sink_primitives_are_cheap(self):
        inst = Instrumentation(NullSink())
        start = time.perf_counter()
        for _ in range(1000):
            with inst.span("hot"):
                pass
            inst.count("hot.counter")
        elapsed = time.perf_counter() - start
        # ~2µs per span+counter pair; 1000 pairs must stay far below
        # anything measurable against a multi-second analysis run.
        assert elapsed < 0.25

    def test_trace_snapshot(self):
        inst = Instrumentation()
        with inst.span("a"):
            pass
        inst.count("n", 2)
        trace = inst.trace(stages=(StageTiming("a", 0.5),), total_seconds=0.5)
        assert isinstance(trace, RunTrace)
        assert trace.stage_names == ("a",)
        assert trace.counters == {"n": 2}
        assert trace.total_seconds == 0.5


class TestRunTrace:
    def test_render_table_lists_stages_and_counters(self):
        trace = RunTrace(
            stages=(StageTiming("segmentation", 0.5), StageTiming("tracking", 1.25)),
            timings=(
                StageTiming("segmentation", 0.5),
                StageTiming("tracking/frame", 1.2, calls=19),
                StageTiming("tracking", 1.25),
            ),
            counters={"ga.evaluations": 620.0},
            total_seconds=1.75,
        )
        table = trace.render_table()
        assert "segmentation" in table
        assert "tracking/frame" in table
        assert "19" in table
        assert "ga.evaluations" in table
        assert "1.7500s" in table

    def test_to_dict_round_trips_through_json(self):
        import json

        trace = RunTrace(
            stages=(StageTiming("a", 0.1),),
            timings=(StageTiming("a", 0.1),),
            counters={"c": 1.0},
            total_seconds=0.1,
        )
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["stages"][0]["name"] == "a"
        assert payload["counters"]["c"] == 1.0

    def test_lookup_helpers(self):
        trace = RunTrace(
            stages=(StageTiming("a", 0.1),),
            timings=(StageTiming("a", 0.1), StageTiming("a/sub", 0.05, calls=2)),
        )
        assert trace.timing("a/sub").mean_seconds == pytest.approx(0.025)
        assert trace.timing("nope") is None
        assert trace.seconds("nope") == 0.0


class TestMetricsRegistry:
    def test_traces_accumulate(self):
        registry = MetricsRegistry()
        trace = RunTrace(
            stages=(StageTiming("tracking", 1.0),),
            timings=(StageTiming("tracking", 1.0),),
            counters={"ga.evaluations": 100.0},
            total_seconds=1.0,
        )
        registry.observe_trace(trace)
        registry.observe_trace(trace)
        snapshot = registry.snapshot()
        assert snapshot["stages"]["tracking"]["calls"] == 2
        assert snapshot["stages"]["tracking"]["total_seconds"] == pytest.approx(2.0)
        assert snapshot["stages"]["tracking"]["mean_seconds"] == pytest.approx(1.0)
        assert snapshot["counters"]["ga.evaluations"] == 200.0

    def test_request_counting(self):
        registry = MetricsRegistry()
        registry.count_request("/analyze", 200)
        registry.count_request("/analyze", 400)
        registry.count_request("/health", 200)
        requests = registry.snapshot()["requests"]
        assert requests["total"] == 3
        assert requests["endpoint:/analyze"] == 2
        assert requests["status:200"] == 2

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(500):
                registry.increment("hits")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.snapshot()["counters"]["hits"] == 4000


class TestAnalyzerOnRuntime:
    @pytest.fixture(scope="class")
    def clip_analysis(self, jump):
        sink = MemorySink()
        inst = Instrumentation(sink)
        analysis = _fast_analyzer().analyze(
            jump.video.clip(0, 6),
            rng=np.random.default_rng(0),
            instrumentation=inst,
        )
        return analysis, sink

    # class-scoped alias of the session `jump` fixture
    @pytest.fixture(scope="class")
    def jump(self):
        from repro.video.synthesis import SyntheticJumpConfig, synthesize_jump

        return synthesize_jump(SyntheticJumpConfig(seed=0))

    def test_trace_has_nonzero_stage_timings(self, clip_analysis):
        analysis, _ = clip_analysis
        trace = analysis.trace
        assert trace.stage_names == JumpAnalyzer.STAGES
        for name in ("segmentation", "tracking", "scoring"):
            assert trace.seconds(name) > 0.0, name
        assert trace.total_seconds > 0.0

    def test_segmentation_sub_stages_timed(self, clip_analysis):
        analysis, _ = clip_analysis
        trace = analysis.trace
        for sub in ("subtract", "noise_removal", "spot_removal",
                    "hole_fill", "shadow", "components"):
            timing = trace.timing(f"segmentation/{sub}")
            assert timing is not None, sub
            assert timing.calls == 6
        assert trace.timing("segmentation/fit_background").calls == 1

    def test_tracking_counters_accumulated(self, clip_analysis):
        analysis, _ = clip_analysis
        trace = analysis.trace
        assert trace.counter("ga.runs") == 5  # frames 1..5
        assert trace.counter("ga.generations") > 0
        assert trace.counter("ga.evaluations") > 0
        assert trace.counter("fitness.silhouette_points") > 0
        assert trace.counter("fitness.rows_scored") > 0
        assert trace.counter("scoring.rules_evaluated") == 7
        assert trace.timing("tracking/frame").calls == 5

    def test_per_frame_convergence_events_emitted(self, clip_analysis):
        _, sink = clip_analysis
        events = [e for e in sink.named("tracking/frame") if e.kind == "event"]
        assert [e.field_dict()["frame"] for e in events] == [1, 2, 3, 4, 5]
        assert all("generation_of_best" in e.field_dict() for e in events)

    def test_trace_serialised_with_analysis(self, clip_analysis):
        from repro.serialization import analysis_to_dict

        analysis, _ = clip_analysis
        payload = analysis_to_dict(analysis)
        assert payload["trace"]["total_seconds"] > 0.0
        names = [s["name"] for s in payload["trace"]["stages"]]
        assert names == list(JumpAnalyzer.STAGES)

    def test_silent_sink_adds_no_measurable_overhead(self, jump):
        """A NullSink run must not be meaningfully slower than the sink-
        free default (which is itself a NullSink under the hood)."""
        clip = jump.video.clip(0, 5)
        analyzer = _fast_analyzer()

        def timed(**kwargs):
            start = time.perf_counter()
            analyzer.analyze(clip, rng=np.random.default_rng(0), **kwargs)
            return time.perf_counter() - start

        timed()  # warm caches
        baseline = min(timed(), timed())
        silent = min(
            timed(instrumentation=Instrumentation(NullSink())),
            timed(instrumentation=Instrumentation(NullSink())),
        )
        # generous bound: instrumentation is microseconds against a run
        # of hundreds of milliseconds; 1.5x absorbs scheduler noise.
        assert silent < 1.5 * baseline + 0.05


class TestSegmentationIntrospection:
    def test_sub_stage_names_exposed(self):
        from repro.segmentation.pipeline import SegmentationPipeline

        assert SegmentationPipeline().sub_stage_names() == (
            "subtract",
            "noise_removal",
            "spot_removal",
            "hole_fill",
            "shadow",
            "components",
        )
