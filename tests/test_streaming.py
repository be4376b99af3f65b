"""Streaming core tests: push_frame/finish parity, live mode, errors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import get_preset
from repro.errors import (
    ConfigurationError,
    SegmentationError,
    StreamError,
    VideoError,
)
from repro.ga.engine import GAConfig
from repro.ga.temporal import TrackerConfig
from repro.model.fitness import FitnessConfig
from repro.pipeline import AnalyzerConfig, JumpAnalyzer, StreamingConfig


def _fast_config(**streaming_overrides):
    config = AnalyzerConfig(
        tracker=TrackerConfig(
            ga=GAConfig(population_size=30, max_generations=10, patience=5),
            fitness=FitnessConfig(max_points=500),
            containment_margin=1,
            min_inside_fraction=0.95,
            containment_samples=7,
        ),
    )
    if streaming_overrides:
        config = dataclasses.replace(
            config, streaming=StreamingConfig(**streaming_overrides)
        )
    return config


def _live_analyzer(warmup=4, **streaming_overrides):
    return JumpAnalyzer(
        _fast_config(warmup_frames=warmup, **streaming_overrides)
    )


class TestBatchParity:
    def test_paper_preset_stream_is_byte_identical(self, short_jump):
        """Frame-at-a-time pushes == one analyze() on the paper preset."""
        config = get_preset("paper")
        batch = JumpAnalyzer(config).analyze(
            short_jump.video, rng=np.random.default_rng(1)
        )
        stream = JumpAnalyzer(config).open_stream(
            rng=np.random.default_rng(1)
        )
        for frame in short_jump.video:
            update = stream.push_frame(frame)
            assert update.phase == "buffering"
            assert update.provisional is None
        streamed = stream.finish()

        assert streamed.config_hash == batch.config_hash
        assert streamed.report.score == batch.report.score
        assert streamed.events == batch.events
        assert streamed.measurement.distance == batch.measurement.distance
        assert len(streamed.segmentations) == len(batch.segmentations)
        for ours, theirs in zip(streamed.segmentations, batch.segmentations):
            assert np.array_equal(ours.person, theirs.person)
        assert len(streamed.poses) == len(batch.poses)
        for ours, theirs in zip(streamed.poses, batch.poses):
            assert ours.x0 == theirs.x0 and ours.y0 == theirs.y0
            assert np.array_equal(ours.angles_deg, theirs.angles_deg)

    def test_empty_finish_is_video_error(self):
        stream = JumpAnalyzer(_fast_config()).open_stream()
        with pytest.raises(VideoError):
            stream.finish()


class TestLiveMode:
    def test_phases_and_provisional(self, short_jump):
        stream = _live_analyzer(warmup=4).open_stream(
            rng=np.random.default_rng(1)
        )
        assert stream.live
        phases = []
        provisional_frames = []
        for frame in short_jump.video:
            update = stream.push_frame(frame)
            phases.append(update.phase)
            if update.provisional is not None:
                provisional_frames.append(update.frames_seen)
        # Three warmup updates, then the go-live drain reports tracking.
        assert phases[:4] == ["warmup", "warmup", "warmup", "tracking"]
        assert set(phases[4:]) == {"tracking"}
        # Provisional estimates need >= 4 poses, then refresh every frame.
        assert provisional_frames
        assert provisional_frames[0] >= 4
        latest = stream.provisional
        assert latest is not None
        assert latest.takeoff_frame < latest.landing_frame
        assert latest.score is not None

        analysis = stream.finish()
        assert len(analysis.poses) == len(short_jump.video)
        assert len(analysis.segmentations) == len(short_jump.video)
        assert analysis.report.score is not None
        stages = [timing.name for timing in analysis.trace.stages]
        assert stages[:2] == ["segmentation", "tracking"]
        for tail in ("smoothing", "events", "scoring", "measurement"):
            assert tail in stages

    def test_tracking_updates_carry_pose_and_box(self, short_jump):
        stream = _live_analyzer(warmup=4).open_stream(
            rng=np.random.default_rng(1)
        )
        update = None
        for frame in short_jump.video:
            update = stream.push_frame(frame)
        assert update.pose is not None
        x, y, w, h = update.pose_box
        assert w > 0 and h > 0
        assert update.health is not None

    def test_running_background_mode(self, short_jump):
        analyzer = _live_analyzer(warmup=4, background="running")
        stream = analyzer.open_stream(rng=np.random.default_rng(1))
        for frame in short_jump.video:
            stream.push_frame(frame)
        analysis = stream.finish()
        assert len(analysis.poses) == len(short_jump.video)

    def test_short_stream_falls_back_to_batch(self, short_jump):
        """A live stream that ends inside its warmup still analyzes."""
        warmup = len(short_jump.video) + 5
        stream = _live_analyzer(warmup=warmup).open_stream(
            rng=np.random.default_rng(1)
        )
        for frame in short_jump.video:
            assert stream.push_frame(frame).phase == "warmup"
        analysis = stream.finish()
        assert len(analysis.poses) == len(short_jump.video)


class TestStreamErrors:
    def test_push_after_finish(self, short_jump):
        stream = JumpAnalyzer(_fast_config()).open_stream()
        stream.extend(short_jump.video)
        stream.finish()
        with pytest.raises(StreamError):
            stream.push_frame(short_jump.video.frames[0])

    def test_double_finish(self, short_jump):
        stream = JumpAnalyzer(_fast_config()).open_stream()
        stream.extend(short_jump.video)
        stream.finish()
        with pytest.raises(StreamError):
            stream.finish()

    def test_finish_after_empty_first_live_frame(self, short_jump):
        """A live stream that never anchored fails finish() cleanly."""
        stream = _live_analyzer(warmup=2).open_stream()
        empty = short_jump.background  # no one in it: frame 0 segments empty
        stream.push_frame(empty)
        with pytest.raises(SegmentationError):
            stream.push_frame(empty)
        with pytest.raises(SegmentationError):
            stream.finish()


class TestStreamingConfig:
    def test_warmup_one_is_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(warmup_frames=1)

    def test_negative_warmup_is_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(warmup_frames=-1)

    def test_unknown_background_is_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(warmup_frames=4, background="bogus")

    def test_streaming_block_is_hashed(self):
        from repro.config import config_hash

        default = config_hash(_fast_config())
        live = config_hash(_fast_config(warmup_frames=4))
        assert default != live


class TestChaosStreaming:
    def test_streaming_survival_matches_batch(self, short_jump):
        """Default (warmup 0) streaming buffers, so survival is batch's."""
        from repro.faults.chaos import default_fault_grid, run_chaos

        plan = default_fault_grid(seed=0)
        config = _fast_config()
        batch = run_chaos(
            short_jump.video, config=config, plan=plan, rng_seed=0
        )
        streamed = run_chaos(
            short_jump.video,
            config=config,
            plan=plan,
            rng_seed=0,
            streaming=True,
        )
        assert streamed.survival_rate == batch.survival_rate
        assert [o.verdict for o in streamed.outcomes] == [
            o.verdict for o in batch.outcomes
        ]
