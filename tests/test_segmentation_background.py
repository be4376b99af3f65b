"""Tests for background estimation (Step 1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, VideoError
from repro.imaging.metrics import rmse
from repro.segmentation.background import (
    ChangeDetectionBackgroundEstimator,
    ChangeDetectionConfig,
)
from repro.video.sequence import VideoSequence


def _static_video_with_transient(n=10, h=12, w=16):
    """Static background with a block passing through frames 4-5."""
    rng = np.random.default_rng(0)
    background = rng.random((h, w, 3)) * 0.5 + 0.25
    frames = []
    for k in range(n):
        frame = background.copy()
        if k in (4, 5):
            frame[4:8, 4 + k : 8 + k] = (0.9, 0.1, 0.1)
        frames.append(frame)
    return VideoSequence(frames), background


class TestChangeDetection:
    @pytest.mark.parametrize("config", [ChangeDetectionConfig()], ids=["longest_run"])
    def test_recovers_static_background(self, config):
        video, background = _static_video_with_transient()
        result = ChangeDetectionBackgroundEstimator(config).estimate(video)
        assert rmse(result.background, background) < 0.02

    def test_longest_run_beats_mean_on_long_dwell(self):
        # Object parked on frames 0..4 of 12, then gone: the post-exit
        # background run (7 pairs) beats the object run (4 pairs), so
        # longest_run recovers the background while the literal mean of
        # every stable pair blends the object in.
        rng = np.random.default_rng(1)
        background = rng.random((10, 10, 3)) * 0.4 + 0.3
        frames = []
        for k in range(12):
            frame = background.copy()
            if k <= 4:
                frame[2:7, 2:7] = (0.9, 0.05, 0.05)
            frames.append(frame)
        run = ChangeDetectionBackgroundEstimator().estimate(VideoSequence(frames))
        pairs = list(zip(frames[:-1], frames[1:]))
        stable = np.array([np.abs(b - a).max(axis=2) < 0.05 for a, b in pairs])
        values = np.array([0.5 * (a + b) for a, b in pairs])
        mean = (values * stable[..., None]).sum(axis=0) / stable.sum(axis=0)[..., None]
        assert rmse(run.background, background) < 0.01
        assert rmse(mean, background) > 0.05

    def test_support_counts(self):
        video, _ = _static_video_with_transient()
        result = ChangeDetectionBackgroundEstimator().estimate(video)
        assert result.support.max() == len(video) - 1
        assert result.coverage > 0.9

    def test_fallback_for_always_changing_pixel(self):
        rng = np.random.default_rng(2)
        frames = [rng.random((6, 6, 3)) for _ in range(8)]
        result = ChangeDetectionBackgroundEstimator(
            ChangeDetectionConfig(threshold=0.01)
        ).estimate(VideoSequence(frames))
        assert result.fallback_mask.mean() > 0.5
        # fallback equals the temporal median there
        median = np.median(np.stack(frames), axis=0)
        sel = result.fallback_mask
        assert np.allclose(result.background[sel], median[sel])

    def test_needs_two_frames(self):
        video = VideoSequence([np.zeros((4, 4, 3))])
        with pytest.raises(VideoError):
            ChangeDetectionBackgroundEstimator().estimate(video)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChangeDetectionConfig(threshold=0.0)


class TestOnSyntheticJump:
    def test_background_close_to_truth(self, jump):
        result = ChangeDetectionBackgroundEstimator().estimate(jump.video)
        assert rmse(result.background, jump.background) < 0.05
