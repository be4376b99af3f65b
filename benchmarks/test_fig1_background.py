"""Fig. 1 — background estimation from a jump video.

The paper shows the first frame of a sequence (with the jumper
standing in it) next to the background image recovered by change
detection.  This bench quantifies that recovery — RMSE against the
true clean background and pixel coverage — for the pipeline's change
detection (longest stable run) and three baselines kept here, beside
the figure that compares them: the literal reading of Step 1 (the mean
of every stable pair), the per-pixel median of the stable pairs, and
the whole-clip temporal median.

Expected shape: change detection recovers the background to within a
few percent RMSE even though the jumper is present in every frame, and
the longest-run aggregation beats the literal mean, which bakes in a
ghost of the standing jumper — the artefact Cucchiara et al. (the
paper's reference [3]) analyse.
"""

import numpy as np
import pytest

from repro.imaging.image import channel_max
from repro.imaging.metrics import rmse
from repro.segmentation.background import (
    BackgroundResult,
    ChangeDetectionBackgroundEstimator,
    ChangeDetectionConfig,
)
from repro.video.sequence import VideoSequence

THRESHOLD = ChangeDetectionConfig().threshold


def _stable_pairs(frames: np.ndarray, threshold: float):
    """Each consecutive pair's stable-pixel mask and mean value."""
    for k in range(len(frames) - 1):
        prev, frame = frames[k], frames[k + 1]
        yield channel_max(np.abs(frame - prev)) < threshold, 0.5 * (prev + frame)


def _with_median_fallback(
    frames: np.ndarray, background: np.ndarray, support: np.ndarray
) -> BackgroundResult:
    """Pixels with no stable pair take the temporal median, as in Step 1."""
    fallback = support == 0
    if fallback.any():
        background[fallback] = np.median(frames[:, fallback], axis=0)
    return BackgroundResult(
        background=np.clip(background, 0.0, 1.0),
        support=support,
        fallback_mask=fallback,
    )


def stable_pair_mean(video: VideoSequence, threshold: float = THRESHOLD) -> BackgroundResult:
    """The literal reading of Step 1: the mean of every stable pair."""
    frames = video.frames
    support = np.zeros((video.height, video.width), dtype=np.int32)
    total = np.zeros((video.height, video.width, 3), dtype=np.float64)
    for stable, value in _stable_pairs(frames, threshold):
        support += stable
        total += np.where(stable[..., None], value, 0.0)
    background = np.zeros_like(total)
    covered = support > 0
    background[covered] = total[covered] / support[covered, None]
    return _with_median_fallback(frames, background, support)


def stable_pair_median(video: VideoSequence, threshold: float = THRESHOLD) -> BackgroundResult:
    """The per-pixel median of every stable pair."""
    frames = video.frames
    num_pairs = len(frames) - 1
    stable = np.empty((num_pairs, video.height, video.width), dtype=bool)
    values = np.empty((num_pairs, video.height, video.width, 3), dtype=np.float64)
    for k, (mask, value) in enumerate(_stable_pairs(frames, threshold)):
        stable[k], values[k] = mask, value
    masked = np.where(stable[..., None], values, np.nan)
    with np.errstate(all="ignore"):
        background = np.nanmedian(masked, axis=0)
    background = np.nan_to_num(background, nan=0.0)
    return _with_median_fallback(frames, background, stable.sum(axis=0).astype(np.int32))


def temporal_median(video: VideoSequence) -> BackgroundResult:
    """The classical baseline: the per-pixel median of every frame."""
    background = np.median(video.frames, axis=0)
    return BackgroundResult(
        background=np.clip(background, 0.0, 1.0),
        support=np.full((video.height, video.width), len(video), dtype=np.int32),
        fallback_mask=np.zeros((video.height, video.width), dtype=bool),
    )


# The median of stable pairs warns on pixels with no stable pair.
@pytest.mark.filterwarnings("ignore:All-NaN slice encountered")
@pytest.mark.benchmark(group="fig1-background")
def test_fig1_background_estimation(benchmark, jump, repro_table):
    estimators = {
        "change-detection (longest run)": ChangeDetectionBackgroundEstimator().estimate,
        "change-detection (mean, literal)": stable_pair_mean,
        "change-detection (median)": stable_pair_median,
        "temporal median (baseline)": temporal_median,
    }

    truth = jump.background
    rows = []
    results = {}
    for name, estimate in estimators.items():
        result = estimate(jump.video)
        results[name] = result
        rows.append(
            [
                name,
                rmse(result.background, truth),
                result.coverage,
                int(result.support.max()),
            ]
        )

    # Benchmark the paper's estimator itself.
    default = ChangeDetectionBackgroundEstimator()
    benchmark.pedantic(default.estimate, args=(jump.video,), rounds=3, iterations=1)

    repro_table(
        "Fig 1 - background estimation",
        ["estimator", "rmse vs truth", "coverage", "max support"],
        rows,
        note="paper: estimated background visually free of the jumper",
    )

    run = rmse(results["change-detection (longest run)"].background, truth)
    mean = rmse(results["change-detection (mean, literal)"].background, truth)
    assert run < 0.05, "background should be recovered to within 5% RMSE"
    assert run <= mean + 1e-9, "longest-run must not lose to the literal mean"
    assert results["change-detection (longest run)"].coverage > 0.95
