"""Background estimation (paper Section 2, Step 1).

"The background can be estimated by change detection.  The pixels with
a very small change in two consecutive frames are saved as part of the
background.  This process goes from the first two frames to the final
two frames in the video sequence."

The paper leaves the aggregation of the saved observations open, and
the choice matters: a jumper who stands still for the first frames is
temporally stable too, so naive averaging bakes a person-shaped *ghost*
into the background (exactly the artefact Cucchiara et al. [3] — the
paper's own reference — analyse).  Per pixel, this estimator keeps the
mean of the longest temporally *contiguous* run of stable pairs.  The
person-standing run is broken by the crouch and the takeoff, while the
empty-background run after the jumper leaves is unbroken, so the true
background wins.  Ties prefer the later run (the background after the
person exits).  Pixels with no stable pair at all fall back to the
temporal median of the whole sequence.

The literal mean of every stable pair, their median and the plain
temporal median are the baselines ``benchmarks/test_fig1_background.py``
compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, VideoError
from ..imaging.image import channel_max
from ..video.sequence import VideoSequence


@dataclass(frozen=True, slots=True)
class BackgroundResult:
    """An estimated background plus diagnostics."""

    background: np.ndarray  # (H, W, 3) float
    support: np.ndarray  # (H, W) int: number of stable observations
    fallback_mask: np.ndarray  # (H, W) bool: pixels that used the fallback

    @property
    def coverage(self) -> float:
        """Fraction of pixels estimated from change detection."""
        return float((~self.fallback_mask).mean())


@dataclass(frozen=True, slots=True)
class ChangeDetectionConfig:
    """Step-1 parameters."""

    threshold: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"change threshold must be in (0, 1), got {self.threshold}"
            )


def _stable_pixels(
    prev: np.ndarray, frame: np.ndarray, threshold: float
) -> np.ndarray:
    """Pixels whose max-channel change between two frames is small."""
    return channel_max(np.abs(frame - prev)) < threshold


class StablePairScan:
    """Step 1's longest-run aggregation as a recurrence.

    Folds one consecutive frame pair at a time into per-pixel
    accumulators, so the memory cost is a few frames whatever the
    sequence length.  The batch estimator and
    :class:`~repro.segmentation.online.RunningBackgroundModel` both
    drive this scan, so the two aggregate identically.
    """

    def __init__(self, height: int, width: int, config: ChangeDetectionConfig) -> None:
        self.config = config
        self.support = np.zeros((height, width), dtype=np.int32)
        # The current run and the best run so far.
        self._cur_len = np.zeros((height, width), dtype=np.int32)
        self._cur_sum = np.zeros((height, width, 3), dtype=np.float64)
        self._best_len = np.zeros((height, width), dtype=np.int32)
        self._best_sum = np.zeros((height, width, 3), dtype=np.float64)

    def add(self, prev: np.ndarray, frame: np.ndarray) -> None:
        """Fold the pair ``(prev, frame)`` into the accumulators."""
        stable = _stable_pixels(prev, frame, self.config.threshold)
        value = 0.5 * (prev + frame)
        self.support += stable
        self._cur_len = np.where(stable, self._cur_len + 1, 0)
        self._cur_sum = np.where(stable[..., None], self._cur_sum + value, 0.0)
        # ">=" so a tie prefers the *later* run: after the jumper
        # leaves, the empty background should win.
        better = (self._cur_len >= self._best_len) & (self._cur_len > 0)
        self._best_len = np.where(better, self._cur_len, self._best_len)
        self._best_sum = np.where(better[..., None], self._cur_sum, self._best_sum)

    def background(self) -> np.ndarray:
        """The aggregated background; 0 where no pair was stable."""
        background = np.zeros_like(self._best_sum)
        covered = self.support > 0
        background[covered] = self._best_sum[covered] / self._best_len[covered, None]
        return background


class ChangeDetectionBackgroundEstimator:
    """The paper's Step 1: accumulate temporally stable pixels."""

    def __init__(self, config: ChangeDetectionConfig | None = None) -> None:
        self.config = config or ChangeDetectionConfig()

    def estimate(self, video: VideoSequence) -> BackgroundResult:
        """Estimate the background of a whole sequence."""
        if len(video) < 2:
            raise VideoError("change detection needs at least two frames")
        frames = video.frames
        scan = StablePairScan(video.height, video.width, self.config)
        for k in range(len(video) - 1):
            scan.add(frames[k], frames[k + 1])
        background, support = scan.background(), scan.support

        fallback = support == 0
        if fallback.any():
            background[fallback] = np.median(frames[:, fallback], axis=0)
        return BackgroundResult(
            background=np.clip(background, 0.0, 1.0),
            support=support,
            fallback_mask=fallback,
        )
