"""Background subtraction (paper Section 2, Step 2).

"The background is subtracted from each frame to obtain the foreground
of each frame."  A pixel is foreground when its maximum per-channel
absolute difference from the background exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..imaging.image import channel_max, ensure_rgb, ensure_same_shape


@dataclass(frozen=True, slots=True)
class SubtractionConfig:
    """Foreground decision threshold on the per-channel difference
    (the paper's implicit hand-tuned constant)."""

    threshold: float = 0.09

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"subtraction threshold must be in (0, 1), got {self.threshold}"
            )


def difference_image(frame: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Maximum per-channel absolute difference ``(H, W)`` in [0, 1]."""
    frame = ensure_rgb(frame, "frame")
    background = ensure_rgb(background, "background")
    ensure_same_shape(frame, background, "frame and background")
    return channel_max(np.abs(frame - background))


def subtract_background(
    frame: np.ndarray,
    background: np.ndarray,
    config: SubtractionConfig | None = None,
) -> np.ndarray:
    """Step 2: the raw foreground mask of one frame."""
    config = config or SubtractionConfig()
    return difference_image(frame, background) > config.threshold
