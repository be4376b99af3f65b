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
    """Foreground decision threshold on the per-channel difference.

    ``mode="fixed"`` uses ``threshold`` directly (the paper's implicit
    hand-tuned constant).  ``mode="otsu"`` picks the threshold per
    frame from the difference-image histogram (Otsu), clamped to
    ``[min_threshold, max_threshold]`` so a frame with no foreground
    does not binarise its noise floor.
    """

    threshold: float = 0.09
    mode: str = "fixed"
    min_threshold: float = 0.05
    max_threshold: float = 0.30

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"subtraction threshold must be in (0, 1), got {self.threshold}"
            )
        if self.mode not in ("fixed", "otsu"):
            raise ConfigurationError(
                f"mode must be 'fixed' or 'otsu', got {self.mode!r}"
            )
        if not 0.0 < self.min_threshold <= self.max_threshold < 1.0:
            raise ConfigurationError(
                "need 0 < min_threshold <= max_threshold < 1, got "
                f"{self.min_threshold} and {self.max_threshold}"
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
    difference = difference_image(frame, background)
    if config.mode == "otsu":
        from ..imaging.threshold import otsu_threshold

        threshold = float(
            np.clip(
                otsu_threshold(difference),
                config.min_threshold,
                config.max_threshold,
            )
        )
    else:
        threshold = config.threshold
    return difference > threshold
