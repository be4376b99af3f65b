"""HSV shadow detection and removal (paper Section 2, Step 5, Eqs. 1–2).

A foreground pixel ``p`` of frame ``k`` is shadow when all three hold::

    α ≤ F_k(p).V / B_k(p).V ≤ β          (a shadow darkens, but not to black)
    |F_k(p).S − B_k(p).S| ≤ τ_S          (saturation barely changes)
    DH_k(p) ≤ τ_H                        (hue barely changes, Eq. 2)

with ``DH = min(|F.H − B.H|, 360 − |F.H − B.H|)``.  The parameters
α, β, τ_S, τ_H "are determined via experiments" — the ablation bench
:mod:`benchmarks.test_ablation_shadow` sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..imaging.color import hue_distance, rgb_to_hsv
from ..imaging.image import ensure_mask, ensure_rgb, ensure_same_shape


@dataclass(frozen=True, slots=True)
class ShadowMaskConfig:
    """The four experimental parameters of Eq. 1."""

    alpha: float = 0.40
    beta: float = 0.90
    tau_s: float = 0.12
    tau_h: float = 40.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise ConfigurationError(
                f"need 0 < alpha < beta < 1, got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0.0 < self.tau_s <= 1.0:
            raise ConfigurationError(f"tau_s must be in (0, 1], got {self.tau_s}")
        if not 0.0 < self.tau_h <= 180.0:
            raise ConfigurationError(f"tau_h must be in (0, 180], got {self.tau_h}")


def shadow_mask(
    frame: np.ndarray,
    background: np.ndarray,
    foreground: np.ndarray,
    config: ShadowMaskConfig | None = None,
) -> np.ndarray:
    """Eq. 1: the shadow mask ``SM_k`` restricted to foreground pixels."""
    config = config or ShadowMaskConfig()
    frame = ensure_rgb(frame, "frame")
    background = ensure_rgb(background, "background")
    foreground = ensure_mask(foreground, "foreground")
    ensure_same_shape(frame, background, "frame and background")
    if frame.shape[:2] != foreground.shape:
        raise ConfigurationError(
            f"frame {frame.shape[:2]} and foreground {foreground.shape} differ"
        )

    # Every test is per pixel and the result is restricted to the
    # foreground anyway, so only foreground pixels are converted and
    # tested: an (n, 1, 3) gather instead of two full-frame HSV images.
    frame_hsv = rgb_to_hsv(frame[foreground][:, None])[:, 0]
    back_hsv = rgb_to_hsv(background[foreground][:, None])[:, 0]

    back_v = back_hsv[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(back_v > 0, frame_hsv[..., 2] / np.maximum(back_v, 1e-9), np.inf)
    value_ok = (config.alpha <= ratio) & (ratio <= config.beta)
    saturation_ok = (
        np.abs(frame_hsv[..., 1] - back_hsv[..., 1]) <= config.tau_s
    )
    hue_ok = hue_distance(frame_hsv[..., 0], back_hsv[..., 0]) <= config.tau_h

    detected = np.zeros_like(foreground)
    detected[foreground] = value_ok & saturation_ok & hue_ok
    return detected


def remove_shadows(
    frame: np.ndarray,
    background: np.ndarray,
    foreground: np.ndarray,
    config: ShadowMaskConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 5: drop shadow pixels from the foreground.

    Returns ``(person_mask, detected_shadow_mask)``.
    """
    detected = shadow_mask(frame, background, foreground, config)
    return foreground & ~detected, detected
