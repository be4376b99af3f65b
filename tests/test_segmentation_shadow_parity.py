"""``shadow_mask`` tests foreground pixels only; pin it to Eqs. 1–2.

The reference below is the paper's shadow test evaluated over the full
frame and then restricted to the foreground.  ``shadow_mask`` gathers
the foreground pixels first, which must give exactly the same mask.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.color import hsv_to_rgb, hue_distance, rgb_to_hsv
from repro.imaging.image import ensure_rgb
from repro.segmentation.shadow import ShadowMaskConfig, shadow_mask

CONFIGS = (ShadowMaskConfig(), ShadowMaskConfig(alpha=0.2, beta=0.95, tau_s=0.3, tau_h=90.0))


def full_frame_shadow(frame, background, foreground, config):
    """Eqs. 1–2 on every pixel, then ``& foreground``."""
    frame_hsv = rgb_to_hsv(ensure_rgb(frame))
    back_hsv = rgb_to_hsv(ensure_rgb(background))
    back_v = back_hsv[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(back_v > 0, frame_hsv[..., 2] / np.maximum(back_v, 1e-9), np.inf)
    value_ok = (config.alpha <= ratio) & (ratio <= config.beta)
    saturation_ok = np.abs(frame_hsv[..., 1] - back_hsv[..., 1]) <= config.tau_s
    hue_ok = hue_distance(frame_hsv[..., 0], back_hsv[..., 0]) <= config.tau_h
    return foreground & value_ok & saturation_ok & hue_ok


def _scene(seed: int, shape=(37, 53)):
    """Random background, a frame where ~half the pixels are darkened
    copies of it (shadow candidates) and the rest random, a random
    foreground, and a few black background pixels (V = 0)."""
    rng = np.random.default_rng(seed)
    background = rng.random((*shape, 3))
    background[rng.random(shape) < 0.05] = 0.0
    frame = rng.random((*shape, 3))
    darkened = rng.random(shape) < 0.5
    factors = rng.uniform(0.2, 1.1, shape)[..., None]
    frame[darkened] = np.clip(background * factors, 0.0, 1.0)[darkened]
    foreground = rng.random(shape) < 0.6
    return frame, background, foreground


def _to_uint8(image):
    return np.round(image * 255.0).astype(np.uint8)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(6))
def test_float_frames_match_full_frame(seed, config):
    frame, background, foreground = _scene(seed)
    got = shadow_mask(frame, background, foreground, config)
    want = full_frame_shadow(frame, background, foreground, config)
    assert got.dtype == bool and got.shape == foreground.shape
    assert np.array_equal(got, want)
    assert want.any() and not want[foreground].all()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(6))
def test_uint8_frames_match_full_frame(seed, config):
    frame, background, foreground = _scene(100 + seed)
    frame, background = _to_uint8(frame), _to_uint8(background)
    got = shadow_mask(frame, background, foreground, config)
    want = full_frame_shadow(frame, background, foreground, config)
    assert np.array_equal(got, want)
    assert want.any()


def test_black_background_takes_the_infinite_ratio_branch():
    frame, background, foreground = _scene(7)
    black = (background.max(axis=-1) == 0.0) & foreground
    assert black.any()
    got = shadow_mask(frame, background, foreground)
    assert np.array_equal(got, full_frame_shadow(frame, background, foreground, ShadowMaskConfig()))
    # An infinite V ratio never lies in [alpha, beta].
    assert not got[black].any()


def test_hue_wraps_around_zero():
    # Background hue 350 deg, frame hue 10 deg: 20 deg apart the short
    # way round, so the pixel is shadow; 180 deg apart is not.
    background = hsv_to_rgb(np.array([[[350.0, 0.6, 0.8], [350.0, 0.6, 0.8]]]))
    frame = hsv_to_rgb(np.array([[[10.0, 0.6, 0.5], [170.0, 0.6, 0.5]]]))
    foreground = np.ones((1, 2), dtype=bool)
    got = shadow_mask(frame, background, foreground)
    assert got.tolist() == [[True, False]]
    assert np.array_equal(got, full_frame_shadow(frame, background, foreground, ShadowMaskConfig()))


@pytest.mark.parametrize("dtype", ["float", "uint8"])
def test_empty_foreground(dtype):
    frame, background, _ = _scene(3)
    if dtype == "uint8":
        frame, background = _to_uint8(frame), _to_uint8(background)
    empty = np.zeros(frame.shape[:2], dtype=bool)
    got = shadow_mask(frame, background, empty)
    assert got.dtype == bool and got.shape == empty.shape and not got.any()
