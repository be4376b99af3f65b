"""Tests for image containers and validation (repro.imaging.image)."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.image import (
    blank_mask,
    blank_rgb,
    channel_max,
    channel_min,
    ensure_gray,
    ensure_mask,
    ensure_rgb,
    ensure_same_shape,
    rgb_to_gray,
    to_uint8,
)


class TestEnsureRgb:
    def test_accepts_float_in_range(self):
        image = np.random.default_rng(0).random((4, 5, 3))
        out = ensure_rgb(image)
        assert out.shape == (4, 5, 3)
        assert out.dtype == np.float64

    def test_converts_uint8(self):
        image = np.full((2, 2, 3), 255, dtype=np.uint8)
        out = ensure_rgb(image)
        assert np.allclose(out, 1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ImageError, match="shape"):
            ensure_rgb(np.zeros((4, 5)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ImageError, match="range|\\[0, 1\\]"):
            ensure_rgb(np.full((2, 2, 3), 3.0))

    def test_clips_tiny_numeric_noise(self):
        image = np.full((2, 2, 3), 1.0 + 1e-12)
        out = ensure_rgb(image)
        assert out.max() <= 1.0


class TestEnsureGray:
    def test_accepts_2d(self):
        out = ensure_gray(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_rejects_3d(self):
        with pytest.raises(ImageError):
            ensure_gray(np.zeros((3, 4, 3)))

    def test_uint8_scaled(self):
        out = ensure_gray(np.full((2, 2), 128, dtype=np.uint8))
        assert np.allclose(out, 128 / 255)


class TestEnsureMask:
    def test_bool_passthrough(self):
        mask = np.zeros((3, 3), dtype=bool)
        assert ensure_mask(mask) is mask

    def test_zero_one_ints_accepted(self):
        out = ensure_mask(np.array([[0, 1], [1, 0]]))
        assert out.dtype == bool
        assert out[0, 1]

    def test_other_values_rejected(self):
        with pytest.raises(ImageError, match="0/1"):
            ensure_mask(np.array([[0, 2]]))

    def test_float_zero_one_accepted(self):
        out = ensure_mask(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert out.dtype == bool and out[0, 1] and not out[0, 0]

    def test_nan_rejected(self):
        with pytest.raises(ImageError, match="0/1"):
            ensure_mask(np.array([[0.0, np.nan]]))

    def test_fractional_values_rejected(self):
        with pytest.raises(ImageError, match="0/1"):
            ensure_mask(np.array([[0.5, 1.0]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ImageError):
            ensure_mask(np.zeros((2, 2, 2), dtype=bool))


class TestHelpers:
    def test_ensure_same_shape_raises(self):
        with pytest.raises(ImageError, match="identical shapes"):
            ensure_same_shape(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_to_uint8_roundtrip(self):
        image = np.linspace(0, 1, 12).reshape(4, 3)
        assert to_uint8(image).max() == 255
        assert to_uint8(image).min() == 0

    def test_rgb_to_gray_weights(self):
        pure_green = blank_rgb(2, 2, (0.0, 1.0, 0.0))
        gray = rgb_to_gray(pure_green)
        assert np.allclose(gray, 0.587)

    def test_blank_rgb_fill(self):
        image = blank_rgb(3, 4, (0.25, 0.5, 0.75))
        assert image.shape == (3, 4, 3)
        assert np.allclose(image[1, 2], (0.25, 0.5, 0.75))

    def test_blank_mask_empty(self):
        mask = blank_mask(5, 6)
        assert mask.shape == (5, 6)
        assert not mask.any()

    def test_blank_rejects_nonpositive(self):
        with pytest.raises(ImageError):
            blank_rgb(0, 5)
        with pytest.raises(ImageError):
            blank_mask(5, 0)


class TestChannelReductions:
    @pytest.mark.parametrize("shape", [(7, 9, 3), (4, 7, 9, 3), (0, 5, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_equal_axis_reductions(self, shape, dtype):
        values = np.random.default_rng(5).random(shape) * 255
        image = values.astype(dtype)
        for got, want in (
            (channel_max(image), image.max(axis=-1)),
            (channel_min(image), image.min(axis=-1)),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_strided_view(self):
        image = np.random.default_rng(6).random((8, 10, 3))[::2, ::3]
        assert np.array_equal(channel_max(image), image.max(axis=-1))
        assert np.array_equal(channel_min(image), image.min(axis=-1))
