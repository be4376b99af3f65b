"""Tests for subtraction (Step 2), cleanup (Steps 3-4) and the HSV
shadow mask (Step 5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imaging.image import blank_rgb
from repro.segmentation.cleanup import CleanupConfig, clean_foreground
from repro.segmentation.shadow import ShadowMaskConfig, remove_shadows, shadow_mask
from repro.segmentation.subtraction import (
    SubtractionConfig,
    difference_image,
    subtract_background,
)


class TestSubtraction:
    def test_detects_changed_block(self):
        background = blank_rgb(10, 10, (0.5, 0.5, 0.5))
        frame = background.copy()
        frame[3:6, 3:6] = (0.9, 0.5, 0.5)
        mask = subtract_background(frame, background)
        assert mask[4, 4] and mask.sum() == 9

    def test_threshold_respected(self):
        background = blank_rgb(4, 4, (0.5, 0.5, 0.5))
        frame = background + 0.05
        assert not subtract_background(
            frame, background, SubtractionConfig(threshold=0.09)
        ).any()
        assert subtract_background(
            frame, background, SubtractionConfig(threshold=0.04)
        ).all()

    def test_difference_image_max_channel(self):
        background = blank_rgb(2, 2, (0.2, 0.2, 0.2))
        frame = background.copy()
        frame[0, 0] = (0.2, 0.7, 0.3)
        diff = difference_image(frame, background)
        assert diff[0, 0] == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SubtractionConfig(threshold=1.5)


class TestCleanup:
    def test_stages_returned_in_order(self):
        rng = np.random.default_rng(0)
        mask = rng.random((30, 30)) > 0.85
        mask[5:20, 5:15] = True
        stages = clean_foreground(mask, CleanupConfig(min_spot_area=20))
        assert stages.after_noise_removal.sum() <= mask.sum()
        assert stages.after_spot_removal.sum() <= stages.after_noise_removal.sum()
        assert stages.after_hole_fill.sum() >= stages.after_spot_removal.sum()

    def test_noise_pixels_removed_blob_kept(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[5:15, 5:12] = True
        mask[1, 18] = True  # isolated noise
        stages = clean_foreground(mask)
        assert not stages.after_noise_removal[1, 18]
        assert stages.after_hole_fill[10, 8]

    def test_small_spot_removed(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[5:20, 5:15] = True  # 150 px person
        mask[25:28, 25:28] = True  # 9 px spot
        stages = clean_foreground(mask, CleanupConfig(min_spot_area=30))
        assert not stages.after_spot_removal[26, 26]
        assert stages.after_spot_removal[10, 10]

    def test_hole_filled(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2:10, 2:10] = True
        mask[5, 5] = False
        stages = clean_foreground(mask)
        assert stages.after_hole_fill[5, 5]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CleanupConfig(min_neighbors=9)
        with pytest.raises(ConfigurationError):
            CleanupConfig(min_spot_area=-1)


class TestShadowMask:
    def _scene(self):
        background = blank_rgb(10, 10, (0.5, 0.45, 0.4))
        frame = background.copy()
        # shadow: value scaled, hue/saturation kept
        frame[6:9, :] *= 0.6
        # person: different hue entirely
        frame[1:4, 1:4] = (0.1, 0.2, 0.8)
        foreground = np.zeros((10, 10), dtype=bool)
        foreground[6:9, :] = True
        foreground[1:4, 1:4] = True
        return frame, background, foreground

    def test_eq1_separates_shadow_from_person(self):
        frame, background, foreground = self._scene()
        detected = shadow_mask(frame, background, foreground)
        assert detected[7, 5]
        assert not detected[2, 2]

    def test_only_foreground_can_be_shadow(self):
        frame, background, foreground = self._scene()
        detected = shadow_mask(frame, background, foreground)
        assert not (detected & ~foreground).any()

    def test_remove_shadows_returns_person(self):
        frame, background, foreground = self._scene()
        person, detected = remove_shadows(frame, background, foreground)
        assert person[2, 2] and not person[7, 5]
        assert (person | detected).sum() == foreground.sum()

    def test_value_ratio_bounds(self):
        frame, background, foreground = self._scene()
        # too-dark region (below alpha) is not shadow
        frame[6:9, :] = background[6:9, :] * 0.2
        detected = shadow_mask(
            frame, background, foreground, ShadowMaskConfig(alpha=0.4, beta=0.9)
        )
        assert not detected[7, 5]

    def test_hue_condition(self):
        frame, background, foreground = self._scene()
        config = ShadowMaskConfig(tau_h=5.0)
        # rotate hue of the shadow strip far away
        frame[6:9, :] = frame[6:9, :][..., ::-1]
        detected = shadow_mask(frame, background, foreground, config)
        assert not detected[7, 5]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ShadowMaskConfig(alpha=0.9, beta=0.4)
        with pytest.raises(ConfigurationError):
            ShadowMaskConfig(tau_s=0.0)
        with pytest.raises(ConfigurationError):
            ShadowMaskConfig(tau_h=200.0)
