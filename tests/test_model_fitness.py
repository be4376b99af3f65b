"""Tests for the Eq. 3 silhouette fitness and thickness estimation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.fitness import FitnessConfig, SilhouetteFitness, estimate_thicknesses
from repro.model.pose import StickPose
from repro.model.sticks import default_body
from repro.video.synthesis.render import person_mask_for_pose

BODY = default_body(60.0)
SHAPE = (120, 160)


def _standing_setup():
    pose = StickPose.standing(60.0, 50.0)
    mask = person_mask_for_pose(pose, BODY, SHAPE)
    return pose, mask


class TestSilhouetteFitness:
    def test_true_pose_scores_low(self):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY)
        assert fitness.evaluate_pose(pose) < 0.35

    def test_true_pose_beats_shifted(self):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY)
        shifted = pose.translated(15.0, 0.0)
        assert fitness.evaluate_pose(pose) < fitness.evaluate_pose(shifted)

    def test_true_pose_beats_wrong_legs(self):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY)
        wrong = pose.with_angle("thigh", 90.0).with_angle("shank", 90.0)
        assert fitness.evaluate_pose(pose) < fitness.evaluate_pose(wrong)

    def test_batch_matches_single(self, rng):
        pose, mask = _standing_setup()
        genes = np.stack([pose.to_genes() + rng.normal(0, 2, 10) for _ in range(6)])
        batch = SilhouetteFitness(mask, BODY).evaluate(genes)
        # A fresh instance, so each single is computed, not looked up.
        fitness = SilhouetteFitness(mask, BODY)
        singles = np.array([fitness.evaluate(genes[i]) for i in range(6)])
        assert np.array_equal(batch, singles)

    def test_rows_scored_counts_distinct_computed_rows(self, rng):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY)
        distinct = pose.to_genes() + rng.normal(0, 2, (4, 10))
        batch = distinct[[0, 1, 0, 2, 3, 3, 1]]
        first = fitness.evaluate(batch)
        assert fitness.rows_scored == 4
        again = fitness.evaluate(batch)
        assert fitness.rows_scored == 4
        assert np.array_equal(first, again)
        assert first[0] == first[2] and first[4] == first[5]

    def test_scale_invariance_of_units(self):
        # Fitness is normalised by thickness, so doubling the body and
        # silhouette roughly preserves the score of the true pose.
        pose, mask = _standing_setup()
        small = SilhouetteFitness(mask, BODY).evaluate_pose(pose)
        big_body = default_body(120.0)
        big_pose = StickPose.standing(80.0, 80.0)
        big_mask = person_mask_for_pose(big_pose, big_body, (240, 320))
        big = SilhouetteFitness(big_mask, big_body).evaluate_pose(big_pose)
        assert big == pytest.approx(small, abs=0.08)

    def test_empty_silhouette_rejected(self):
        with pytest.raises(ModelError):
            SilhouetteFitness(np.zeros((10, 10), dtype=bool), BODY)

    def test_subsampling_cap(self):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY, FitnessConfig(max_points=100))
        assert fitness.num_points == 100
        assert fitness.total_points == int(mask.sum())
        # Score should be close to the uncapped one.
        full = SilhouetteFitness(mask, BODY, FitnessConfig(max_points=0))
        assert fitness.evaluate_pose(pose) == pytest.approx(
            full.evaluate_pose(pose), abs=0.05
        )

    def test_per_stick_coverage_sums_to_one(self):
        pose, mask = _standing_setup()
        fitness = SilhouetteFitness(mask, BODY)
        coverage = fitness.per_stick_coverage(pose)
        assert coverage.sum() == pytest.approx(1.0)
        assert coverage[0] > 0  # the trunk claims points


class TestThicknessEstimation:
    def test_recovers_render_thickness(self):
        pose, mask = _standing_setup()
        estimated = estimate_thicknesses(mask, pose, BODY)
        true = np.asarray(BODY.thicknesses)
        # The estimator works from assigned-point statistics; expect the
        # big parts (trunk, thigh, head) within ~40%.
        for stick in (0, 3, 4):
            assert estimated[stick] == pytest.approx(true[stick], rel=0.4)

    def test_floor_applied(self):
        pose, mask = _standing_setup()
        estimated = estimate_thicknesses(mask, pose, BODY, floor=5.0)
        prior = np.asarray(BODY.thicknesses)
        # Every re-estimated value respects the floor; sticks that
        # attracted no points keep their prior thickness unchanged.
        changed = ~np.isclose(estimated, prior)
        assert (estimated[changed] >= 5.0).all()
        assert changed.any()

    def test_empty_mask_rejected(self):
        with pytest.raises(ModelError):
            estimate_thicknesses(
                np.zeros((5, 5), dtype=bool), StickPose.standing(0, 0), BODY
            )
