"""Tests for local polish and annotation refinement."""

import numpy as np
import pytest

from repro.ga.refine import local_polish
from repro.model.annotation import (
    FirstFrameAnnotation,
    refine_annotation,
)
from repro.model.fitness import SilhouetteFitness
from repro.model.pose import GENES, StickPose
from repro.model.sticks import default_body
from repro.video.synthesis.render import person_mask_for_pose

BODY = default_body(60.0)


class TestLocalPolish:
    def test_improves_quadratic(self):
        target = np.full(GENES, 100.0)

        def fitness(genes):
            return ((np.atleast_2d(genes) - target) ** 2).sum(axis=1)

        start = target + 5.0
        refined = local_polish(start, fitness)
        assert fitness(refined[None, :])[0] < fitness(start[None, :])[0]

    def test_respects_validity(self):
        def fitness(genes):
            return np.atleast_2d(genes)[:, 0] ** 2

        def never_valid(genes):
            return np.zeros(np.atleast_2d(genes).shape[0], dtype=bool)

        start = np.full(GENES, 3.0)
        refined = local_polish(start, fitness, validity_fn=never_valid)
        assert np.array_equal(refined, start)  # no move was allowed

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            local_polish(np.zeros(5), lambda g: np.zeros(1))


class TestRefineAnnotation:
    def test_improves_fitness_of_rough_annotation(self):
        true_pose = StickPose.standing(60.0, 50.0)
        mask = person_mask_for_pose(true_pose, BODY, (120, 160))
        rough = FirstFrameAnnotation(
            pose=true_pose.translated(2.0, -1.5).with_angle("thigh", 172.0),
            dims=BODY,
        )
        refined = refine_annotation(rough, mask)
        fitness = SilhouetteFitness(mask, BODY)
        assert fitness.evaluate_pose(refined.pose) <= fitness.evaluate_pose(
            rough.pose
        )
        # thicknesses were re-calibrated
        assert refined.dims.thicknesses != BODY.thicknesses

