"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.imaging.color import hsv_to_rgb, hue_distance, rgb_to_hsv
from repro.imaging.metrics import confusion
from repro.imaging.morphology import closing, dilate, erode, opening
from repro.imaging.neighbors import count_neighbors, remove_noise_pixels
from repro.model.geometry import (
    angle_difference,
    direction,
    image_to_world,
    points_to_segments_distance,
    world_to_image,
    wrap_angle,
)
from repro.model.fitness import FitnessConfig, SilhouetteFitness
from repro.model.pose import GENES, StickPose, forward_kinematics
from repro.model.sticks import default_body

BODY = default_body(60.0)

masks = arrays(bool, (12, 14), elements=st.booleans())
small_rgb = arrays(
    np.float64,
    (6, 7, 3),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
)
angles = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)


class TestColorProperties:
    @given(small_rgb)
    @settings(max_examples=40, deadline=None)
    def test_hsv_roundtrip(self, image):
        assert np.allclose(hsv_to_rgb(rgb_to_hsv(image)), image, atol=1e-8)

    @given(angles, angles)
    @settings(max_examples=100, deadline=None)
    def test_hue_distance_bounds_and_symmetry(self, a, b):
        d = float(hue_distance(np.array(a), np.array(b)))
        assert 0.0 <= d <= 180.0
        assert d == float(hue_distance(np.array(b), np.array(a)))


class TestAngleProperties:
    @given(angles)
    @settings(max_examples=100, deadline=None)
    def test_wrap_idempotent(self, a):
        w = wrap_angle(a)
        assert 0.0 <= w < 360.0
        assert wrap_angle(w) == w

    @given(angles, angles)
    @settings(max_examples=100, deadline=None)
    def test_difference_antisymmetric(self, a, b):
        d1 = angle_difference(a, b)
        d2 = angle_difference(b, a)
        if abs(abs(d1) - 180.0) > 1e-6:  # antisymmetry is ambiguous at 180
            assert d1 == -d2 or abs(d1 + d2) < 1e-6

    @given(angles)
    @settings(max_examples=100, deadline=None)
    def test_direction_unit(self, a):
        assert np.linalg.norm(direction(a)) == 1.0 or abs(
            np.linalg.norm(direction(a)) - 1.0
        ) < 1e-12


class TestMorphologyProperties:
    @given(masks)
    @settings(max_examples=40, deadline=None)
    def test_dilation_extensive(self, mask):
        assert not (mask & ~dilate(mask)).any()

    @given(masks)
    @settings(max_examples=40, deadline=None)
    def test_erosion_anti_extensive(self, mask):
        assert not (erode(mask) & ~mask).any()

    @given(masks)
    @settings(max_examples=40, deadline=None)
    def test_open_close_ordering(self, mask):
        assert not (opening(mask) & ~mask).any()
        assert not (mask & ~closing(mask)).any()

    @given(masks)
    @settings(max_examples=40, deadline=None)
    def test_noise_removal_is_subset(self, mask):
        cleaned = remove_noise_pixels(mask, min_neighbors=3)
        assert not (cleaned & ~mask).any()

    @given(masks)
    @settings(max_examples=40, deadline=None)
    def test_neighbor_counts_bounded(self, mask):
        counts = count_neighbors(mask, connectivity=8)
        assert counts.min() >= 0 and counts.max() <= 8


class TestMetricProperties:
    @given(masks, masks)
    @settings(max_examples=40, deadline=None)
    def test_confusion_totals(self, predicted, truth):
        c = confusion(predicted, truth)
        total = c.true_positive + c.false_positive + c.false_negative + c.true_negative
        assert total == predicted.size
        assert 0.0 <= c.iou <= 1.0
        assert c.iou <= c.f1 + 1e-12  # IoU never exceeds F1


chromosomes = arrays(
    np.float64,
    (GENES,),
    elements=st.floats(-100.0, 460.0, allow_nan=False, width=32),
)


class TestKinematicProperties:
    @given(chromosomes)
    @settings(max_examples=60, deadline=None)
    def test_fk_segment_lengths_invariant(self, genes):
        segments = forward_kinematics(genes[None, :], BODY)[0]
        for stick in range(8):
            length = np.linalg.norm(segments[stick, 1] - segments[stick, 0])
            assert abs(length - BODY.lengths[stick]) < 1e-6

    @given(chromosomes, st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_fk_translation_equivariance(self, genes, dx, dy):
        base = forward_kinematics(genes[None, :], BODY)[0]
        moved_genes = genes.copy()
        moved_genes[0] += dx
        moved_genes[1] += dy
        moved = forward_kinematics(moved_genes[None, :], BODY)[0]
        assert np.allclose(moved, base + np.array([dx, dy]), atol=1e-8)

    @given(chromosomes)
    @settings(max_examples=40, deadline=None)
    def test_gene_roundtrip_preserves_pose(self, genes):
        pose = StickPose.from_genes(genes)
        again = StickPose.from_genes(pose.to_genes())
        assert np.allclose(pose.to_genes(), again.to_genes())


def _random_silhouette(rng):
    """A blotchy mask of a few hundred to ~1,400 points, never empty."""
    shape = (int(rng.integers(30, 48)), int(rng.integers(30, 48)))
    mask = rng.random(shape) < rng.uniform(0.2, 0.6)
    mask[shape[0] // 2, shape[1] // 2] = True
    return mask


class TestFitnessTableProperties:
    """A row's Eq. 3 score never depends on its batch or on the table."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_table_answers_exactly_what_the_kernel_computes(self, seed, rows):
        rng = np.random.default_rng(seed)
        config = FitnessConfig()
        mask = _random_silhouette(rng)
        height, width = mask.shape
        # Duplicates, and (past ~50 distinct rows) more distinct rows
        # than one adaptive chunk holds.
        distinct = np.column_stack([
            rng.uniform(0, width, max(1, 2 * rows // 3)),
            rng.uniform(0, height, max(1, 2 * rows // 3)),
            rng.uniform(0, 360, (max(1, 2 * rows // 3), GENES - 2)),
        ])
        batch = distinct[rng.integers(0, distinct.shape[0], rows)]

        fitness = SilhouetteFitness(mask, BODY, config)
        scores = fitness.evaluate(batch)
        alone = SilhouetteFitness(mask, BODY, config)
        singles = np.array([alone.evaluate(batch[i : i + 1])[0] for i in range(rows)])
        assert np.array_equal(scores, singles)
        assert np.array_equal(fitness.evaluate(batch), scores)

        # A table outliving its silhouette (say, keyed by id(self),
        # which a new instance may reuse) would answer for the old mask.
        other = np.roll(mask, 1 + int(rng.integers(0, width - 1)), axis=1)
        other[0, :] = ~other[0, :]
        expected = SilhouetteFitness(other, BODY, config)
        expected_scores = np.array(
            [expected.evaluate(batch[i : i + 1])[0] for i in range(rows)]
        )
        del fitness, alone
        assert np.array_equal(
            SilhouetteFitness(other, BODY, config).evaluate(batch), expected_scores
        )


class TestCoordinateProperties:
    @given(
        arrays(np.float64, (5, 2), elements=st.floats(-100, 300, allow_nan=False, width=32)),
        st.integers(10, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_world_image_inverse(self, points, height):
        assert np.allclose(
            image_to_world(world_to_image(points, height), height), points
        )


class TestDistanceProperties:
    @given(
        arrays(np.float64, (6, 2), elements=st.floats(-50, 50, allow_nan=False, width=32)),
        arrays(np.float64, (3, 2, 2), elements=st.floats(-50, 50, allow_nan=False, width=32)),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_nonnegative_and_bounded(self, points, segments):
        distances = points_to_segments_distance(points, segments)
        assert (distances >= 0).all()
        # distance to a segment never exceeds distance to its endpoints
        for s in range(3):
            to_start = np.linalg.norm(points - segments[s, 0], axis=1)
            to_end = np.linalg.norm(points - segments[s, 1], axis=1)
            assert (distances[:, s] <= np.minimum(to_start, to_end) + 1e-9).all()
