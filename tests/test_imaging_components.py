"""Tests for connected-component labelling and spot removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.imaging.components import (
    component_stats,
    dominant_components,
    label_components,
    largest_component,
    remove_small_components,
    top_n_components,
)


def _mask_from_string(art: str) -> np.ndarray:
    rows = [line.strip() for line in art.strip().splitlines()]
    return np.array([[ch == "#" for ch in row] for row in rows])


class TestLabelComponents:
    def test_empty(self):
        labels, count = label_components(np.zeros((4, 4), dtype=bool))
        assert count == 0 and not labels.any()

    def test_single_blob(self):
        mask = _mask_from_string(
            """
            .##.
            .##.
            ....
            """
        )
        labels, count = label_components(mask)
        assert count == 1
        assert (labels[mask] == 1).all()

    def test_two_blobs_4_connectivity(self):
        mask = _mask_from_string(
            """
            #..
            .#.
            ..#
            """
        )
        _, count4 = label_components(mask, connectivity=4)
        _, count8 = label_components(mask, connectivity=8)
        assert count4 == 3
        assert count8 == 1

    def test_u_shape_merges(self):
        # A U shape requires the union-find merge pass.
        mask = _mask_from_string(
            """
            #.#
            #.#
            ###
            """
        )
        labels, count = label_components(mask, connectivity=4)
        assert count == 1
        assert set(np.unique(labels)) == {0, 1}

    def test_labels_compact(self):
        rng = np.random.default_rng(2)
        mask = rng.random((20, 20)) > 0.7
        labels, count = label_components(mask)
        present = set(np.unique(labels)) - {0}
        assert present == set(range(1, count + 1))


class TestComponentStats:
    def test_area_and_centroid(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True
        labels, count = label_components(mask)
        stats = component_stats(labels, count)
        assert len(stats) == 1
        assert stats[0].area == 4
        assert stats[0].centroid == (2.5, 2.5)
        assert stats[0].bbox.height == 2


class TestRemoveSmall:
    def test_small_spot_removed(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:5, 1:5] = True  # area 16
        mask[8, 8] = True  # area 1
        out = remove_small_components(mask, min_area=5)
        assert out[2, 2] and not out[8, 8]

    def test_min_area_one_keeps_all(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        assert remove_small_components(mask, min_area=1).any()


class TestLargestAndDominant:
    def test_largest(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0:2, 0:2] = True  # 4 px
        mask[5:9, 5:9] = True  # 16 px
        out = largest_component(mask)
        assert out[6, 6] and not out[0, 0]

    def test_dominant_keeps_near_equal_parts(self):
        mask = np.zeros((10, 12), dtype=bool)
        mask[1:5, 1:5] = True  # 16 px
        mask[6:9, 6:11] = True  # 15 px
        mask[0, 11] = True  # 1 px debris
        out = dominant_components(mask, keep_fraction=0.3)
        assert out[2, 2] and out[7, 7] and not out[0, 11]

    def test_dominant_empty(self):
        assert not dominant_components(np.zeros((3, 3), dtype=bool)).any()

    def test_dominant_validates_fraction(self):
        with pytest.raises(ValueError):
            dominant_components(np.zeros((3, 3), dtype=bool), keep_fraction=0.0)


class TestTopNComponents:
    def test_ordered_by_area_descending(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[0:2, 0:2] = True  # 4 px
        mask[5:10, 5:10] = True  # 25 px
        mask[14:17, 14:17] = True  # 9 px
        parts = top_n_components(mask, 3)
        assert [int(p.sum()) for p in parts] == [25, 9, 4]

    def test_n_truncates(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[0:2, 0:2] = True
        mask[5:10, 5:10] = True
        parts = top_n_components(mask, 1)
        assert len(parts) == 1 and int(parts[0].sum()) == 25

    def test_min_area_filters(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[0:4, 0:4] = True  # 16 px
        mask[10, 10] = True  # 1 px
        parts = top_n_components(mask, 5, min_area=5)
        assert len(parts) == 1

    def test_equal_area_ties_break_in_raster_order(self):
        # Two identical 3x3 squares: the one whose first pixel comes
        # first in raster order (top-to-bottom, left-to-right) wins.
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:5, 10:13] = True  # upper-right square, first pixel (2, 10)
        mask[6:9, 1:4] = True  # lower-left square, first pixel (6, 1)
        first, second = top_n_components(mask, 2)
        assert first[2, 10] and not first[6, 1]
        assert second[6, 1] and not second[2, 10]

    def test_tie_break_deterministic_across_calls(self):
        rng = np.random.default_rng(9)
        mask = rng.random((30, 30)) > 0.6
        runs = [top_n_components(mask, 4) for _ in range(3)]
        for other in runs[1:]:
            assert len(other) == len(runs[0])
            for a, b in zip(runs[0], other):
                assert np.array_equal(a, b)

    def test_masks_are_disjoint_and_cover(self):
        rng = np.random.default_rng(3)
        mask = rng.random((25, 25)) > 0.7
        parts = top_n_components(mask, 1000)
        union = np.zeros_like(mask)
        total = 0
        for part in parts:
            assert not (union & part).any()
            union |= part
            total += int(part.sum())
        assert np.array_equal(union, mask)
        assert total == int(mask.sum())

    def test_empty_mask(self):
        assert top_n_components(np.zeros((5, 5), dtype=bool), 3) == []

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            top_n_components(np.zeros((5, 5), dtype=bool), 0)


# ----------------------------------------------------------------------
# The numbering contract: labels follow the raster order of each
# region's first pixel.  Area-ranking callers break ties by it.
# ----------------------------------------------------------------------
_NEIGHBOURS = {
    4: ((-1, 0), (1, 0), (0, -1), (0, 1)),
    8: ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)),
}


def _flood_fill_labels(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Reference labelling: flood-fill from each new pixel in raster order."""
    rows, cols = mask.shape
    labels = np.zeros(mask.shape, dtype=np.int64)
    count = 0
    for r in range(rows):
        for c in range(cols):
            if not mask[r, c] or labels[r, c]:
                continue
            count += 1
            labels[r, c] = count
            stack = [(r, c)]
            while stack:
                y, x = stack.pop()
                for dy, dx in _NEIGHBOURS[connectivity]:
                    yy, xx = y + dy, x + dx
                    if (
                        0 <= yy < rows
                        and 0 <= xx < cols
                        and mask[yy, xx]
                        and not labels[yy, xx]
                    ):
                        labels[yy, xx] = count
                        stack.append((yy, xx))
    return labels, count


class TestLabelNumberingContract:
    def test_first_pixel_raster_order_regression(self):
        # The region holding (0, 1) starts before the lone pixel (0, 4)
        # in raster order, though its union-find root sorted after it.
        mask = np.array(
            [
                [0, 1, 0, 0, 1],
                [1, 1, 0, 0, 0],
                [1, 0, 0, 0, 1],
                [1, 0, 1, 1, 1],
                [0, 1, 1, 0, 1],
            ],
            dtype=bool,
        )
        labels, count = label_components(mask)
        assert count == 2
        assert labels[0, 1] == 1
        assert labels[0, 4] == 2

    def test_labels_dtype(self):
        labels, _ = label_components(np.ones((3, 3), dtype=bool))
        assert labels.dtype == np.int32

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((3, 3), dtype=bool), connectivity=6)

    @given(
        # fill=nothing draws every pixel; the default fill makes most
        # masks near-constant, which rarely form interleaved regions.
        mask=arrays(
            bool,
            st.tuples(st.integers(1, 32), st.integers(1, 32)),
            elements=st.booleans(),
            fill=st.nothing(),
        ),
        connectivity=st.sampled_from([4, 8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_flood_fill_in_raster_order(self, mask, connectivity):
        labels, count = label_components(mask, connectivity=connectivity)
        # Raster order: each label's first pixel comes after the
        # previous label's first pixel.
        firsts = [
            int(np.flatnonzero(labels.ravel() == k)[0]) for k in range(1, count + 1)
        ]
        assert firsts == sorted(firsts)
        reference, ref_count = _flood_fill_labels(mask, connectivity)
        assert count == ref_count
        assert np.array_equal(labels, reference)
