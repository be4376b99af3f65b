"""Tests for IoU data association (Hungarian matching)."""

import numpy as np
import pytest

from repro.tracking.association import (
    associate,
    box_iou,
    hungarian_match,
    iou_matrix,
)
from repro.types import BoundingBox


def box(row_min, col_min, row_max, col_max):
    return BoundingBox(row_min, col_min, row_max, col_max)


class TestBoxIoU:
    def test_identical_boxes(self):
        b = box(0, 0, 9, 9)
        assert box_iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert box_iou(box(0, 0, 4, 4), box(10, 10, 14, 14)) == 0.0

    def test_known_overlap(self):
        # 10x10 boxes offset by 5 rows: overlap 50, union 150.
        a = box(0, 0, 9, 9)
        b = box(5, 0, 14, 9)
        assert box_iou(a, b) == pytest.approx(50 / 150)

    def test_none_is_zero(self):
        assert box_iou(None, box(0, 0, 4, 4)) == 0.0
        assert box_iou(box(0, 0, 4, 4), None) == 0.0
        assert box_iou(None, None) == 0.0

    def test_symmetric(self):
        a = box(2, 3, 11, 12)
        b = box(5, 5, 20, 9)
        assert box_iou(a, b) == box_iou(b, a)


class TestIoUMatrix:
    def test_shape_and_values(self):
        rows = [box(0, 0, 9, 9), None]
        cols = [box(0, 0, 9, 9), box(20, 20, 29, 29), None]
        matrix = iou_matrix(rows, cols)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == 1.0
        assert matrix[0, 1] == 0.0
        assert (matrix[1, :] == 0.0).all()
        assert (matrix[:, 2] == 0.0).all()

    def test_empty(self):
        assert iou_matrix([], []).shape == (0, 0)


class TestHungarianMatch:
    def test_optimal_where_greedy_is_not(self):
        # Greedy grabs (0, 0) = 0.5, leaving (1, 1) = 0.05 below the
        # threshold: one match.  The optimal assignment takes the two
        # 0.4 pairs instead: two matches.
        matrix = np.array([[0.5, 0.4], [0.4, 0.05]])
        assert sorted(hungarian_match(matrix, 0.1)) == [(0, 1), (1, 0)]

    def test_threshold_applied_after_solving(self):
        matrix = np.array([[0.05, 0.0], [0.0, 0.05]])
        assert hungarian_match(matrix, 0.1) == []

    def test_agrees_with_greedy_on_dominant_diagonal(self):
        # One clearly best candidate per track: the (unique) optimal
        # assignment is the one greedy matching would also find.
        matrix = np.array(
            [
                [0.9, 0.1, 0.05],
                [0.1, 0.8, 0.1],
                [0.05, 0.1, 0.7],
            ]
        )
        expected = [(0, 0), (1, 1), (2, 2)]
        assert sorted(hungarian_match(matrix, 0.2)) == expected

    def test_empty_matrix(self):
        assert hungarian_match(np.zeros((0, 2)), 0.1) == []


class TestAssociate:
    def test_result_partitions_rows_and_cols(self):
        tracks = [box(0, 0, 9, 9), box(30, 30, 39, 39)]
        candidates = [box(1, 1, 10, 10), box(50, 50, 59, 59)]
        result = associate(tracks, candidates)
        assert result.matches == ((0, 0),)
        assert result.unmatched_rows == (1,)
        assert result.unmatched_cols == (1,)

    def test_matches_sorted(self):
        tracks = [box(30, 30, 39, 39), box(0, 0, 9, 9)]
        candidates = [box(0, 0, 9, 9), box(30, 30, 39, 39)]
        result = associate(tracks, candidates)
        assert result.matches == ((0, 1), (1, 0))

    def test_empty_inputs(self):
        result = associate([], [])
        assert result.matches == ()
        assert result.unmatched_rows == ()
        assert result.unmatched_cols == ()

    def test_none_boxes_never_match(self):
        result = associate([None], [box(0, 0, 9, 9)])
        assert result.matches == ()
        assert result.unmatched_rows == (0,)
        assert result.unmatched_cols == (0,)

    def test_deterministic(self):
        tracks = [box(0, 0, 9, 9), box(5, 5, 14, 14)]
        candidates = [box(4, 4, 13, 13), box(1, 1, 10, 10)]
        first = associate(tracks, candidates)
        second = associate(tracks, candidates)
        assert first == second
