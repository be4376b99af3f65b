"""IoU data association between predicted pose boxes and components.

The matching problem is tiny (a handful of tracks against a handful of
silhouette candidates per frame), so it is solved optimally: the
Hungarian method (``scipy.optimize.linear_sum_assignment``) on the
negated IoU matrix, as posepile does.  Pairs below ``iou_threshold``
are rejected: a track that overlaps no candidate is a *miss* (the
lifecycle carries it forward), and a candidate that overlaps no track
is a *birth* candidate.

Boxes are :class:`~repro.types.BoundingBox` image-coordinate boxes,
the same type segmentation's component stats use, so ground-truth
boxes from synthesis and predicted boxes from poses compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..types import BoundingBox


def box_iou(a: BoundingBox | None, b: BoundingBox | None) -> float:
    """Intersection-over-union of two (possibly absent) boxes."""
    if a is None or b is None:
        return 0.0
    overlap = a.intersection(b)
    if overlap is None:
        return 0.0
    union = a.area + b.area - overlap.area
    return overlap.area / union if union else 0.0


def iou_matrix(
    rows: Sequence[BoundingBox | None],
    cols: Sequence[BoundingBox | None],
) -> np.ndarray:
    """Pairwise IoU, ``rows`` (tracks) x ``cols`` (candidates)."""
    matrix = np.zeros((len(rows), len(cols)), dtype=np.float64)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            matrix[i, j] = box_iou(a, b)
    return matrix


@dataclass(frozen=True, slots=True)
class AssociationResult:
    """Outcome of one frame's matching."""

    matches: tuple[tuple[int, int], ...] = ()  # (row, col) index pairs
    unmatched_rows: tuple[int, ...] = ()  # tracks that missed
    unmatched_cols: tuple[int, ...] = ()  # birth candidates

    def __post_init__(self) -> None:
        object.__setattr__(self, "matches", tuple(self.matches))
        object.__setattr__(self, "unmatched_rows", tuple(self.unmatched_rows))
        object.__setattr__(self, "unmatched_cols", tuple(self.unmatched_cols))


def hungarian_match(
    matrix: np.ndarray, iou_threshold: float
) -> list[tuple[int, int]]:
    """Optimal assignment on the negated IoU matrix (posepile-style).

    Assignments below the threshold are discarded after solving.
    """
    if matrix.size == 0:
        return []
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-matrix)
    return [
        (int(r), int(c))
        for r, c in zip(rows, cols)
        if matrix[r, c] >= iou_threshold and matrix[r, c] > 0.0
    ]


def associate(
    track_boxes: Sequence[BoundingBox | None],
    candidate_boxes: Sequence[BoundingBox | None],
    iou_threshold: float = 0.1,
) -> AssociationResult:
    """Match predicted track boxes against new silhouette candidates."""
    matrix = iou_matrix(track_boxes, candidate_boxes)
    matches = sorted(hungarian_match(matrix, iou_threshold))
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return AssociationResult(
        matches=tuple(matches),
        unmatched_rows=tuple(
            i for i in range(len(track_boxes)) if i not in matched_rows
        ),
        unmatched_cols=tuple(
            j for j in range(len(candidate_boxes)) if j not in matched_cols
        ),
    )
