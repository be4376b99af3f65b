"""The paper's silhouette-fitness function (Eq. 3) and thickness fitting.

For a silhouette of ``N`` points and a stick model with segments
``S_0..S_7`` of area thickness ``t_l``::

    F_S = ( Σ_{(xi,yj) ∈ silhouette}  min_l  d((xi,yj), S_l) / t_l ) / N

Smaller is better: a pose whose (thickness-normalised) sticks pass near
every silhouette point scores low.  The thicknesses come from the
human-annotated first frame (:func:`estimate_thicknesses`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .chromosome import RowMemo
from .geometry import mask_points_world, points_to_segments_distance
from .pose import GENES, StickPose, forward_kinematics
from .sticks import NUM_STICKS, BodyDimensions
from ..errors import ConfigurationError, ModelError
from ..imaging.image import ensure_mask


@dataclass(frozen=True, slots=True)
class FitnessConfig:
    """Controls for the fitness evaluation.

    ``max_points`` caps the number of silhouette points used (uniform
    subsampling) to bound the cost of one evaluation; 0 disables the
    cap and uses every silhouette pixel like the paper.
    """

    max_points: int = 1500
    subsample_seed: int = 7

    def __post_init__(self) -> None:
        if self.max_points < 0:
            raise ConfigurationError(
                f"max_points must be >= 0, got {self.max_points}"
            )


def _adaptive_chunk(num_points: int) -> int:
    """Chromosomes per block keeping the distance matrix ~4 MB."""
    target_elements = 512 * 1024
    return int(np.clip(target_elements // max(num_points * NUM_STICKS, 1), 8, 256))


def _row_means(minima: np.ndarray) -> np.ndarray:
    """Per-chromosome mean of ``(N, C)`` point minima, one row at a time.

    Reducing the ``(N, C)`` block down its columns accumulates point by
    point, but a lone column is summed pairwise, so a chromosome's
    score would depend on how many rows shared its batch.  Summing each
    chromosome's minima as one contiguous row makes numpy reduce every
    row pairwise, the same bits whatever ``C`` is — which is what lets
    :class:`SilhouetteFitness` reuse a score across batches.
    """
    return np.ascontiguousarray(minima.T, dtype=np.float64).mean(axis=1)


class SilhouetteFitness:
    """Evaluate Eq. 3 for chromosomes against one silhouette.

    The silhouette's pixel coordinates are extracted once at
    construction; each call to :meth:`evaluate` then costs one batched
    point-to-segment distance computation over the chromosomes this
    instance has not scored before.  Every score is remembered for the
    instance's lifetime (one silhouette), so elites and bit-exact
    parent copies are answered from the table.
    """

    def __init__(
        self,
        mask: np.ndarray,
        dims: BodyDimensions,
        config: FitnessConfig | None = None,
    ) -> None:
        mask = ensure_mask(mask)
        self._mask = mask
        self._dims = dims
        self._config = config or FitnessConfig()

        points = mask_points_world(mask)
        if points.shape[0] == 0:
            raise ModelError("cannot build a fitness over an empty silhouette")
        self._total_points = points.shape[0]
        cap = self._config.max_points
        if cap and points.shape[0] > cap:
            rng = np.random.default_rng(self._config.subsample_seed)
            chosen = rng.choice(points.shape[0], size=cap, replace=False)
            chosen.sort()
            points = points[chosen]
        self._points = points
        self._thickness = np.asarray(dims.thicknesses, dtype=np.float64)
        self._scores = RowMemo(np.float64)

    @property
    def mask(self) -> np.ndarray:
        """The silhouette this fitness was built over."""
        return self._mask

    @property
    def dims(self) -> BodyDimensions:
        """Body dimensions used for forward kinematics."""
        return self._dims

    @property
    def num_points(self) -> int:
        """Number of silhouette points actually used in the sum."""
        return self._points.shape[0]

    @property
    def total_points(self) -> int:
        """Number of silhouette pixels before subsampling."""
        return self._total_points

    @property
    def rows_scored(self) -> int:
        """Distinct chromosomes this instance has run through Eq. 3."""
        return self._scores.rows_computed

    def evaluate(self, genes: np.ndarray) -> np.ndarray:
        """Fitness of each chromosome in a ``(P, 10)`` batch (lower = better)."""
        genes = np.asarray(genes, dtype=np.float64)
        squeeze = genes.ndim == 1
        if squeeze:
            genes = genes[None, :]
        if genes.ndim != 2 or genes.shape[1] != GENES:
            raise ModelError(f"genes must have shape (P, {GENES}), got {genes.shape}")
        scores = self._scores(genes, self._score)
        return scores[0] if squeeze else scores

    def _score(self, genes: np.ndarray) -> np.ndarray:
        """Eq. 3 for every row of ``genes``, with no table lookup."""
        segments = forward_kinematics(genes, self._dims)  # (P, 8, 2, 2)
        population = segments.shape[0]
        num_points = self._points.shape[0]
        # Chunk the population so the (N, C*8) distance matrix stays
        # small enough to be cache-friendly.
        chunk = _adaptive_chunk(num_points)
        scores = np.empty(population, dtype=np.float64)
        for start in range(0, population, chunk):
            block = segments[start : start + chunk]  # (C, 8, 2, 2)
            flat = block.reshape(-1, 2, 2)
            dists = geometry._segment_distances_fast(self._points, flat)
            dists = dists.reshape(num_points, block.shape[0], NUM_STICKS)
            normalised = dists / self._thickness[None, None, :]
            # Stick by stick rather than `min(axis=2)`: the same minima
            # (min is exact), several times faster over an axis of 8.
            minima = np.minimum(normalised[..., 0], normalised[..., 1])
            for stick in range(2, NUM_STICKS):
                np.minimum(minima, normalised[..., stick], out=minima)
            scores[start : start + block.shape[0]] = _row_means(minima)
        return scores

    def evaluate_pose(self, pose: StickPose) -> float:
        """Fitness of a single :class:`StickPose`."""
        return float(self.evaluate(pose.to_genes()))

    def per_stick_coverage(self, pose: StickPose) -> np.ndarray:
        """Fraction of silhouette points nearest to each stick.

        Diagnostic: a well-fit model assigns points to all body parts;
        a collapsed model funnels everything to the trunk.
        """
        segments = pose.segments(self._dims)
        dists = points_to_segments_distance(self._points, segments)
        nearest = (dists / self._thickness[None, :]).argmin(axis=1)
        return np.bincount(nearest, minlength=NUM_STICKS) / self._points.shape[0]


def estimate_thicknesses(
    mask: np.ndarray,
    pose: StickPose,
    dims: BodyDimensions,
    floor: float = 1.0,
) -> np.ndarray:
    """Estimate per-stick thickness ``t_l`` from an annotated frame.

    The paper: "the thickness of all sticks' area can be estimated from
    the stick model drawn by human in the first frame."  Each
    silhouette point is assigned to its nearest stick; for a solid limb
    of half-width ``w`` the mean perpendicular distance of its points
    to the stick axis is ``w / 2``, so the full thickness is four times
    the mean assigned distance.  Sticks that attract no points keep
    their prior thickness from ``dims``.
    """
    mask = ensure_mask(mask)
    points = mask_points_world(mask)
    if points.shape[0] == 0:
        raise ModelError("cannot estimate thickness from an empty silhouette")
    segments = pose.segments(dims)
    dists = points_to_segments_distance(points, segments)
    # Assign by *normalised* distance so thick parts do not swallow
    # points belonging to their thin neighbours.
    prior = np.asarray(dims.thicknesses, dtype=np.float64)
    nearest = (dists / prior[None, :]).argmin(axis=1)

    thickness = prior.copy()
    for stick in range(NUM_STICKS):
        selected = nearest == stick
        if selected.any():
            thickness[stick] = max(4.0 * float(dists[selected, stick].mean()), floor)
    return thickness
