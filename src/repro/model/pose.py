"""Stick pose: the paper's 10-value state and its forward kinematics.

A pose is ``(x0, y0, ρ0, ρ1, ..., ρ7)``: the trunk-centre position and
the eight stick angles (degrees from vertical, Section 3 / Fig. 5).
Forward kinematics turns a pose plus :class:`~repro.model.sticks.BodyDimensions`
into the eight world-space segments of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import wrap_angle
from .sticks import (
    FOOT,
    FOREARM,
    HEAD,
    NECK,
    NUM_STICKS,
    PARENT,
    SHANK,
    STICK_NAMES,
    THIGH,
    TRUNK,
    UPPER_ARM,
    BodyDimensions,
    stick_index,
)
from ..errors import ModelError

GENES = NUM_STICKS + 2  # x0, y0, rho0..rho7


@lru_cache(maxsize=32)
def _cached_lengths(dims: BodyDimensions) -> np.ndarray:
    """Stick lengths as a read-only array, converted once per dims."""
    lengths = np.asarray(dims.lengths, dtype=np.float64)
    lengths.setflags(write=False)
    return lengths


#: The kinematic chain of :data:`PARENT` resolved once into
#: ``(stick, parent, parent_end_index)`` tuples — the trunk's "upper"
#: end and every distal attachment are segment end 1, "lower" is end 0.
_CHAIN: tuple[tuple[int, int, int], ...] = tuple(
    (stick, parent, 0 if end == "lower" else 1)
    for stick, (parent, end) in PARENT.items()
)

#: Human-readable joint names produced by :meth:`StickPose.joints`.
JOINT_NAMES = (
    "trunk_center",
    "hip",
    "shoulder",
    "neck_top",
    "head_top",
    "elbow",
    "wrist",
    "knee",
    "ankle",
    "toe",
)


@dataclass(frozen=True, slots=True)
class StickPose:
    """One frame's pose: trunk centre plus eight stick angles (degrees)."""

    x0: float
    y0: float
    angles_deg: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.angles_deg) != NUM_STICKS:
            raise ModelError(
                f"need {NUM_STICKS} stick angles, got {len(self.angles_deg)}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def standing(cls, x0: float, y0: float) -> "StickPose":
        """An upright standing pose at trunk centre ``(x0, y0)``.

        Trunk, neck and head vertical; arm hanging down; leg straight
        down; foot pointing forward.
        """
        angles = [0.0] * NUM_STICKS
        angles[UPPER_ARM] = 180.0
        angles[FOREARM] = 180.0
        angles[THIGH] = 180.0
        angles[SHANK] = 180.0
        angles[FOOT] = 90.0
        return cls(x0=x0, y0=y0, angles_deg=tuple(angles))

    @classmethod
    def from_genes(cls, genes: np.ndarray) -> "StickPose":
        """Build a pose from a 10-gene chromosome vector."""
        genes = np.asarray(genes, dtype=np.float64)
        if genes.shape != (GENES,):
            raise ModelError(f"chromosome must have shape ({GENES},), got {genes.shape}")
        return cls(
            x0=float(genes[0]),
            y0=float(genes[1]),
            angles_deg=tuple(float(wrap_angle(a)) for a in genes[2:]),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def to_genes(self) -> np.ndarray:
        """Return the 10-gene chromosome ``[x0, y0, ρ0..ρ7]``."""
        return np.array([self.x0, self.y0, *self.angles_deg], dtype=np.float64)

    def angle(self, stick: int | str) -> float:
        """Angle (degrees) of a stick given by index or name."""
        index = stick if isinstance(stick, int) else stick_index(stick)
        if not 0 <= index < NUM_STICKS:
            raise ModelError(f"stick index out of range: {index}")
        return self.angles_deg[index]

    def with_angle(self, stick: int | str, angle_deg: float) -> "StickPose":
        """Return a copy with one stick angle replaced."""
        index = stick if isinstance(stick, int) else stick_index(stick)
        angles = list(self.angles_deg)
        angles[index] = float(wrap_angle(angle_deg))
        return replace(self, angles_deg=tuple(angles))

    def translated(self, dx: float, dy: float) -> "StickPose":
        """Return a copy with the trunk centre moved by ``(dx, dy)``."""
        return replace(self, x0=self.x0 + dx, y0=self.y0 + dy)

    # ------------------------------------------------------------------
    # Kinematics
    # ------------------------------------------------------------------
    def segments(self, dims: BodyDimensions) -> np.ndarray:
        """World-space segments ``(8, 2, 2)``; ``[l, 0]`` is proximal."""
        return forward_kinematics(self.to_genes()[None, :], dims)[0]

    def joints(self, dims: BodyDimensions) -> dict[str, np.ndarray]:
        """Named joint positions in world coordinates."""
        segs = self.segments(dims)
        return {
            "trunk_center": np.array([self.x0, self.y0]),
            "hip": segs[TRUNK, 0],
            "shoulder": segs[TRUNK, 1],
            "neck_top": segs[NECK, 1],
            "head_top": segs[HEAD, 1],
            "elbow": segs[UPPER_ARM, 1],
            "wrist": segs[FOREARM, 1],
            "knee": segs[THIGH, 1],
            "ankle": segs[SHANK, 1],
            "toe": segs[FOOT, 1],
        }

    def blended(self, other: "StickPose", weight: float) -> "StickPose":
        """Interpolate toward ``other``: 0 → self, 1 → other.

        Angles interpolate along the shortest arc so a blend never
        swings a limb the long way around the circle.
        """
        from .geometry import angle_difference

        if not 0.0 <= weight <= 1.0:
            raise ModelError(f"blend weight must be in [0, 1], got {weight}")
        angles = tuple(
            float(
                wrap_angle(
                    a + weight * angle_difference(b, a)
                )
            )
            for a, b in zip(self.angles_deg, other.angles_deg)
        )
        return StickPose(
            x0=self.x0 + weight * (other.x0 - self.x0),
            y0=self.y0 + weight * (other.y0 - self.y0),
            angles_deg=angles,
        )


def forward_kinematics(genes: np.ndarray, dims: BodyDimensions) -> np.ndarray:
    """Vectorised forward kinematics for a batch of chromosomes.

    Parameters
    ----------
    genes:
        Array ``(P, 10)`` of chromosomes ``[x0, y0, ρ0..ρ7]``.
    dims:
        Stick lengths and thicknesses.

    Returns
    -------
    Array ``(P, 8, 2, 2)`` of world-space segments; ``[p, l, 0]`` is the
    proximal end of stick ``l`` (trunk: its lower end) and ``[p, l, 1]``
    the distal end (trunk: its upper end).
    """
    genes = np.asarray(genes, dtype=np.float64)
    if genes.ndim != 2 or genes.shape[1] != GENES:
        raise ModelError(f"genes must have shape (P, {GENES}), got {genes.shape}")
    population = genes.shape[0]
    lengths = _cached_lengths(dims)

    centers = genes[:, :2]  # (P, 2)
    # Inlined `direction`: write sin/cos straight into the output
    # layout instead of stacking — this runs for every containment
    # check of a bred child, mostly with P of 1 to 9, where the fixed
    # overhead of extra allocations dominates.
    rad = np.deg2rad(genes[:, 2:])
    dirs = np.empty((population, NUM_STICKS, 2), dtype=np.float64)
    np.sin(rad, out=dirs[:, :, 0])
    np.cos(rad, out=dirs[:, :, 1])

    segments = np.empty((population, NUM_STICKS, 2, 2), dtype=np.float64)

    # One multiply covers every stick's distal offset; the chain loop
    # below then only anchors and adds.  Elementwise identical to the
    # per-stick `lengths[stick] * dirs[:, stick]` products.
    offsets = lengths[None, :, None] * dirs

    # Trunk: centre +/- half length along its direction.
    half_trunk = 0.5 * lengths[TRUNK]
    segments[:, TRUNK, 0] = centers - half_trunk * dirs[:, TRUNK]  # lower/hip
    segments[:, TRUNK, 1] = centers + half_trunk * dirs[:, TRUNK]  # upper

    # Children in evaluation order (parents first).
    for stick, parent, end in _CHAIN:
        anchor = segments[:, parent, end]
        segments[:, stick, 0] = anchor
        segments[:, stick, 1] = anchor + offsets[:, stick]

    return segments


def pose_angle_errors(estimated: StickPose, truth: StickPose) -> np.ndarray:
    """Absolute per-stick angle errors in degrees (shortest arc)."""
    from .geometry import angle_difference

    return np.abs(
        np.asarray(
            [
                angle_difference(a, b)
                for a, b in zip(estimated.angles_deg, truth.angles_deg)
            ]
        )
    )


def mean_joint_error(
    estimated: StickPose, truth: StickPose, dims: BodyDimensions
) -> float:
    """Mean Euclidean distance between corresponding joints (pixels)."""
    est = estimated.joints(dims)
    ref = truth.joints(dims)
    dists = [np.linalg.norm(est[name] - ref[name]) for name in est]
    return float(np.mean(dists))


def describe_pose(pose: StickPose) -> str:
    """One-line human-readable description of a pose."""
    angles = ", ".join(
        f"{name}={angle:.1f}" for name, angle in zip(STICK_NAMES, pose.angles_deg)
    )
    return f"StickPose(center=({pose.x0:.1f}, {pose.y0:.1f}), {angles})"
