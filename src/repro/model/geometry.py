"""Geometry kernels: angles, directions, point–segment distance.

World coordinates are y-up with +x the jump direction.  A stick with
angle ``ρ`` (degrees from the +y axis, rotating toward +x) has unit
direction ``(sin ρ, cos ρ)``.  Images are row-major y-down; the
conversion helpers at the bottom translate between the two frames.
"""

from __future__ import annotations

import numpy as np


def direction(angle_deg: float | np.ndarray) -> np.ndarray:
    """Unit direction ``(sin ρ, cos ρ)`` for angle(s) in degrees.

    For scalar input returns shape ``(2,)``; for an array of shape
    ``(...,)`` returns ``(..., 2)``.
    """
    rad = np.deg2rad(np.asarray(angle_deg, dtype=np.float64))
    return np.stack([np.sin(rad), np.cos(rad)], axis=-1)


def wrap_angle(angle_deg: float | np.ndarray) -> np.ndarray | float:
    """Wrap angle(s) into ``[0, 360)`` degrees."""
    wrapped = np.mod(np.asarray(angle_deg, dtype=np.float64), 360.0)
    # np.mod(-1e-14, 360) rounds to exactly 360.0; keep the interval
    # half-open.
    wrapped = np.where(wrapped >= 360.0, 0.0, wrapped)
    if np.ndim(angle_deg) == 0:
        return float(wrapped)
    return wrapped


def angle_difference(a_deg: float | np.ndarray, b_deg: float | np.ndarray) -> np.ndarray | float:
    """Signed smallest difference ``a - b`` in ``(-180, 180]`` degrees."""
    diff = np.mod(
        np.asarray(a_deg, dtype=np.float64) - np.asarray(b_deg, dtype=np.float64) + 180.0,
        360.0,
    ) - 180.0
    # Map the wrap artefact -180 to +180 so the interval is (-180, 180].
    diff = np.where(diff == -180.0, 180.0, diff)
    if np.ndim(a_deg) == 0 and np.ndim(b_deg) == 0:
        return float(diff)
    return diff


def points_to_segments_distance(points: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Distance from each point to each segment.

    Parameters
    ----------
    points:
        Array of shape ``(N, 2)``.
    segments:
        Array of shape ``(S, 2, 2)``: ``segments[s, 0]`` is the start
        point and ``segments[s, 1]`` the end point.

    Returns
    -------
    Array of shape ``(N, S)`` of Euclidean distances.
    """
    points = np.asarray(points, dtype=np.float64)
    segments = np.asarray(segments, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {points.shape}")
    if segments.ndim != 3 or segments.shape[1:] != (2, 2):
        raise ValueError(
            f"segments must have shape (S, 2, 2), got {segments.shape}"
        )
    return _segment_distances_fast(points, segments)


def _segment_distances_fast(points: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Point-to-segment distances, one (N, S) plane per coordinate.

    Working on coordinate planes instead of stacked (N, S, 2) blocks
    drops the einsum dispatches and halves the size of every
    temporary.  Each output element goes through the same
    floating-point operations in the same association order as the
    original einsum kernel, so the results are bitwise identical
    (asserted against it in ``tests/test_perf_parity.py``).  dtype
    follows the inputs: float32 in, float32 out.
    """
    px = points[:, 0:1]  # (N, 1)
    py = points[:, 1:2]
    sx = segments[:, 0, 0]  # (S,)
    sy = segments[:, 0, 1]
    dx = segments[:, 1, 0] - sx
    dy = segments[:, 1, 1] - sy
    length_sq = dx * dx + dy * dy

    relx = px - sx  # (N, S)
    rely = py - sy
    dot = relx * dx + rely * dy
    if length_sq.size and length_sq.min() > 0.0:
        t = dot / length_sq
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(length_sq > 0.0, dot / length_sq, 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = px - (sx + t * dx)
    ey = py - (sy + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def segment_distances_squared(
    points: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Squared point-to-segment distances, dtype-preserving.

    The float32 fitness fast path minimises over *squared* normalised
    distances and takes one square root per (point, chromosome) instead
    of per (point, stick) — see ``SilhouetteFitness``.  No validation:
    callers own the shapes.
    """
    px = points[:, 0:1]
    py = points[:, 1:2]
    sx = segments[:, 0, 0]
    sy = segments[:, 0, 1]
    dx = segments[:, 1, 0] - sx
    dy = segments[:, 1, 1] - sy
    length_sq = dx * dx + dy * dy

    relx = px - sx
    rely = py - sy
    dot = relx * dx + rely * dy
    if length_sq.size and length_sq.min() > 0.0:
        t = dot / length_sq
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(length_sq > 0.0, dot / length_sq, 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = px - (sx + t * dx)
    ey = py - (sy + t * dy)
    return ex * ex + ey * ey


def sample_segment_points(segments: np.ndarray, samples_per_segment: int) -> np.ndarray:
    """Evenly sample points along each segment.

    Parameters
    ----------
    segments:
        Array ``(S, 2, 2)``.
    samples_per_segment:
        Number of sample points per segment (including both endpoints
        when >= 2).

    Returns
    -------
    Array ``(S * samples_per_segment, 2)``.
    """
    segments = np.asarray(segments, dtype=np.float64)
    if samples_per_segment < 1:
        raise ValueError(
            f"samples_per_segment must be >= 1, got {samples_per_segment}"
        )
    if samples_per_segment == 1:
        ts = np.array([0.5])
    else:
        ts = np.linspace(0.0, 1.0, samples_per_segment)
    starts = segments[:, 0, :][:, None, :]  # (S, 1, 2)
    deltas = (segments[:, 1, :] - segments[:, 0, :])[:, None, :]
    pts = starts + ts[None, :, None] * deltas  # (S, T, 2)
    return pts.reshape(-1, 2)


def world_to_image(points_xy: np.ndarray, image_height: int) -> np.ndarray:
    """Convert world ``(x, y)`` points (y up) to image ``(row, col)``.

    ``row = (H - 1) - y`` and ``col = x``.
    """
    pts = np.asarray(points_xy, dtype=np.float64)
    out = np.empty_like(pts)
    out[..., 0] = (image_height - 1) - pts[..., 1]
    out[..., 1] = pts[..., 0]
    return out


def image_to_world(points_rc: np.ndarray, image_height: int) -> np.ndarray:
    """Convert image ``(row, col)`` points to world ``(x, y)`` (y up)."""
    pts = np.asarray(points_rc, dtype=np.float64)
    out = np.empty_like(pts)
    out[..., 0] = pts[..., 1]
    out[..., 1] = (image_height - 1) - pts[..., 0]
    return out


def mask_points_world(mask: np.ndarray) -> np.ndarray:
    """World ``(x, y)`` coordinates of the True pixels of ``mask``."""
    rows, cols = np.nonzero(mask)
    height = mask.shape[0]
    return np.stack(
        [cols.astype(np.float64), (height - 1) - rows.astype(np.float64)],
        axis=-1,
    )
