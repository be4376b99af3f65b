"""Connected-component labelling and component-based mask filters.

Used by Step 3 of the paper's segmentation pipeline ("smaller spots can
be removed from the scene"): after noise removal, connected foreground
regions below an area threshold are discarded because a human object is
necessarily large.  The labelling itself is ``scipy.ndimage.label``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import ensure_mask
from ..types import BoundingBox, mask_bounding_box

# Neighbourhood structuring elements of the two connectivities.
_STRUCTURES = {
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    8: np.ones((3, 3), dtype=bool),
}


def label_components(mask: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected foreground regions.

    Returns ``(labels, count)`` where ``labels`` is an int32 array with
    0 for background and ``1..count`` for each component, numbered in
    raster order of their first pixel.  The callers that rank regions
    by area (:func:`largest_component`, :func:`top_n_components`, the
    multi-actor ``components`` step) break equal-area ties by this
    numbering.
    """
    mask = ensure_mask(mask)
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    # Imported on first use so ``import repro`` stays lean: scipy.ndimage
    # adds ~70 ms to start-up.
    from scipy import ndimage

    labels, count = ndimage.label(
        mask, structure=_STRUCTURES[connectivity], output=np.int32
    )
    return labels, int(count)


@dataclass(frozen=True, slots=True)
class Component:
    """Summary of one connected component."""

    label: int
    area: int
    bbox: BoundingBox
    centroid: tuple[float, float]  # (row, col)


def component_stats(labels: np.ndarray, count: int) -> list[Component]:
    """Compute area, bounding box and centroid for each component."""
    stats: list[Component] = []
    for label in range(1, count + 1):
        mask = labels == label
        area = int(mask.sum())
        if area == 0:
            continue
        bbox = mask_bounding_box(mask)
        assert bbox is not None
        rows, cols = np.nonzero(mask)
        stats.append(
            Component(
                label=label,
                area=area,
                bbox=bbox,
                centroid=(float(rows.mean()), float(cols.mean())),
            )
        )
    return stats


def remove_small_components(
    mask: np.ndarray,
    min_area: int,
    connectivity: int = 8,
) -> np.ndarray:
    """Drop connected regions smaller than ``min_area`` pixels.

    This is the "smaller spots can be removed" part of the paper's
    Step 3.
    """
    mask = ensure_mask(mask)
    if min_area <= 1:
        return mask.copy()
    labels, count = label_components(mask, connectivity=connectivity)
    if count == 0:
        return mask.copy()
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    keep = areas >= min_area
    keep[0] = False
    return keep[labels]


def largest_component(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Keep only the largest connected region (empty mask stays empty)."""
    mask = ensure_mask(mask)
    labels, count = label_components(mask, connectivity=connectivity)
    if count == 0:
        return np.zeros_like(mask)
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    areas[0] = 0
    return labels == int(areas.argmax())


def top_n_components(
    mask: np.ndarray,
    n: int,
    min_area: int = 1,
    connectivity: int = 8,
) -> list[np.ndarray]:
    """The ``n`` largest connected regions, one boolean mask each.

    Regions below ``min_area`` pixels are never returned.  Ordering is
    deterministic: area descending, ties broken by label order — and
    labels are assigned in raster order of each region's first pixel
    (see :func:`label_components`), so two equal-area regions always
    come back top-to-bottom, left-to-right.  This is what multi-actor
    segmentation builds its per-actor silhouette candidates from.
    """
    mask = ensure_mask(mask)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels, count = label_components(mask, connectivity=connectivity)
    if count == 0:
        return []
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    ranked = sorted(
        (label for label in range(1, count + 1) if areas[label] >= max(min_area, 1)),
        key=lambda label: (-areas[label], label),
    )
    return [labels == label for label in ranked[:n]]


def dominant_components(
    mask: np.ndarray,
    keep_fraction: float = 0.3,
    connectivity: int = 8,
) -> np.ndarray:
    """Keep every region at least ``keep_fraction`` of the largest one.

    A cleanup step can sever one object into a few big parts (e.g. a
    fully extended jumper cut at a thin junction); keeping only the
    single largest region would then drop half the person.  Small
    debris stays excluded because it is far below the fraction.
    """
    mask = ensure_mask(mask)
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    labels, count = label_components(mask, connectivity=connectivity)
    if count == 0:
        return np.zeros_like(mask)
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    areas[0] = 0
    keep = areas >= keep_fraction * areas.max()
    keep[0] = False
    return keep[labels]
