"""Image containers and validation helpers.

The library represents images as plain numpy arrays:

* **RGB image** — float array of shape ``(H, W, 3)`` with values in
  ``[0, 1]``.
* **Grayscale image** — float array of shape ``(H, W)`` in ``[0, 1]``.
* **Binary mask** — boolean array of shape ``(H, W)``.

Every public function in :mod:`repro.imaging` validates its inputs with
the helpers below so shape or dtype mistakes fail loudly at the boundary
instead of deep inside a kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import ImageError

# Per-channel weights of the ITU-R BT.601 luma transform.
_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def ensure_rgb(image: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate and return ``image`` as a float RGB array in ``[0, 1]``.

    Accepts float arrays in ``[0, 1]`` or ``uint8`` arrays in
    ``[0, 255]`` (which are converted).  Raises :class:`ImageError`
    otherwise.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(
            f"{name} must have shape (H, W, 3), got {arr.shape}"
        )
    if arr.dtype == np.uint8:
        return arr.astype(np.float64) / 255.0
    arr = arr.astype(np.float64, copy=False)
    if arr.size and (arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9):
        raise ImageError(
            f"{name} float values must lie in [0, 1]; "
            f"got range [{arr.min():.4g}, {arr.max():.4g}]"
        )
    return np.clip(arr, 0.0, 1.0)


def ensure_gray(image: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate and return ``image`` as a float grayscale array in [0, 1]."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ImageError(f"{name} must have shape (H, W), got {arr.shape}")
    if arr.dtype == np.uint8:
        return arr.astype(np.float64) / 255.0
    arr = arr.astype(np.float64, copy=False)
    if arr.size and (arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9):
        raise ImageError(
            f"{name} float values must lie in [0, 1]; "
            f"got range [{arr.min():.4g}, {arr.max():.4g}]"
        )
    return np.clip(arr, 0.0, 1.0)


def ensure_mask(mask: np.ndarray, name: str = "mask") -> np.ndarray:
    """Validate and return ``mask`` as a 2-D boolean array.

    Accepts boolean arrays or integer/float arrays containing only the
    values 0 and 1.
    """
    # Idempotence fast path: validated masks flow through segmentation,
    # fitness construction and thickness estimation on every frame, and
    # re-validating an already-boolean array is pure overhead.
    if type(mask) is np.ndarray and mask.dtype == np.bool_ and mask.ndim == 2:
        return mask
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ImageError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr
    # Hot path (every fitness construction): a vectorised 0/1 check is
    # far cheaper than np.unique, which sorts the whole array.
    if not ((arr == 0) | (arr == 1)).all():
        raise ImageError(
            f"{name} must contain only 0/1 values to be used as a mask"
        )
    return arr.astype(bool)


def ensure_same_shape(a: np.ndarray, b: np.ndarray, what: str = "arrays") -> None:
    """Raise :class:`ImageError` unless ``a`` and ``b`` share a shape."""
    if a.shape != b.shape:
        raise ImageError(
            f"{what} must have identical shapes, got {a.shape} vs {b.shape}"
        )


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Convert a float image in [0, 1] to ``uint8`` in [0, 255]."""
    arr = np.asarray(image, dtype=np.float64)
    return np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)


def channel_max(image: np.ndarray) -> np.ndarray:
    """Per-pixel maximum over the last (channel) axis of ``(..., 3)``.

    Equal to ``image.max(axis=-1)`` but an order of magnitude faster:
    a reduction over a length-3 innermost axis runs one tiny strided
    loop per pixel, while two elementwise ``np.maximum`` calls over the
    channel planes stay vectorised.
    """
    return np.maximum(np.maximum(image[..., 0], image[..., 1]), image[..., 2])


def channel_min(image: np.ndarray) -> np.ndarray:
    """Per-pixel minimum over the channel axis (see :func:`channel_max`)."""
    return np.minimum(np.minimum(image[..., 0], image[..., 1]), image[..., 2])


def rgb_to_gray(image: np.ndarray) -> np.ndarray:
    """Collapse an RGB image to grayscale with BT.601 luma weights."""
    rgb = ensure_rgb(image)
    return rgb @ _LUMA_WEIGHTS


def blank_rgb(height: int, width: int, color: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> np.ndarray:
    """Create an RGB image filled with ``color``."""
    if height <= 0 or width <= 0:
        raise ImageError(f"image dimensions must be positive, got {height}x{width}")
    image = np.empty((height, width, 3), dtype=np.float64)
    image[...] = np.clip(np.asarray(color, dtype=np.float64), 0.0, 1.0)
    return image


def blank_mask(height: int, width: int) -> np.ndarray:
    """Create an all-False boolean mask."""
    if height <= 0 or width <= 0:
        raise ImageError(f"mask dimensions must be positive, got {height}x{width}")
    return np.zeros((height, width), dtype=bool)
