"""RGB ↔ HSV colour-space conversion, implemented from scratch.

The shadow-removal step of the paper (Section 2, Eqs. 1–2) operates in
Hue–Saturation–Value space with hue measured in **degrees** on the
circle ``[0, 360)``.  Saturation and value are in ``[0, 1]``.

The conversion follows the standard hexcone model:

* ``V = max(R, G, B)``
* ``S = (V - min) / V`` (0 when ``V`` is 0)
* ``H`` is a piecewise-linear angle determined by which channel is the
  maximum.
"""

from __future__ import annotations

import numpy as np

from .image import channel_max, channel_min, ensure_rgb
from ..errors import ImageError


def rgb_to_hsv(image: np.ndarray) -> np.ndarray:
    """Convert an RGB image in [0, 1] to HSV.

    Returns an array of the same shape where channel 0 is hue in
    degrees ``[0, 360)``, channel 1 is saturation in ``[0, 1]`` and
    channel 2 is value in ``[0, 1]``.
    """
    rgb = ensure_rgb(image)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]

    v = channel_max(rgb)
    c_min = channel_min(rgb)
    chroma = v - c_min

    hue = np.zeros_like(v)
    nonzero = chroma > 0
    # Piecewise hue: 60 degrees per hexcone face.
    with np.errstate(divide="ignore", invalid="ignore"):
        r_max = nonzero & (v == r)
        hue[r_max] = 60.0 * ((g[r_max] - b[r_max]) / chroma[r_max])
        g_max = nonzero & (v == g) & ~r_max
        hue[g_max] = 60.0 * (2.0 + (b[g_max] - r[g_max]) / chroma[g_max])
        b_max = nonzero & ~r_max & ~g_max
        hue[b_max] = 60.0 * (4.0 + (r[b_max] - g[b_max]) / chroma[b_max])
    hue = np.mod(hue, 360.0)

    saturation = np.zeros_like(v)
    v_pos = v > 0
    saturation[v_pos] = chroma[v_pos] / v[v_pos]

    return np.stack([hue, saturation, v], axis=-1)


def hsv_to_rgb(image: np.ndarray) -> np.ndarray:
    """Convert an HSV image (hue in degrees) back to RGB in [0, 1]."""
    hsv = np.asarray(image, dtype=np.float64)
    if hsv.ndim != 3 or hsv.shape[2] != 3:
        raise ImageError(f"HSV image must have shape (H, W, 3), got {hsv.shape}")
    hue = np.mod(hsv[..., 0], 360.0)
    saturation = np.clip(hsv[..., 1], 0.0, 1.0)
    value = np.clip(hsv[..., 2], 0.0, 1.0)

    sector = hue / 60.0
    i = np.floor(sector).astype(int) % 6
    fraction = sector - np.floor(sector)

    p = value * (1.0 - saturation)
    q = value * (1.0 - saturation * fraction)
    t = value * (1.0 - saturation * (1.0 - fraction))

    rgb = np.zeros_like(hsv)
    # Each hexcone sector maps (v, t, p, q) to channels differently.
    lookup = [
        (value, t, p),
        (q, value, p),
        (p, value, t),
        (p, q, value),
        (t, p, value),
        (value, p, q),
    ]
    for sector_index, (red, green, blue) in enumerate(lookup):
        sel = i == sector_index
        rgb[..., 0][sel] = red[sel]
        rgb[..., 1][sel] = green[sel]
        rgb[..., 2][sel] = blue[sel]
    return np.clip(rgb, 0.0, 1.0)


def hue_distance(hue_a: np.ndarray, hue_b: np.ndarray) -> np.ndarray:
    """Angular distance between hues in degrees (Eq. 2 of the paper).

    ``DH = min(|Ha - Hb|, 360 - |Ha - Hb|)`` — the shorter way around
    the hue circle, always in ``[0, 180]``.
    """
    diff = np.abs(np.asarray(hue_a, dtype=np.float64) - np.asarray(hue_b, dtype=np.float64))
    diff = np.mod(diff, 360.0)
    return np.minimum(diff, 360.0 - diff)
