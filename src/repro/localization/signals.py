"""Per-frame activity signals over a long video.

Two cheap whole-clip signals drive temporal localisation:

* **motion energy** — the fraction of pixels whose max-channel
  difference from the previous frame exceeds a threshold.  This is the
  Step-1 change-detection test (see
  :class:`~repro.segmentation.online.RunningBackgroundModel`) reduced
  to one scalar per frame: dead time sits at ~0, any articulated
  movement lifts it well clear.
* **silhouette centroid** — the per-frame foreground centroid against
  a background frozen from the *whole* clip through the running
  background model.  A real attempt moves the centroid (horizontally
  for a jump, vertically for a chair rise); flicker does not — window
  confidence uses centroid travel to rank windows.
"""

from __future__ import annotations

import numpy as np

from ..imaging.image import channel_max
from ..segmentation.background import ChangeDetectionConfig
from ..segmentation.online import RunningBackgroundModel
from ..video.sequence import VideoSequence


def motion_energy(
    video: VideoSequence, pixel_threshold: float = 0.05
) -> np.ndarray:
    """Changed-pixel fraction per frame (``energy[0]`` is 0).

    ``energy[t]`` is the fraction of pixels where the max-channel
    absolute difference between frames ``t`` and ``t-1`` exceeds
    ``pixel_threshold`` — the same per-pixel test Step 1 uses to find
    *stable* pixels, inverted into an activity measure.
    """
    energy = np.zeros(len(video), dtype=np.float64)
    prev: np.ndarray | None = None
    for index, frame in enumerate(video):
        frame = np.asarray(frame, dtype=np.float64)
        if prev is not None:
            changed = channel_max(np.abs(frame - prev)) > pixel_threshold
            energy[index] = float(changed.mean())
        prev = frame
    return energy


def centroid_track(
    video: VideoSequence, pixel_threshold: float = 0.05
) -> np.ndarray:
    """Foreground-centroid ``(x, y)`` per frame; NaN where empty.

    The background is estimated once over the whole clip with the
    O(1)-memory :class:`~repro.segmentation.online.RunningBackgroundModel`
    (dead time dominates a long clip, so the stable-pixel background is
    clean), then each frame's foreground mask is its max-channel
    difference from that background thresholded at ``pixel_threshold``.
    """
    track = np.full((len(video), 2), np.nan, dtype=np.float64)
    if len(video) < 2:
        return track
    model = RunningBackgroundModel(
        ChangeDetectionConfig(threshold=pixel_threshold)
    )
    for frame in video:
        model.observe(frame)
    background = model.freeze().background
    for index, frame in enumerate(video):
        frame = np.asarray(frame, dtype=np.float64)
        mask = channel_max(np.abs(frame - background)) > pixel_threshold
        ys, xs = np.nonzero(mask)
        if xs.size:
            track[index, 0] = float(xs.mean())
            track[index, 1] = float(ys.mean())
    return track
