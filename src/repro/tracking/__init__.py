"""Multi-actor tracking: data association and track lifecycle.

The paper analyses one jumper per video.  This subsystem generalises
the pipeline to *N* actors per scene: segmentation emits per-component
silhouette candidates, :func:`associate` matches them against each
alive track's predicted pose box (Hungarian IoU), and
:class:`TrackManager` owns the lifecycle — tentative birth, confirm
after ``confirm_hits``, carry-forward on miss via the existing recovery
ladder, retire after ``max_misses``.  One GA pose tracker runs per
track, so every downstream stage (smoothing, events, scoring) applies
per track unchanged.

See ``docs/tracking.md`` for the algorithm, lifecycle states, config
knobs, and the per-track report shape.
"""

from .association import (
    AssociationResult,
    associate,
    box_iou,
    hungarian_match,
    iou_matrix,
)
from .manager import TrackFrameState, TrackManager
from .report import TrackAnalysis
from .track import TRACK_STATES, Track, TrackingConfig, pose_bounding_box

__all__ = [
    "AssociationResult",
    "associate",
    "box_iou",
    "hungarian_match",
    "iou_matrix",
    "TrackAnalysis",
    "TrackFrameState",
    "TrackManager",
    "TRACK_STATES",
    "Track",
    "TrackingConfig",
    "pose_bounding_box",
]
