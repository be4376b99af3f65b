"""Track lifecycle: spawn, confirm, carry on miss, retire.

A :class:`Track` wraps one :class:`~repro.ga.temporal.TrackingSession`
— one GA pose tracker per actor — and adds the posetrack-style
bookkeeping the multi-actor pipeline needs:

* **tentative** on spawn; **confirmed** after ``confirm_hits``
  associated components (so one-frame noise blobs never reach the
  report);
* a **miss** (no associated component this frame) steps the session on
  an empty silhouette, which routes through the existing recovery
  ladder (extrapolate → carry-forward) — occlusion handling reuses the
  degradation machinery instead of inventing a second one;
* **retired** after ``max_misses`` consecutive misses, or immediately
  on the first miss when recovery is disabled (a strict config has no
  carry-forward to offer).

Track ids are deterministic: ``t0``, ``t1``, … in spawn order, and
spawn order is fixed by the candidate ordering (area descending, then
raster order) within each frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..ga.temporal import (
    FrameHealth,
    TemporalPoseTracker,
    TrackerConfig,
    TrackingResult,
)
from ..model.annotation import FirstFrameAnnotation
from ..model.geometry import world_to_image
from ..model.pose import StickPose
from ..model.sticks import BodyDimensions
from ..runtime import Instrumentation
from ..types import BoundingBox

#: Lifecycle states a track moves through (strictly forward).
TRACK_STATES = ("tentative", "confirmed", "retired")


@dataclass(frozen=True, slots=True)
class TrackingConfig:
    """Knobs of the multi-actor association layer.

    ``enabled`` is the master switch: off (the default) keeps the
    paper's one-jumper pipeline byte-identical; on routes analysis
    through the :class:`~repro.tracking.TrackManager`.  All fields
    participate in ``config_hash`` — they change results.
    """

    enabled: bool = False
    #: Hard cap on concurrently alive (non-retired) tracks.
    max_tracks: int = 4
    #: Minimum IoU between a predicted pose box and a component for an
    #: association (the posepile snippet's 0.1).
    iou_threshold: float = 0.1
    #: Associated components needed before a tentative track is
    #: confirmed (and eligible for the final report).
    confirm_hits: int = 2
    #: Consecutive misses before a track retires.
    max_misses: int = 3
    #: Smallest component area (pixels) that may spawn a new track.
    min_spawn_area: int = 80
    #: Pixels added around a predicted pose box before matching, to
    #: absorb one frame of motion.
    box_margin: int = 3

    def __post_init__(self) -> None:
        if self.max_tracks < 1:
            raise ConfigurationError(
                f"tracking.max_tracks must be >= 1, got {self.max_tracks}"
            )
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigurationError(
                "tracking.iou_threshold must be in (0, 1], got "
                f"{self.iou_threshold}"
            )
        if self.confirm_hits < 1:
            raise ConfigurationError(
                f"tracking.confirm_hits must be >= 1, got {self.confirm_hits}"
            )
        if self.max_misses < 1:
            raise ConfigurationError(
                f"tracking.max_misses must be >= 1, got {self.max_misses}"
            )
        if self.min_spawn_area < 1:
            raise ConfigurationError(
                f"tracking.min_spawn_area must be >= 1, got {self.min_spawn_area}"
            )
        if self.box_margin < 0:
            raise ConfigurationError(
                f"tracking.box_margin must be >= 0, got {self.box_margin}"
            )


def pose_bounding_box(
    pose: StickPose,
    dims: BodyDimensions,
    shape: tuple[int, int],
) -> BoundingBox | None:
    """Image-coordinate bounding box of a stick figure.

    Stick endpoints are converted to (row, col), padded by half the
    thickest stick, and clipped to the frame; ``None`` when the pose
    lies entirely outside the image.
    """
    points = world_to_image(pose.segments(dims).reshape(-1, 2), shape[0])
    pad = max(dims.thicknesses) / 2.0
    row_min = int(np.floor(points[:, 0].min() - pad))
    row_max = int(np.ceil(points[:, 0].max() + pad))
    col_min = int(np.floor(points[:, 1].min() - pad))
    col_max = int(np.ceil(points[:, 1].max() + pad))
    row_min, row_max = max(row_min, 0), min(row_max, shape[0] - 1)
    col_min, col_max = max(col_min, 0), min(col_max, shape[1] - 1)
    if row_max < row_min or col_max < col_min:
        return None
    return BoundingBox(row_min, col_min, row_max, col_max)


class Track:
    """One actor's pose track plus its lifecycle state."""

    def __init__(
        self,
        track_id: str,
        annotation: FirstFrameAnnotation,
        tracker_config: TrackerConfig,
        config: TrackingConfig,
        start_frame: int,
        rng: np.random.Generator,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.track_id = track_id
        self.annotation = annotation
        self.start_frame = start_frame
        self.config = config
        self._tracker_config = tracker_config
        tracker = TemporalPoseTracker(
            annotation.dims,
            tracker_config,
            instrumentation=instrumentation or Instrumentation(),
        )
        self.session = tracker.start(annotation.pose, rng=rng)
        self.state = "tentative" if config.confirm_hits > 1 else "confirmed"
        self.hits = 1  # the spawning component counts as the first hit
        self.misses = 0  # consecutive misses
        self.trailing_misses = 0  # carried frames at the tail of the track

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the track still consumes frames."""
        return self.state != "retired"

    @property
    def confirmed(self) -> bool:
        """True once the track has met its hit quota."""
        return self.state == "confirmed"

    @property
    def frames(self) -> int:
        """Frames covered so far (spawn frame included)."""
        return self.session.frames_seen

    @property
    def latest_pose(self) -> StickPose:
        """The most recent pose in the track."""
        return self.session.latest_pose

    @property
    def latest_health(self) -> FrameHealth:
        """Health record of the most recent frame."""
        return self.session.latest_health

    def predicted_box(self, shape: tuple[int, int]) -> BoundingBox | None:
        """Where the actor should be this frame: last pose box, padded."""
        box = pose_bounding_box(self.latest_pose, self.annotation.dims, shape)
        if box is None or self.config.box_margin == 0:
            return box
        return box.expanded(self.config.box_margin, shape)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def step_matched(self, component_mask: np.ndarray) -> FrameHealth:
        """Consume this track's associated component for one frame."""
        _, health = self.session.step(component_mask)
        self.hits += 1
        self.misses = 0
        self.trailing_misses = 0
        if self.state == "tentative" and self.hits >= self.config.confirm_hits:
            self.state = "confirmed"
        return health

    def step_missed(self, shape: tuple[int, int]) -> FrameHealth | None:
        """No component this frame: carry forward, or retire.

        With recovery enabled the session steps on an empty silhouette
        and the ladder extrapolates/carries the pose; without it there
        is no carry-forward, so the track retires immediately.  Returns
        the frame's health, or ``None`` when the track retired without
        consuming the frame.
        """
        self.misses += 1
        if not self._tracker_config.recovery.enabled:
            self.state = "retired"
            return None
        empty = np.zeros(shape, dtype=bool)
        _, health = self.session.step(empty)
        self.trailing_misses += 1
        if self.misses >= self.config.max_misses:
            self.state = "retired"
        return health

    def result(self, trim_trailing_misses: bool = True) -> TrackingResult:
        """The accumulated track as a :class:`TrackingResult`.

        By default the carried frames at the tail (misses that never
        saw another component — an actor that left the frame, or the
        run-out before retirement) are trimmed: they are extrapolated
        ghosts, not observations, and would otherwise distort event
        detection and scoring.
        """
        full = self.session.result()
        if not trim_trailing_misses or not self.trailing_misses:
            return full
        keep = len(full.poses) - self.trailing_misses
        return TrackingResult(
            poses=full.poses[:keep],
            records=full.records,
            health=full.health[:keep],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Track({self.track_id!r}, {self.state}, "
            f"start={self.start_frame}, frames={self.frames})"
        )
