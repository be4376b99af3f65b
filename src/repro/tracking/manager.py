"""The data-association owner: components in, tracks out.

:class:`TrackManager` is frame-at-a-time by construction — the batch
analyzer and the live streaming path drive the identical code.  Per
frame it:

1. splits the frame's silhouette into per-component candidates (using
   the segmentation layer's own candidates when present, else
   :func:`~repro.imaging.components.top_n_components` on the person
   mask — the fallback keeps chaos faults from killing association);
2. predicts one box per alive track from its latest pose and matches
   predictions against candidates (Hungarian IoU);
3. steps matched tracks on their component, steps missed tracks
   through the recovery ladder, and spawns tentative tracks from
   unmatched candidates (deterministic ids, ``max_tracks`` capped).

All stepping happens in a fixed order — matched tracks in spawn
order, then missed tracks, then births in candidate order — so the
shared RNG's draw sequence, and therefore every pose, is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .association import associate
from .track import Track, TrackingConfig
from ..errors import ModelError, TrackingError
from ..ga.temporal import FrameHealth, TrackerConfig, TrackingResult
from ..imaging.components import top_n_components
from ..model.annotation import FirstFrameAnnotation, auto_annotate
from ..model.pose import StickPose
from ..runtime import Instrumentation
from ..types import BoundingBox, mask_bounding_box


@dataclass(frozen=True, slots=True)
class TrackFrameState:
    """One track's outcome for one frame (the streaming update row)."""

    track_id: str
    state: str  # tentative / confirmed / retired
    matched: bool
    pose: StickPose | None = None
    box: BoundingBox | None = None
    health: FrameHealth | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (job progress / client printing)."""
        return {
            "track_id": self.track_id,
            "state": self.state,
            "matched": self.matched,
            "pose": (
                [self.pose.x0, self.pose.y0, *self.pose.angles_deg]
                if self.pose is not None
                else None
            ),
            "box": (
                [
                    self.box.col_min,
                    self.box.row_min,
                    self.box.width,
                    self.box.height,
                ]
                if self.box is not None
                else None
            ),
            "health": self.health.to_dict() if self.health else None,
        }


class TrackManager:
    """Owns every track of one video and the matching between frames."""

    def __init__(
        self,
        tracker_config: TrackerConfig,
        config: TrackingConfig,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        seed_annotation: FirstFrameAnnotation | None = None,
        prior_angles: "tuple[float, ...] | None" = None,
    ) -> None:
        self.config = config
        self._tracker_config = tracker_config
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._instrumentation = instrumentation or Instrumentation()
        # A caller-supplied first-frame annotation seeds the first
        # spawned track (the paper's human-drawn stick model); every
        # later birth is auto-annotated from its component, in the
        # ``prior_angles`` start posture (a movement profile's
        # ``start_angles``; ``None`` is the standing prior).
        self._seed_annotation = seed_annotation
        self._prior_angles = prior_angles
        self._tracks: list[Track] = []
        self._frames_seen = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def tracks(self) -> tuple[Track, ...]:
        """Every track ever spawned, in id order (retired included)."""
        return tuple(self._tracks)

    @property
    def frames_seen(self) -> int:
        """Frames stepped so far."""
        return self._frames_seen

    def alive_tracks(self) -> tuple[Track, ...]:
        """Tracks still consuming frames."""
        return tuple(t for t in self._tracks if t.alive)

    def confirmed_tracks(self) -> tuple[Track, ...]:
        """Tracks that met their hit quota (reportable)."""
        return tuple(t for t in self._tracks if t.confirmed)

    def primary_track(self) -> Track:
        """The track that stands in for the legacy single-jumper slots.

        Deterministic: the confirmed track covering the most frames,
        ties broken by spawn order; tentative tracks are considered
        only when nothing confirmed exists.
        """
        pool = [t for t in self._tracks if t.confirmed] or list(self._tracks)
        if not pool:
            raise TrackingError(
                "no tracks were spawned; every frame's components were "
                "below tracking.min_spawn_area or the scene was empty"
            )
        return max(pool, key=lambda t: (t.frames, -self._tracks.index(t)))

    def primary_result(self) -> TrackingResult:
        """The primary track's poses/health (trailing misses trimmed)."""
        return self.primary_track().result()

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self, person_mask: np.ndarray, candidates: Sequence[np.ndarray] = ()
    ) -> tuple[TrackFrameState, ...]:
        """Fold one frame's silhouette(s) into the track set.

        ``candidates`` are the segmentation layer's per-component masks
        (largest first); when empty they are recomputed from
        ``person_mask`` so the manager keeps working even if an
        upstream fault dropped them.
        """
        shape = person_mask.shape
        frame_index = self._frames_seen
        self._frames_seen += 1
        candidates = list(candidates)
        if not candidates and person_mask.any():
            candidates = top_n_components(
                person_mask,
                self.config.max_tracks,
                min_area=1,
            )
        boxes = [mask_bounding_box(mask) for mask in candidates]

        active = [t for t in self._tracks if t.alive]
        with self._instrumentation.span("tracking/associate"):
            result = associate(
                [t.predicted_box(shape) for t in active],
                boxes,
                iou_threshold=self.config.iou_threshold,
            )
        matched_of = {row: col for row, col in result.matches}

        states: list[TrackFrameState] = []
        # Matched and missed tracks step in spawn order, so the shared
        # RNG draw sequence never depends on association internals.
        for index, track in enumerate(active):
            if index in matched_of:
                col = matched_of[index]
                health = track.step_matched(candidates[col])
                self._instrumentation.count("tracking.associations", 1)
                states.append(
                    TrackFrameState(
                        track_id=track.track_id,
                        state=track.state,
                        matched=True,
                        pose=track.latest_pose,
                        box=boxes[col],
                        health=health,
                    )
                )
            else:
                health = track.step_missed(shape)
                self._instrumentation.count("tracking.misses", 1)
                if not track.alive:
                    self._instrumentation.count("tracking.retired", 1)
                states.append(
                    TrackFrameState(
                        track_id=track.track_id,
                        state=track.state,
                        matched=False,
                        pose=track.latest_pose if health is not None else None,
                        box=None,
                        health=health,
                    )
                )

        for col in result.unmatched_cols:
            state = self._maybe_spawn(candidates[col], boxes[col], frame_index)
            if state is not None:
                states.append(state)
        return tuple(states)

    def _maybe_spawn(
        self,
        mask: np.ndarray,
        box: BoundingBox | None,
        frame_index: int,
    ) -> TrackFrameState | None:
        """Spawn a tentative track from an unmatched component."""
        if box is None or int(mask.sum()) < self.config.min_spawn_area:
            return None
        if len([t for t in self._tracks if t.alive]) >= self.config.max_tracks:
            self._instrumentation.count("tracking.births_suppressed", 1)
            return None
        if self._seed_annotation is not None:
            annotation = self._seed_annotation
            self._seed_annotation = None
        else:
            try:
                annotation = auto_annotate(
                    mask, prior_angles=self._prior_angles
                )
            except ModelError:
                # Degenerate component (too thin/small to moment-fit):
                # not a spawnable actor.
                self._instrumentation.count("tracking.spawn_failures", 1)
                return None
        track = Track(
            track_id=f"t{len(self._tracks)}",
            annotation=annotation,
            tracker_config=self._tracker_config,
            config=self.config,
            start_frame=frame_index,
            rng=self._rng,
            instrumentation=self._instrumentation,
        )
        self._tracks.append(track)
        self._instrumentation.count("tracking.births", 1)
        self._instrumentation.event(
            "tracking/birth", track_id=track.track_id, frame=frame_index
        )
        return TrackFrameState(
            track_id=track.track_id,
            state=track.state,
            matched=True,
            pose=track.latest_pose,
            box=box,
            health=track.latest_health,
        )
