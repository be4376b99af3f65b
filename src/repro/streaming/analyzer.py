"""The streaming analyzer: a push_frame/finish state machine.

Two modes, selected by ``AnalyzerConfig.streaming.warmup_frames``:

* **batch** (``warmup_frames == 0``, the default): every pushed frame
  is buffered; ``finish()`` hands the clip to
  :meth:`JumpAnalyzer.analyze <repro.pipeline.JumpAnalyzer.analyze>`,
  so the result is the one a direct call gives — same stages,
  policies, instrumentation events, parallel fan-out and cancellation
  points.
* **live** (``warmup_frames >= 2``): the first ``warmup_frames`` frames
  feed an :class:`~repro.segmentation.online.OnlineBackgroundModel`;
  once it freezes, the buffered frames drain through the per-frame path
  and every further ``push_frame`` does O(frame) work — segment
  (Steps 2–5), one step of the analyzer's tracking front (the front
  the batch ``tracking`` stage drives, recovery ladder included), and a
  guarded provisional event/score estimate under the configured
  movement profile.  ``finish()`` hands the front to
  :meth:`JumpAnalyzer.finish_live
  <repro.pipeline.JumpAnalyzer.finish_live>`, which runs the runner's
  post-tracking stages (smoothing → events → scoring → measurement,
  with the same retry/fallback policies) and assembles the
  :class:`~repro.pipeline.JumpAnalysis`.

A stream that ends before its warm-up fills falls back to the batch
path over whatever was buffered, so short clips behave identically in
both modes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..errors import ReproError, StreamError
from ..ga.temporal import FrameHealth
from ..imaging.image import ensure_rgb
from ..model.annotation import FirstFrameAnnotation
from ..model.pose import StickPose
from ..model.sticks import BodyDimensions
from ..pipeline import JumpAnalysis, JumpAnalyzer
from ..runtime import CancellationToken, Instrumentation, StageContext
from ..scoring.report import JumpScorer
from ..segmentation.online import RunningBackgroundModel
from ..segmentation.pipeline import FrameSegmentation, SegmentationPipeline
from ..tracking import TrackFrameState
from ..video.sequence import VideoSequence


@dataclass(frozen=True, slots=True)
class ProvisionalEstimate:
    """Best current guess at the jump's structure, mid-stream.

    Re-estimated from the raw pose prefix as frames arrive; provisional
    by construction (the final analysis smooths the track first) and
    absent until at least four poses exist.
    """

    frames_seen: int
    takeoff_frame: int
    landing_frame: int
    peak_frame: int
    ground_height: float
    score: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the job payload's ``provisional`` block)."""
        return {
            "frames_seen": self.frames_seen,
            "takeoff_frame": self.takeoff_frame,
            "landing_frame": self.landing_frame,
            "peak_frame": self.peak_frame,
            "ground_height": self.ground_height,
            "score": self.score,
        }


@dataclass(frozen=True, slots=True)
class FrameUpdate:
    """What one ``push_frame`` produced.

    ``phase`` is ``"buffering"`` (batch mode), ``"warmup"`` (live mode,
    background not yet frozen) or ``"tracking"`` (live); pose fields
    are populated only while tracking.
    """

    frame_index: int
    frames_seen: int
    phase: str
    pose: StickPose | None = None
    pose_box: tuple[float, float, float, float] | None = None  # x, y, w, h
    health: FrameHealth | None = None
    provisional: ProvisionalEstimate | None = None
    # Per-track outcomes when multi-actor tracking is enabled; the
    # scalar pose/health fields above then mirror the primary track.
    tracks: tuple[TrackFrameState, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (job progress / client printing)."""
        return {
            "frame_index": self.frame_index,
            "frames_seen": self.frames_seen,
            "phase": self.phase,
            "pose": (
                [self.pose.x0, self.pose.y0, *self.pose.angles_deg]
                if self.pose is not None
                else None
            ),
            "pose_box": list(self.pose_box) if self.pose_box else None,
            "health": self.health.to_dict() if self.health else None,
            "provisional": (
                self.provisional.to_dict() if self.provisional else None
            ),
            "tracks": [state.to_dict() for state in self.tracks],
        }


class StreamingAnalyzer:
    """Push-based frame-at-a-time analysis (see module docstring).

    Create via :meth:`repro.pipeline.JumpAnalyzer.open_stream`; the
    stream shares the analyzer's config, tracking front, stage objects
    and policies.
    """

    def __init__(
        self,
        analyzer: JumpAnalyzer,
        annotation: FirstFrameAnnotation | None = None,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        cancel_token: CancellationToken | None = None,
    ) -> None:
        self._analyzer = analyzer
        self.config = analyzer.config
        self._annotation = annotation
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._instrumentation = instrumentation or Instrumentation()
        self._cancel_token = cancel_token
        # Localisation needs the whole clip before the attempt windows
        # are known, so a localising stream buffers every frame and
        # finishes through the batch front-stage — live per-frame
        # tracking (and its provisionals) only applies to the classic
        # one-attempt contract.  See docs/streaming.md.
        self._live = (
            self.config.streaming.warmup_frames > 0
            and not self.config.localization.enabled
        )
        self._buffer: list[np.ndarray] = []
        self._frames_seen = 0
        self._finished = False
        self._started_at: float | None = None
        # Live-mode state, populated once the background freezes.
        self._segmenter: SegmentationPipeline | None = None
        self._segmentations: list[FrameSegmentation] = []
        self._background = None  # BackgroundResult
        self._front = None  # JumpAnalyzer.tracking_front
        self._provisional: ProvisionalEstimate | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def frames_seen(self) -> int:
        """Total frames pushed so far."""
        return self._frames_seen

    @property
    def live(self) -> bool:
        """True when this stream analyzes frames as they arrive."""
        return self._live

    @property
    def provisional(self) -> ProvisionalEstimate | None:
        """The latest provisional estimate (live mode, >= 4 poses)."""
        return self._provisional

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def push_frame(self, frame: np.ndarray) -> FrameUpdate:
        """Fold one frame into the analysis and report the new state."""
        if self._finished:
            raise StreamError("push_frame() after finish()")
        if self._cancel_token is not None:
            self._cancel_token.raise_if_cancelled(
                f"frame {self._frames_seen}"
            )
        if self._started_at is None:
            self._started_at = time.perf_counter()
        index = self._frames_seen
        frame = ensure_rgb(frame, f"frame {index}")
        self._frames_seen += 1
        if not self._live:
            self._buffer.append(frame)
            return FrameUpdate(
                frame_index=index,
                frames_seen=self._frames_seen,
                phase="buffering",
            )
        if self._background is None:
            self._buffer.append(frame)
            if len(self._buffer) < self.config.streaming.warmup_frames:
                return FrameUpdate(
                    frame_index=index,
                    frames_seen=self._frames_seen,
                    phase="warmup",
                )
            return self._go_live()
        return self._process_live(frame, index)

    def extend(self, frames: Iterable[np.ndarray]) -> None:
        """Push every frame of an iterable."""
        for frame in frames:
            self.push_frame(frame)

    # ------------------------------------------------------------------
    # Live path
    # ------------------------------------------------------------------
    def _go_live(self) -> FrameUpdate:
        """Freeze the background on the warm-up buffer and drain it."""
        streaming = self.config.streaming
        segmenter = SegmentationPipeline(
            self.config.segmentation,
            instrumentation=self._instrumentation,
        )
        if (
            streaming.background == "running"
            and not self.config.segmentation.use_median_background
        ):
            model = RunningBackgroundModel(
                self.config.segmentation.change_detection,
                min_frames=streaming.warmup_frames,
            )
        else:
            # "warmup", or a median background (which has no exact
            # incremental form): buffer the prefix, freeze through the
            # batch estimator.
            model = segmenter.background_model(
                warmup_frames=streaming.warmup_frames
            )
        with self._instrumentation.span("segmentation/fit_background"):
            for frame in self._buffer:
                model.observe(frame)
            background = model.freeze()
        segmenter.set_background(background)
        self._segmenter = segmenter
        self._background = background
        self._front = self._analyzer.tracking_front(
            self._annotation, self._rng, self._instrumentation
        )
        drained, self._buffer = self._buffer, []
        update: FrameUpdate | None = None
        for offset, frame in enumerate(drained):
            update = self._process_live(frame, offset)
        assert update is not None  # warmup_frames >= 2 frames drained
        return update

    def _process_live(self, frame: np.ndarray, index: int) -> FrameUpdate:
        """Segment and track one frame; refresh the provisional state.

        With N actors the scalar pose/health fields of the update mirror
        the current primary track, so single-actor consumers of the
        stream keep working, and ``tracks`` carries every track's
        outcome.
        """
        seg = self._segmenter.segment(frame)
        self._segmentations.append(seg)
        tracked = self._front.step(seg.person, seg.candidates)
        pose_box = None
        if tracked.pose is not None:
            pose_box = self._pose_box(tracked.pose, tracked.dims)
            self._refresh_provisional(index, tracked.poses, tracked.dims)
        return FrameUpdate(
            frame_index=index,
            frames_seen=self._frames_seen,
            phase="tracking",
            pose=tracked.pose,
            pose_box=pose_box,
            health=tracked.health,
            provisional=self._provisional,
            tracks=tracked.tracks,
        )

    @staticmethod
    def _pose_box(
        pose: StickPose, dims: BodyDimensions
    ) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box of the stick figure (x, y, w, h)."""
        segments = pose.segments(dims)
        xs, ys = segments[..., 0], segments[..., 1]
        x_min, y_min = float(xs.min()), float(ys.min())
        return (
            x_min,
            y_min,
            float(xs.max()) - x_min,
            float(ys.max()) - y_min,
        )

    def _refresh_provisional(
        self, index: int, poses: tuple[StickPose, ...], dims: BodyDimensions
    ) -> None:
        """Re-estimate events/score on the pose prefix, never raising.

        The movement profile's event detector and rules apply, as in
        the final analysis.
        """
        streaming = self.config.streaming
        if not streaming.provisional_events:
            return
        if len(poses) < 4 or index % streaming.provisional_every:
            return
        profile = self._analyzer.profile
        try:
            events = profile.detect_events(poses, dims)
        except ReproError:
            return
        score: float | None = None
        if streaming.provisional_scoring:
            try:
                # A private scorer: provisional passes must not inflate
                # the stream's own rule counters.
                report = JumpScorer(profile=profile).score(
                    poses, takeoff_frame=events.takeoff_frame
                )
                score = report.score
            except ReproError:
                score = None
        self._provisional = ProvisionalEstimate(
            frames_seen=self._frames_seen,
            takeoff_frame=events.takeoff_frame,
            landing_frame=events.landing_frame,
            peak_frame=events.peak_frame,
            ground_height=events.ground_height,
            score=score,
        )

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def finish(self) -> JumpAnalysis:
        """Close the stream and assemble the final analysis."""
        if self._finished:
            raise StreamError("finish() called twice")
        self._finished = True
        if self._front is None:
            # Batch mode — or a live stream that ended inside its
            # warm-up, which degenerates to the batch path over the
            # buffered prefix.  An empty buffer meets analyze()'s
            # zero-frame check.
            video = VideoSequence(self._buffer) if self._buffer else []
            return self._analyzer.analyze(
                video,
                annotation=self._annotation,
                rng=self._rng,
                instrumentation=self._instrumentation,
                cancel_token=self._cancel_token,
            )
        if self._cancel_token is not None:
            self._cancel_token.raise_if_cancelled("finish")
        context = StageContext(
            instrumentation=self._instrumentation,
            cancel_token=self._cancel_token,
        )
        context.artifacts["segmentations"] = tuple(self._segmentations)
        context.artifacts["background"] = self._background.background
        return self._analyzer.finish_live(
            self._front, context, self._started_at
        )
