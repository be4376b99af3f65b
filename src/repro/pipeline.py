"""End-to-end jump analysis: video → silhouettes → poses → report.

:class:`JumpAnalyzer` composes the three parts of the paper's system
(Section 1): human detection (Section 2), pose estimation (Section 3)
and scoring (Section 4), plus the trajectory analysis extensions — as
stages of a :class:`~repro.runtime.PipelineRunner`.  Every run returns
a :class:`JumpAnalysis` carrying a :class:`~repro.runtime.RunTrace`
with per-stage wall-clock timings and the counters the layers
accumulated (GA generations, fitness evaluations, silhouette points).

The first-frame stick model must come from somewhere, exactly as in
the paper ("a trained person is asked to draw the stick figure for the
human object in the first frame"): pass a
:class:`~repro.model.annotation.FirstFrameAnnotation`, or let the
analyzer fall back to the automatic moment-based initialiser.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .analysis.events import JumpEvents
from .analysis.trajectory import PoseTrajectory
from .config.hashing import config_hash
from .config.schema import config_from_dict, config_to_dict
from .errors import ConfigurationError, ReproError, SegmentationError, VideoError
from .ga.temporal import (
    FrameHealth,
    TemporalPoseTracker,
    TrackerConfig,
    TrackingResult,
    TrackingSession,
)
from .localization import (
    AttemptWindow,
    LocalizationConfig,
    LocalizationResult,
    localize_attempts,
)
from .model.annotation import FirstFrameAnnotation, auto_annotate
from .model.pose import StickPose
from .model.sticks import BodyDimensions, default_body
from .perf.executors import ParallelConfig
from .profiles import MovementProfile, get_profile, profile_names
from .runtime import (
    CancellationToken,
    FallbackPolicy,
    FunctionStage,
    Instrumentation,
    PipelineRunner,
    RetryPolicy,
    RunTrace,
    StageContext,
    StagePolicy,
    StageTiming,
)
from .scoring.distance import JumpMeasurement
from .scoring.report import JumpReport, JumpScorer
from .segmentation.pipeline import (
    FrameSegmentation,
    SegmentationConfig,
    SegmentationPipeline,
)
from .tracking import TrackAnalysis, TrackFrameState, TrackManager, TrackingConfig
from .video.sequence import VideoSequence


@dataclass(frozen=True, slots=True)
class RobustnessConfig:
    """Degrade-don't-die behaviour of the end-to-end pipeline.

    With ``enabled`` (the default), the analyzer attaches per-stage
    :class:`~repro.runtime.RetryPolicy` / :class:`~repro.runtime.FallbackPolicy`
    entries: stages named in ``retry_stages`` get ``stage_attempts``
    total tries against the exception types in ``catch``; stages named
    in ``fallback_stages`` substitute a best-effort value when they
    still fail, marking the run degraded on its trace and in
    :attr:`JumpAnalysis.diagnostics`.  Only the post-tracking stages
    (``smoothing``, ``events``, ``scoring``, ``measurement``) have
    meaningful substitutes; segmentation, annotation and tracking have
    none (tracking degradation is handled inside the tracker by
    :class:`~repro.ga.temporal.RecoveryConfig`).

    ``enabled=False`` restores strict fail-fast behaviour — the
    ``paper`` preset sets it, together with
    ``tracker.recovery.enabled=False``.
    """

    enabled: bool = True
    stage_attempts: int = 2
    retry_stages: tuple[str, ...] = (
        "segmentation",
        "annotation",
        "tracking",
        "smoothing",
        "events",
        "scoring",
        "measurement",
    )
    fallback_stages: tuple[str, ...] = (
        "smoothing",
        "events",
        "scoring",
        "measurement",
    )
    catch: tuple[str, ...] = ("ReproError",)

    def __post_init__(self) -> None:
        if self.stage_attempts < 1:
            raise ConfigurationError("robustness.stage_attempts must be >= 1")
        from .runtime import resolve_catch

        resolve_catch(self.catch)  # validate the names eagerly


@dataclass(frozen=True, slots=True)
class StreamingConfig:
    """Frame-at-a-time behaviour of the analyzer (see :mod:`repro.streaming`).

    ``warmup_frames`` is the number of leading frames buffered before
    Step 1 freezes and per-frame processing starts:

    * ``0`` (default) keeps the batch contract — every pushed frame is
      buffered and ``finish()`` runs the classic seven-stage pipeline
      over the whole sequence, byte-identical to feeding the same
      frames to ``JumpAnalyzer.analyze``;
    * ``>= 2`` goes *live* after the warm-up — the background is frozen
      from the warm-up prefix alone, every frame is segmented and
      tracked as it arrives, and ``push_frame`` returns provisional
      pose/event/score estimates.  The final background (hence the
      final analysis) then depends only on the prefix: that is the
      latency-for-context trade streaming makes, which is why this
      knob participates in ``config_hash``.

    ``background`` picks the live-mode Step-1 model: ``"warmup"``
    buffers the prefix and freezes it through the batch estimator;
    ``"running"`` uses the O(1)-memory incremental estimator (see
    :mod:`repro.segmentation.online`).
    """

    warmup_frames: int = 0
    background: str = "warmup"
    # Provisional per-frame output in live mode: re-detect events (and
    # re-score) on the pose prefix every ``provisional_every`` frames.
    # Errors in provisional estimation never interrupt the stream.
    provisional_events: bool = True
    provisional_scoring: bool = True
    provisional_every: int = 1

    def __post_init__(self) -> None:
        if self.warmup_frames < 0:
            raise ConfigurationError("streaming.warmup_frames must be >= 0")
        if self.warmup_frames == 1:
            raise ConfigurationError(
                "streaming.warmup_frames must be 0 (batch) or >= 2 "
                "(change detection needs two frames)"
            )
        if self.background not in ("warmup", "running"):
            raise ConfigurationError(
                "streaming.background must be 'warmup' or 'running', got "
                f"{self.background!r}"
            )
        if self.provisional_every < 1:
            raise ConfigurationError(
                "streaming.provisional_every must be >= 1"
            )


@dataclass(frozen=True, slots=True)
class AnalyzerConfig:
    """Configuration of the full pipeline."""

    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    # Multi-actor data association (see repro.tracking).  Disabled by
    # default: the paper's pipeline assumes one jumper per video.  When
    # enabled, segmentation should emit per-component candidates
    # (segmentation.max_components > 1) — multi_actor_config() builds a
    # coherent pair of settings.
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)
    # Execution backend for the per-frame segmentation fan-out.  Never
    # changes results, so it is excluded from `config_hash` — see
    # repro.perf.
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    # Trajectory filtering before scoring.  "median" (default) removes
    # single-frame tracking spikes without shaving multi-frame extremes
    # — important because every rule aggregates with max/min over a
    # stage window.  "mean" is a plain moving average (it systematically
    # flattens the extremes the thresholds test); "kalman" is the
    # constant-velocity RTS smoother; "none" scores the raw track.
    smoothing_mode: str = "median"
    smoothing_window: int = 3
    # Frame-at-a-time behaviour (warm-up length, provisional output).
    # The default keeps the batch contract; see StreamingConfig.
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    # Temporal localisation front-stage (find the attempts in a long
    # clip).  Off by default — the paper's "the clip is the jump"
    # contract; see repro.localization.
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    # Which movement the tail stages score (events, rules, distance);
    # resolved through the MOVEMENT_PROFILES registry.  See
    # repro.profiles and docs/profiles.md.
    profile: str = "standing_long_jump"

    def __post_init__(self) -> None:
        from .errors import ConfigurationError

        if self.smoothing_mode not in ("median", "mean", "kalman", "none"):
            raise ConfigurationError(
                "smoothing_mode must be median/mean/kalman/none, got "
                f"{self.smoothing_mode!r}"
            )
        if self.profile not in profile_names():
            raise ConfigurationError(
                f"unknown movement profile {self.profile!r}; choose from: "
                f"{', '.join(profile_names())}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Recursive JSON-ready dict form (see :mod:`repro.config`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AnalyzerConfig":
        """Inverse of :meth:`to_dict`; unknown keys are errors."""
        return config_from_dict(cls, data)

    @property
    def hash(self) -> str:
        """Stable content hash of the resolved configuration."""
        return config_hash(self)


def multi_actor_config(
    base: AnalyzerConfig | None = None, actors: int = 2
) -> AnalyzerConfig:
    """An :class:`AnalyzerConfig` tuned for an ``actors``-jumper scene.

    Turns tracking on with ``max_tracks = actors`` (so a clean N-actor
    scene yields exactly N tracks) and widens segmentation to emit
    ``actors + 1`` component candidates per frame — one slack slot so a
    transient distractor blob cannot evict a real actor from the
    candidate list.  Everything else is inherited from ``base``.
    """
    if actors < 1:
        raise ConfigurationError(f"actors must be >= 1, got {actors}")
    base = base or AnalyzerConfig()
    return replace(
        base,
        segmentation=replace(base.segmentation, max_components=actors + 1),
        tracking=replace(base.tracking, enabled=True, max_tracks=actors),
    )


@dataclass(frozen=True, slots=True)
class AttemptAnalysis:
    """One localised attempt of a long clip, fully analysed.

    ``analysis`` is a complete :class:`JumpAnalysis` of the window's
    sub-clip — frame indices inside it (events, decisive frames) are
    *window-relative*; add ``window.start`` for absolute positions.
    """

    attempt_id: str  # "a0", "a1", ... in temporal order
    window: AttemptWindow
    analysis: "JumpAnalysis"
    primary: bool  # highest-confidence window of the clip

    @property
    def score(self) -> float:
        """The attempt's rule score, for quick ranking."""
        return self.analysis.report.score


@dataclass(frozen=True, slots=True)
class JumpAnalysis:
    """Everything the pipeline produced for one video."""

    segmentations: tuple[FrameSegmentation, ...]
    background: np.ndarray
    annotation: FirstFrameAnnotation
    tracking: TrackingResult
    poses: tuple[StickPose, ...]  # smoothed track actually scored
    events: JumpEvents
    report: JumpReport
    measurement: JumpMeasurement
    trace: RunTrace  # per-stage timings and counters of this run
    # Provenance: the fully-resolved config that produced this analysis
    # and its stable hash — a report is reproducible from its own output.
    config: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    # Health of this analysis: per-frame tracking outcomes, unhealthy /
    # low-confidence frames, stages that completed via fallback.  See
    # :meth:`JumpAnalyzer.analyze`; serialized with the report.
    diagnostics: dict[str, Any] = field(default_factory=dict)
    # Per-actor analyses when multi-actor tracking is enabled (one
    # entry per reportable track, spawn order).  Empty on the classic
    # single-jumper path; the top-level fields above always describe
    # the primary track either way.
    tracks: tuple[TrackAnalysis, ...] = ()
    # Per-attempt analyses when temporal localisation is enabled (one
    # entry per attempt window, temporal order).  Empty on the classic
    # whole-clip path; the top-level fields above always describe the
    # primary attempt either way — the same backward-compat pattern as
    # ``tracks``.
    attempts: tuple[AttemptAnalysis, ...] = ()
    # The localisation pass that produced ``attempts`` (windows,
    # energy signal, resolved thresholds); None when disabled.
    localization: "LocalizationResult | None" = None

    @property
    def degraded(self) -> bool:
        """True when any frame or stage needed recovery or fallback."""
        return bool(self.diagnostics.get("degraded"))

    @property
    def silhouettes(self) -> list[np.ndarray]:
        """Final person mask of every frame."""
        return [seg.person for seg in self.segmentations]


_NO_FIRST_FRAME = (
    "no human object found in the first frame; cannot anchor the stick model"
)


@dataclass(frozen=True, slots=True)
class TrackedFrame:
    """What one step of a tracking front produced.

    With N actors the fields mirror the current primary track while it
    is alive (all ``None`` or empty otherwise) and ``tracks`` carries
    every track's outcome; one actor leaves ``tracks`` empty.
    """

    pose: StickPose | None
    health: FrameHealth | None
    dims: BodyDimensions | None
    poses: tuple[StickPose, ...]  # the track so far, frame 0 first
    tracks: tuple[TrackFrameState, ...] = ()


class _OneActor:
    """The paper's tracking front: one session anchored on frame 0."""

    def __init__(self, analyzer, annotation, rng, instrumentation) -> None:
        self._analyzer = analyzer
        self._annotation: FirstFrameAnnotation | None = annotation
        self._rng = rng
        self._instrumentation = instrumentation
        self._session: TrackingSession | None = None

    def step(self, mask: np.ndarray, candidates=()) -> TrackedFrame:
        if self._session is None:
            if not mask.any():
                raise SegmentationError(_NO_FIRST_FRAME)
            if self._annotation is None:
                self._annotation = self._analyzer._auto_annotation(
                    mask, self._instrumentation
                )
            tracker = TemporalPoseTracker(
                self._annotation.dims,
                self._analyzer.config.tracker,
                instrumentation=self._instrumentation,
            )
            self._session = tracker.start(self._annotation.pose, rng=self._rng)
            pose = self._annotation.pose
            health = self._session.latest_health
        else:
            pose, health = self._session.step(mask)
        return TrackedFrame(
            pose, health, self._annotation.dims, self._session.poses
        )

    def finish(self, ctx: StageContext):
        if self._session is None:
            # A live stream whose first tracked frame failed.
            raise SegmentationError(_NO_FIRST_FRAME)
        return self._session.result(), self._annotation, ()


class _ManyActors:
    """N actors: a :class:`~repro.tracking.TrackManager` of sessions.

    An empty first frame is not an error here: tracks spawn whenever
    their actor first appears.  A caller-supplied annotation seeds the
    first spawn.
    """

    def __init__(self, analyzer, annotation, rng, instrumentation) -> None:
        self._analyzer = analyzer
        self._manager = TrackManager(
            analyzer.config.tracker,
            analyzer.config.tracking,
            rng=rng,
            instrumentation=instrumentation,
            seed_annotation=annotation,
            prior_angles=analyzer.profile.start_angles,
        )

    def step(self, mask: np.ndarray, candidates=()) -> TrackedFrame:
        states = self._manager.step(mask, candidates)
        if self._manager.tracks:
            primary = self._manager.primary_track()
            if primary.alive:
                return TrackedFrame(
                    primary.latest_pose,
                    primary.latest_health,
                    primary.annotation.dims,
                    primary.session.poses,
                    states,
                )
        return TrackedFrame(None, None, None, (), states)

    def finish(self, ctx: StageContext):
        """Run each reportable track's tail; the primary anchors the rest."""
        primary = self._manager.primary_track()
        analyses = []
        for track in self._manager.confirmed_tracks() or (primary,):
            try:
                analyses.append(self._analysis(track, ctx))
            except ReproError:
                if track is primary:
                    raise
                # A short-lived secondary track whose tail cannot be
                # computed degrades to absence, not a dead analysis.
                ctx.instrumentation.event(
                    "tracking/track_tail_failed", track_id=track.track_id
                )
        return primary.result(), primary.annotation, tuple(analyses)

    def _analysis(self, track, ctx: StageContext) -> TrackAnalysis:
        """Run the runner's post-tracking stages for one track.

        They are the runner's own stage objects and policies, so fault
        wrappers and retry/fallback apply per track too.
        """
        result = track.result()
        sub = StageContext(
            instrumentation=ctx.instrumentation,
            cancel_token=ctx.cancel_token,
        )
        sub.artifacts["annotation"] = track.annotation
        self._analyzer.runner.run(
            result.poses, context=sub, start_after="tracking"
        )
        return TrackAnalysis(
            track_id=track.track_id,
            state=track.state,
            start_frame=track.start_frame,
            annotation=track.annotation,
            tracking=result,
            poses=sub.artifacts["poses"],
            events=sub.artifacts["events"],
            report=sub.artifacts["report"],
            measurement=sub.artifacts["measurement"],
        )


class JumpAnalyzer:
    """The complete standing-long-jump analysis system.

    The work is composed as runtime stages — ``segmentation``,
    ``annotation``, ``tracking``, ``smoothing``, ``events``,
    ``scoring`` and ``measurement`` — so every run is observable: pass
    an :class:`~repro.runtime.Instrumentation` (with a logging or
    in-memory sink) to :meth:`analyze`, or just read the returned
    :attr:`JumpAnalysis.trace`.
    """

    #: Top-level stage names, in execution order.
    STAGES = (
        "segmentation",
        "annotation",
        "tracking",
        "smoothing",
        "events",
        "scoring",
        "measurement",
    )

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()
        # Resolved once: the movement the analysis follows (first-frame
        # prior, events, rules, distance).  config.__post_init__
        # validated the name.
        self.profile: MovementProfile = get_profile(self.config.profile)
        self._runner = PipelineRunner(
            [
                FunctionStage("segmentation", self._stage_segmentation),
                FunctionStage("annotation", self._stage_annotation),
                FunctionStage("tracking", self._stage_tracking),
                FunctionStage("smoothing", self._stage_smoothing),
                FunctionStage("events", self._stage_events),
                FunctionStage("scoring", self._stage_scoring),
                FunctionStage("measurement", self._stage_measurement),
            ],
            name="jump-analysis",
            policies=self._build_policies(),
        )

    def _build_policies(self) -> dict[str, StagePolicy] | None:
        """Per-stage retry/fallback policies from the robustness config."""
        rb = self.config.robustness
        if not rb.enabled:
            return None
        unknown = (set(rb.retry_stages) | set(rb.fallback_stages)) - set(
            self.STAGES
        )
        if unknown:
            raise ConfigurationError(
                f"robustness names unknown stage(s) {sorted(unknown)}; "
                f"stages are: {list(self.STAGES)}"
            )
        substitutes = {
            "smoothing": self._fallback_smoothing,
            "events": self._fallback_events,
            "scoring": self._fallback_scoring,
            "measurement": self._fallback_measurement,
        }
        missing = [s for s in rb.fallback_stages if s not in substitutes]
        if missing:
            raise ConfigurationError(
                f"stage(s) {missing} have no fallback substitute; only "
                f"{sorted(substitutes)} can degrade (earlier stages must "
                "succeed to anchor the analysis)"
            )
        policies: dict[str, StagePolicy] = {}
        for name in self.STAGES:
            retry = None
            if name in rb.retry_stages and rb.stage_attempts > 1:
                retry = RetryPolicy(
                    max_attempts=rb.stage_attempts, catch=rb.catch
                )
            fallback = None
            if name in rb.fallback_stages:
                fallback = FallbackPolicy(
                    substitute=substitutes[name], catch=rb.catch
                )
            if retry is not None or fallback is not None:
                policies[name] = StagePolicy(retry=retry, fallback=fallback)
        return policies or None

    @property
    def runner(self) -> PipelineRunner:
        """The underlying stage composition (for introspection)."""
        return self._runner

    # ------------------------------------------------------------------
    # Stages.  The main value flow is video → silhouettes → poses; the
    # side products (segmentations, tracking records, report, …) land
    # on the context's artifact blackboard.
    # ------------------------------------------------------------------
    def _stage_segmentation(
        self, video: VideoSequence, ctx: StageContext
    ) -> list[np.ndarray]:
        segmenter = SegmentationPipeline(
            self.config.segmentation,
            instrumentation=ctx.instrumentation,
            parallel=self.config.parallel,
        )
        segmentations = segmenter.segment_video(video)
        silhouettes = [seg.person for seg in segmentations]
        if not silhouettes[0].any():
            # Multi-actor scenes may legitimately start empty (actors
            # entering later spawn tracks mid-stream); only a fully
            # empty sequence is unanalyzable there.
            if not self.config.tracking.enabled or not any(
                s.any() for s in silhouettes
            ):
                raise SegmentationError(_NO_FIRST_FRAME)
        ctx.artifacts["segmentations"] = tuple(segmentations)
        ctx.artifacts["background"] = segmenter.background
        return silhouettes

    def _stage_annotation(
        self, silhouettes: list[np.ndarray], ctx: StageContext
    ) -> list[np.ndarray]:
        if self.config.tracking.enabled:
            # Multi-actor mode: the TrackManager annotates each track
            # from its spawning component; a caller-supplied annotation
            # (left on the blackboard) seeds the first spawn.
            return silhouettes
        if ctx.artifacts.get("annotation") is None:
            ctx.artifacts["annotation"] = self._auto_annotation(
                silhouettes[0], ctx.instrumentation
            )
        return silhouettes

    def _auto_annotation(
        self, mask: np.ndarray, instrumentation: Instrumentation
    ) -> FirstFrameAnnotation:
        """The first-frame stick model fit to ``mask`` in the profile's
        start posture (batch ``annotation`` stage and live stream alike)."""
        annotation = auto_annotate(mask, prior_angles=self.profile.start_angles)
        instrumentation.count("annotation.automatic", 1)
        return annotation

    def _stage_tracking(
        self, silhouettes: list[np.ndarray], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        """Step the tracking front over every frame, then finish it.

        A live stream drives the same front one pushed frame at a time
        (see :meth:`tracking_front`).
        """
        front = self.tracking_front(
            ctx.artifacts.get("annotation"),
            ctx.require("rng"),
            ctx.instrumentation,
        )
        segmentations = ctx.require("segmentations")
        for mask, seg in zip(silhouettes, segmentations, strict=True):
            front.step(mask, seg.candidates)
        return self._finish_front(front, ctx)

    def _finish_front(self, front, ctx: StageContext) -> tuple[StickPose, ...]:
        """Close ``front`` onto ``ctx``: tracking, anchoring annotation,
        per-track analyses; the primary track's raw poses flow on to
        the tail stages, so the top-level fields describe it."""
        tracking, annotation, tracks = front.finish(ctx)
        ctx.artifacts.update(
            tracking=tracking, annotation=annotation, tracks=tracks
        )
        return tracking.poses

    def _stage_smoothing(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        cfg = self.config
        if cfg.smoothing_mode != "none" and cfg.smoothing_window > 1:
            trajectory = PoseTrajectory.from_poses(poses)
            if cfg.smoothing_mode == "median":
                trajectory = trajectory.median_filtered(cfg.smoothing_window)
            elif cfg.smoothing_mode == "kalman":
                from .analysis.kalman import kalman_smooth

                trajectory = kalman_smooth(trajectory)
            else:
                trajectory = trajectory.smoothed(cfg.smoothing_window)
            poses = tuple(trajectory.to_poses())
        ctx.artifacts["poses"] = poses
        return poses

    def _stage_events(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        annotation: FirstFrameAnnotation = ctx.require("annotation")
        ctx.artifacts["events"] = self.profile.detect_events(
            poses, annotation.dims
        )
        return poses

    def _stage_scoring(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        events: JumpEvents = ctx.require("events")
        scorer = JumpScorer(
            instrumentation=ctx.instrumentation, profile=self.profile
        )
        ctx.artifacts["report"] = scorer.score(
            poses, takeoff_frame=events.takeoff_frame
        )
        return poses

    def _stage_measurement(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        annotation: FirstFrameAnnotation = ctx.require("annotation")
        ctx.artifacts["measurement"] = self.profile.measure(
            poses, annotation.dims, len(poses) - 1
        )
        return poses

    # ------------------------------------------------------------------
    # Fallback substitutes (robustness): best-effort stand-ins for the
    # post-tracking stages, so a failure there degrades the report
    # instead of killing the analysis.  Each sets the context artifact
    # the JumpAnalysis constructor requires.
    # ------------------------------------------------------------------
    def _fallback_smoothing(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        poses = tuple(poses)  # score the raw track
        ctx.artifacts["poses"] = poses
        return poses

    def _fallback_events(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        poses = tuple(poses)
        n = len(poses)
        annotation = ctx.artifacts.get("annotation")
        if annotation is not None:
            from .analysis.events import foot_clearance

            ground = float(foot_clearance(poses[:1], annotation.dims)[0])
        else:
            ground = float(poses[0].y0)
        ctx.artifacts["events"] = JumpEvents(
            takeoff_frame=max(1, n // 3),
            landing_frame=max(1, n - 1),
            peak_frame=max(1, n // 2),
            ground_height=ground,
        )
        return poses

    def _fallback_scoring(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        from .scoring.phases import StageWindows

        poses = tuple(poses)
        events = ctx.artifacts.get("events")
        takeoff = getattr(events, "takeoff_frame", None)
        try:
            windows = StageWindows.for_sequence(
                len(poses), takeoff_frame=takeoff
            )
        except ReproError:  # too-short / inconsistent sequence
            windows = StageWindows.paper_default()
        ctx.artifacts["report"] = JumpReport(
            results=(), windows=windows, profile=self.config.profile
        )
        return poses

    def _fallback_measurement(
        self, poses: tuple[StickPose, ...], ctx: StageContext
    ) -> tuple[StickPose, ...]:
        poses = tuple(poses)
        ctx.artifacts["measurement"] = JumpMeasurement(
            distance=0.0,
            takeoff_line_x=0.0,
            landing_heel_x=0.0,
            landing_frame=max(0, len(poses) - 1),
            relative_to_stature=0.0,
        )
        return poses

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def tracking_front(
        self,
        annotation: FirstFrameAnnotation | None,
        rng: np.random.Generator,
        instrumentation: Instrumentation,
    ):
        """The per-frame tracking front, one actor or N.

        Both the batch ``tracking`` stage and a live stream drive it:
        ``step(mask, candidates)`` once per frame returns a
        :class:`TrackedFrame`, and ``finish(ctx)`` returns the
        :class:`~repro.ga.temporal.TrackingResult`, the anchoring
        annotation and the per-track analyses.  With
        ``tracking.enabled`` it wraps a :class:`~repro.tracking.TrackManager`
        seeded with ``annotation``; otherwise one
        :class:`~repro.ga.temporal.TrackingSession`, anchored on
        ``annotation`` or, without one, on the first frame fit in the
        movement profile's start posture.
        """
        front = _ManyActors if self.config.tracking.enabled else _OneActor
        return front(self, annotation, rng, instrumentation)

    def open_stream(
        self,
        annotation: FirstFrameAnnotation | None = None,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        cancel_token: "CancellationToken | None" = None,
    ):
        """Open a frame-at-a-time analysis (see :mod:`repro.streaming`).

        Returns a :class:`~repro.streaming.StreamingAnalyzer`: call
        ``push_frame(frame)`` per arriving frame and ``finish()`` for
        the final :class:`JumpAnalysis`.  A batch-mode stream
        (``streaming.warmup_frames == 0``) buffers the frames and its
        ``finish()`` calls :meth:`analyze`; a live stream steps
        :meth:`tracking_front` per frame and finishes through
        :meth:`finish_live`.
        """
        from .streaming import StreamingAnalyzer

        return StreamingAnalyzer(
            self,
            annotation=annotation,
            rng=rng,
            instrumentation=instrumentation,
            cancel_token=cancel_token,
        )

    def analyze(
        self,
        video: VideoSequence,
        annotation: FirstFrameAnnotation | None = None,
        rng: np.random.Generator | None = None,
        instrumentation: Instrumentation | None = None,
        cancel_token: "CancellationToken | None" = None,
    ) -> JumpAnalysis:
        """Run segmentation, tracking, event detection and scoring.

        ``annotation`` provides the first-frame stick model (pose +
        body dimensions).  When omitted, the automatic moment-based
        initialiser runs on the first silhouette — convenient, but a
        human-drawn model is what the paper assumes and tracks better.

        ``instrumentation`` chooses the observability sink for this
        run; by default a fresh silent collector is used, so the
        returned :attr:`JumpAnalysis.trace` is always populated.

        ``cancel_token`` enables cooperative cancellation: the runner
        checks it between stages and raises
        :class:`~repro.errors.CancelledError` once it is set (the job
        subsystem's ``DELETE /v1/jobs/{id}`` path).

        With ``localization.enabled`` the video is first segmented into
        attempt windows and each window runs the seven stages
        independently (see :meth:`_analyze_localized`); otherwise the
        clip is analysed as one attempt, exactly as the paper assumes.

        A live config (``streaming.warmup_frames >= 2``) analyses a
        clip at least that long as a live stream of it does: its frames
        are pushed through :meth:`open_stream`, against a background
        frozen on the warm-up prefix, so one config gives one result
        whichever entry point runs it.
        """
        if len(video) == 0:
            raise VideoError(
                "cannot analyze a zero-frame video; the sequence needs at "
                "least one frame to segment and anchor the stick model"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        instrumentation = instrumentation or Instrumentation()
        if self.config.localization.enabled:
            return self._analyze_localized(
                video, annotation, rng, instrumentation, cancel_token
            )
        warmup = self.config.streaming.warmup_frames
        if warmup and len(video) >= warmup:
            # A shorter clip never leaves its warm-up: it takes the
            # batch path below, as such a stream's finish() does, so
            # this cannot recurse.
            stream = self.open_stream(
                annotation, rng, instrumentation, cancel_token
            )
            stream.extend(video)
            return stream.finish()
        return self._analyze_window(
            video, annotation, rng, instrumentation, cancel_token
        )

    def finish_live(
        self, front, context: StageContext, started_at: float
    ) -> JumpAnalysis:
        """Finish a live stream whose frames went through ``front``.

        ``context`` carries the stream's per-frame ``segmentations`` and
        ``background``.  The front finishes as after the batch
        ``tracking`` stage, and the runner's post-tracking stages
        complete the analysis.  No top-level segmentation or tracking
        stage ran (that work happened per frame), so the trace's stage
        table starts with their accumulated sub-spans, and
        ``total_seconds`` is the wall clock since ``started_at``.
        """
        self._stamp_config(context)
        poses = self._finish_front(front, context)
        outcome = self._runner.run(
            poses, context=context, start_after="tracking"
        )
        inst = context.instrumentation
        head = (
            StageTiming(
                "segmentation",
                sum(
                    timing.seconds
                    for timing in inst.timings()
                    if timing.name.startswith("segmentation/")
                ),
            ),
            StageTiming("tracking", inst.seconds("tracking/frame")),
        )
        trace = replace(
            outcome.trace,
            stages=head + outcome.trace.stages,
            total_seconds=time.perf_counter() - started_at,
        )
        return self._analysis(outcome.context.artifacts, trace)

    def _stamp_config(self, context: StageContext) -> None:
        """Record the resolved config and its hash as run provenance."""
        config_dict = self.config.to_dict()
        context.metadata["config"] = config_dict
        context.metadata["config_hash"] = config_hash(config_dict)

    def _analyze_window(
        self,
        video: VideoSequence,
        annotation: FirstFrameAnnotation | None,
        rng: np.random.Generator,
        instrumentation: Instrumentation,
        cancel_token: "CancellationToken | None",
    ) -> JumpAnalysis:
        """The classic whole-sequence path: run all seven stages."""
        context = StageContext(
            instrumentation=instrumentation,
            cancel_token=cancel_token,
        )
        context.artifacts["annotation"] = annotation
        context.artifacts["rng"] = rng
        self._stamp_config(context)
        outcome = self._runner.run(video, context=context)
        return self._analysis(outcome.context.artifacts, outcome.trace)

    @staticmethod
    def _analysis(artifacts: dict[str, Any], trace: RunTrace) -> JumpAnalysis:
        """Assemble one run's artifacts and trace, health summary included."""
        tracking: TrackingResult = artifacts["tracking"]
        tracks: tuple[TrackAnalysis, ...] = artifacts.get("tracks", ())
        diagnostics: dict[str, Any] = {
            "degraded": bool(
                tracking.degraded
                or trace.degraded
                or any(t.degraded for t in tracks)
            ),
            "unhealthy_frames": tracking.unhealthy_frames(),
            "flagged_frames": tracking.flagged_frames(),
            "health_summary": tracking.health_summary(),
            "frame_health": [entry.to_dict() for entry in tracking.health],
            "degraded_stages": list(trace.degraded_stages),
        }
        if tracks:
            diagnostics["tracks"] = [
                {
                    "track_id": t.track_id,
                    "state": t.state,
                    "start_frame": t.start_frame,
                    "frames": t.frames,
                    "degraded": t.degraded,
                }
                for t in tracks
            ]
        return JumpAnalysis(
            segmentations=artifacts["segmentations"],
            background=artifacts["background"],
            annotation=artifacts["annotation"],
            tracking=tracking,
            poses=artifacts["poses"],
            events=artifacts["events"],
            report=artifacts["report"],
            measurement=artifacts["measurement"],
            trace=trace,
            config=trace.metadata["config"],
            config_hash=trace.metadata["config_hash"],
            diagnostics=diagnostics,
            tracks=tracks,
        )

    def _analyze_localized(
        self,
        video: VideoSequence,
        annotation: FirstFrameAnnotation | None,
        rng: np.random.Generator,
        instrumentation: Instrumentation,
        cancel_token: "CancellationToken | None",
    ) -> JumpAnalysis:
        """Find the attempts in a long clip and analyse each one.

        Every window runs the classic seven-stage path over its
        sub-clip, sequentially and against the *same* rng — a clip
        whose single window spans the whole video therefore draws the
        identical random stream and reproduces the classic result
        byte-for-byte (the single-attempt parity pin).  The caller's
        ``annotation`` anchors only a window that starts at frame 0;
        later windows fall back to the automatic initialiser (a
        hand-drawn frame-0 stick figure has no meaning mid-clip).
        Checkpointing is not threaded through the multi-window path —
        localised runs are re-run from scratch on resume.
        """
        with instrumentation.span("localization"):
            result = localize_attempts(video, self.config.localization)
        instrumentation.count("localization.windows", len(result.windows))
        if not result.windows:
            return self._no_attempts_analysis(
                video, annotation, result, instrumentation
            )
        primary_index = result.primary_index
        attempts: list[AttemptAnalysis] = []
        for index, window in enumerate(result.windows):
            if window.start == 0 and window.end == len(video):
                sub_video = video  # identity, not a copy: parity anchor
            else:
                sub_video = video.clip(window.start, window.end)
            sub_annotation = annotation if window.start == 0 else None
            analysis = self._analyze_window(
                sub_video, sub_annotation, rng, instrumentation, cancel_token
            )
            attempts.append(
                AttemptAnalysis(
                    attempt_id=f"a{index}",
                    window=window,
                    analysis=analysis,
                    primary=index == primary_index,
                )
            )
        primary = attempts[primary_index].analysis
        diagnostics = dict(primary.diagnostics)
        diagnostics["attempts"] = [
            {
                "attempt_id": a.attempt_id,
                "start": a.window.start,
                "end": a.window.end,
                "confidence": a.window.confidence,
                "primary": a.primary,
                "score": a.score,
                "degraded": a.analysis.degraded,
            }
            for a in attempts
        ]
        diagnostics["degraded"] = bool(
            diagnostics.get("degraded")
            or any(a.analysis.degraded for a in attempts)
        )
        return replace(
            primary,
            attempts=tuple(attempts),
            localization=result,
            diagnostics=diagnostics,
        )

    def _no_attempts_analysis(
        self,
        video: VideoSequence,
        annotation: FirstFrameAnnotation | None,
        result: LocalizationResult,
        instrumentation: Instrumentation,
    ) -> JumpAnalysis:
        """A clean empty analysis for a clip with no detected activity.

        A zero-motion video is a *valid input* to a localising
        analyzer, not an error: the result carries an empty ``attempts``
        array, an empty report, and ``diagnostics["no_attempts"]`` so
        every consumer (service payloads, CLI) renders it gracefully.
        """
        from .scoring.phases import StageWindows

        instrumentation.event("localization/no_attempts")
        config_dict = self.config.to_dict()
        resolved_hash = config_hash(config_dict)
        if annotation is None:
            annotation = FirstFrameAnnotation(
                pose=StickPose.standing(
                    x0=video.width / 2.0, y0=video.height / 2.0
                ),
                dims=default_body(),
            )
        return JumpAnalysis(
            segmentations=(),
            background=np.zeros_like(
                np.asarray(video[0], dtype=np.float64)
            ),
            annotation=annotation,
            tracking=TrackingResult(poses=(), records=(), health=()),
            poses=(),
            events=JumpEvents(
                takeoff_frame=0,
                landing_frame=0,
                peak_frame=0,
                ground_height=0.0,
            ),
            report=JumpReport(
                results=(),
                windows=StageWindows.paper_default(),
                profile=self.config.profile,
            ),
            measurement=JumpMeasurement(
                distance=0.0,
                takeoff_line_x=0.0,
                landing_heel_x=0.0,
                landing_frame=0,
                relative_to_stature=0.0,
            ),
            trace=RunTrace(
                stages=(),
                metadata={
                    "config": config_dict,
                    "config_hash": resolved_hash,
                },
            ),
            config=config_dict,
            config_hash=resolved_hash,
            diagnostics={
                "degraded": False,
                "no_attempts": True,
                "unhealthy_frames": [],
                "flagged_frames": [],
                "health_summary": {},
                "frame_health": [],
                "degraded_stages": [],
                "attempts": [],
            },
            localization=result,
        )

def analyze_video(
    video: VideoSequence,
    annotation: FirstFrameAnnotation | None = None,
    config: AnalyzerConfig | None = None,
    rng: np.random.Generator | None = None,
    instrumentation: Instrumentation | None = None,
) -> JumpAnalysis:
    """One-call convenience wrapper around :class:`JumpAnalyzer`."""
    return JumpAnalyzer(config).analyze(
        video, annotation=annotation, rng=rng, instrumentation=instrumentation
    )
