"""repro — a full reproduction of *Motion Analysis for the Standing
Long Jump* (Hsu et al., ICDCSW 2006).

The library implements the paper's three-part system end to end, plus
the synthetic-video substrate and ground truth needed to evaluate it:

* :mod:`repro.segmentation` — the five-step human segmentation of
  Section 2 (change-detection background, subtraction, noise/spot/hole
  cleanup, HSV shadow removal);
* :mod:`repro.model` / :mod:`repro.ga` — the stick model and GA pose
  estimation of Section 3, including the temporal tracker;
* :mod:`repro.scoring` — the standards and rules of Section 4 with
  report generation;
* :mod:`repro.video.synthesis` — parametric standing-long-jump videos
  with exact silhouette/shadow/pose ground truth;
* :mod:`repro.imaging` — the from-scratch image-processing substrate;
* :mod:`repro.analysis` — trajectory smoothing, event detection and
  flight kinematics;
* :mod:`repro.runtime` — the composable stage runtime (Stage /
  PipelineRunner / Instrumentation) every layer is composed from;
* :mod:`repro.pipeline` — the end-to-end :class:`JumpAnalyzer`;
* :mod:`repro.streaming` — the push-based frame-at-a-time core
  (:class:`StreamingAnalyzer`) that batch ``analyze`` wraps, with
  provisional mid-stream estimates;
* :mod:`repro.localization` — temporal attempt localisation: find the
  jump(s) inside a long clip before analysing each window;
* :mod:`repro.profiles` — the movement-profile registry that lifts the
  paper's standards/rules tables into a pluggable
  :class:`MovementProfile` (``standing_long_jump``, ``sit_to_stand``);
* :mod:`repro.service` / :mod:`repro.client` / :mod:`repro.jobs` — the
  versioned ``/v1`` HTTP service the paper sketches as future work,
  its typed client, and the asynchronous job subsystem.

The intended entry points are re-exported here and frozen in
``repro.__all__`` (snapshot-tested); see ``docs/api.md`` for the tour.

Quickstart::

    from repro import JumpAnalyzer, synthesize_jump, simulate_human_annotation

    jump = synthesize_jump()
    annotation = simulate_human_annotation(
        jump.motion.poses[0], jump.dims, mask=jump.person_masks[0]
    )
    analysis = JumpAnalyzer().analyze(jump.video, annotation=annotation)
    print(analysis.report.render_text())
"""

from .errors import (
    CancelledError,
    CircuitOpen,
    ConfigurationError,
    ImageError,
    ModelError,
    ReproError,
    ScoringError,
    SegmentationError,
    StreamError,
    TrackingError,
    VideoError,
)
from .config import (
    config_from_dict,
    config_hash,
    config_to_dict,
    get_preset,
    preset_names,
    resolve_config,
)
from .ga import (
    GAConfig,
    GeneticAlgorithm,
    SingleFrameConfig,
    TemporalPoseTracker,
    TrackerConfig,
    TrackingResult,
    TrackingSession,
    estimate_single_frame,
)
from .model import (
    AngleWindows,
    BodyDimensions,
    FirstFrameAnnotation,
    SilhouetteFitness,
    StickPose,
    auto_annotate,
    default_body,
    simulate_human_annotation,
)
from .evaluation import (
    DetectionEvaluation,
    MOTEvaluation,
    TrackingEvaluation,
    evaluate_detection,
    evaluate_mot,
    evaluate_tracking,
)
from .localization import (
    AttemptWindow,
    LocalizationConfig,
    LocalizationResult,
    localize_attempts,
    motion_energy,
)
from .pipeline import (
    AnalyzerConfig,
    AttemptAnalysis,
    JumpAnalysis,
    JumpAnalyzer,
    RobustnessConfig,
    StreamingConfig,
    analyze_video,
    multi_actor_config,
)
from .profiles import (
    MOVEMENT_PROFILES,
    MovementProfile,
    get_profile,
    profile_names,
)
from .tracking import (
    AssociationResult,
    Track,
    TrackAnalysis,
    TrackManager,
    TrackingConfig,
    associate,
    box_iou,
)
from .streaming import FrameUpdate, ProvisionalEstimate, StreamingAnalyzer
from .runtime import (
    FunctionStage,
    Instrumentation,
    LoggingSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    PipelineRunner,
    RunTrace,
    Stage,
    StageContext,
    StageTiming,
)
from .scoring import (
    RULES,
    JumpMeasurement,
    JumpReport,
    JumpScorer,
    PixelCalibration,
    StageWindows,
    Standard,
    grade_distance,
    measure_jump,
)
from .segmentation import (
    OnlineBackgroundModel,
    RunningBackgroundModel,
    SegmentationConfig,
    SegmentationPipeline,
    WarmupBackgroundModel,
)
from .jobs import (
    FrameQueue,
    FrameQueueFull,
    JobManager,
    JobsConfig,
    JobState,
    JobStore,
    JobStoreBackend,
    SharedDirectoryBackend,
    SingleProcessBackend,
    StreamIdleTimeout,
)
from .service import (
    API_VERSION,
    ServiceConfig,
    ServiceHandle,
    encode_video,
    decode_video,
    route_table,
    serve,
)
from .client import (
    ClientError,
    JobFailedError,
    JobTimeoutError,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from .resilience import CircuitBreaker, ServiceLifecycle, Watchdog
from .video import VideoSequence
from .video.synthesis import (
    JumpParameters,
    JumpStyle,
    LongClip,
    LongClipConfig,
    MultiActorJump,
    MultiActorJumpConfig,
    SitToStandClip,
    SitToStandClipConfig,
    SyntheticJump,
    SyntheticJumpConfig,
    synthesize_flawed_jump,
    synthesize_idle_clip,
    synthesize_jump,
    synthesize_long_clip,
    synthesize_multi_jump,
    synthesize_sit_to_stand,
)

__version__ = "1.0.0"

__all__ = [
    "API_VERSION",
    "CancelledError",
    "ClientError",
    "ConfigurationError",
    "ImageError",
    "ModelError",
    "ReproError",
    "ScoringError",
    "SegmentationError",
    "StreamError",
    "TrackingError",
    "VideoError",
    "GAConfig",
    "GeneticAlgorithm",
    "SingleFrameConfig",
    "TemporalPoseTracker",
    "TrackerConfig",
    "TrackingResult",
    "TrackingSession",
    "estimate_single_frame",
    "AngleWindows",
    "BodyDimensions",
    "FirstFrameAnnotation",
    "SilhouetteFitness",
    "StickPose",
    "auto_annotate",
    "default_body",
    "simulate_human_annotation",
    "AnalyzerConfig",
    "AttemptAnalysis",
    "AttemptWindow",
    "JumpAnalysis",
    "JumpAnalyzer",
    "LocalizationConfig",
    "LocalizationResult",
    "MOVEMENT_PROFILES",
    "MovementProfile",
    "RobustnessConfig",
    "StreamingConfig",
    "analyze_video",
    "get_profile",
    "localize_attempts",
    "motion_energy",
    "multi_actor_config",
    "profile_names",
    "AssociationResult",
    "Track",
    "TrackAnalysis",
    "TrackManager",
    "TrackingConfig",
    "associate",
    "box_iou",
    "FrameUpdate",
    "ProvisionalEstimate",
    "StreamingAnalyzer",
    "FunctionStage",
    "Instrumentation",
    "LoggingSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PipelineRunner",
    "RunTrace",
    "Stage",
    "StageContext",
    "StageTiming",
    "DetectionEvaluation",
    "MOTEvaluation",
    "TrackingEvaluation",
    "evaluate_detection",
    "evaluate_mot",
    "evaluate_tracking",
    "JumpMeasurement",
    "JumpReport",
    "JumpScorer",
    "PixelCalibration",
    "RULES",
    "StageWindows",
    "Standard",
    "grade_distance",
    "measure_jump",
    "OnlineBackgroundModel",
    "RunningBackgroundModel",
    "SegmentationConfig",
    "SegmentationPipeline",
    "WarmupBackgroundModel",
    "FrameQueue",
    "FrameQueueFull",
    "JobFailedError",
    "JobManager",
    "JobState",
    "JobStore",
    "JobStoreBackend",
    "JobTimeoutError",
    "JobsConfig",
    "SharedDirectoryBackend",
    "SingleProcessBackend",
    "StreamIdleTimeout",
    "CircuitBreaker",
    "CircuitOpen",
    "RetryPolicy",
    "ServiceLifecycle",
    "Watchdog",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "decode_video",
    "encode_video",
    "get_preset",
    "preset_names",
    "resolve_config",
    "route_table",
    "serve",
    "VideoSequence",
    "JumpParameters",
    "JumpStyle",
    "LongClip",
    "LongClipConfig",
    "MultiActorJump",
    "MultiActorJumpConfig",
    "SitToStandClip",
    "SitToStandClipConfig",
    "SyntheticJump",
    "SyntheticJumpConfig",
    "synthesize_flawed_jump",
    "synthesize_idle_clip",
    "synthesize_jump",
    "synthesize_long_clip",
    "synthesize_multi_jump",
    "synthesize_sit_to_stand",
    "__version__",
]
