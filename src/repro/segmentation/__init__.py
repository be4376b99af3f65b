"""Human-object segmentation: the five-step pipeline of Section 2."""

from .background import (
    BackgroundResult,
    ChangeDetectionBackgroundEstimator,
    ChangeDetectionConfig,
)
from .cleanup import CleanupConfig, CleanupStages, clean_foreground
from .online import (
    OnlineBackgroundModel,
    RunningBackgroundModel,
    WarmupBackgroundModel,
)
from .evaluation import (
    SequenceEvaluation,
    StageScores,
    evaluate_sequence,
    score_stages,
)
from .pipeline import FrameSegmentation, SegmentationConfig, SegmentationPipeline
from .shadow import ShadowMaskConfig, remove_shadows, shadow_mask
from .subtraction import SubtractionConfig, difference_image, subtract_background

__all__ = [
    "BackgroundResult",
    "ChangeDetectionBackgroundEstimator",
    "ChangeDetectionConfig",
    "OnlineBackgroundModel",
    "RunningBackgroundModel",
    "WarmupBackgroundModel",
    "CleanupConfig",
    "CleanupStages",
    "clean_foreground",
    "SequenceEvaluation",
    "StageScores",
    "evaluate_sequence",
    "score_stages",
    "FrameSegmentation",
    "SegmentationConfig",
    "SegmentationPipeline",
    "ShadowMaskConfig",
    "remove_shadows",
    "shadow_mask",
    "SubtractionConfig",
    "difference_image",
    "subtract_background",
]
