"""The full five-step human-segmentation pipeline of Section 2.

``SegmentationPipeline.fit`` runs Step 1 (background estimation) once
for the whole sequence; ``segment`` then applies Steps 2–5 to a frame
and returns every intermediate mask, which is what the Fig. 2 / Fig. 3
benches plot.  A final (optional, on by default) largest-component
selection yields the single jumper silhouette the pose estimator needs.

The per-frame steps are modelled as named **sub-stages** (see
:meth:`SegmentationPipeline.sub_stage_names`) so the runtime's
instrumentation can time and count each paper step independently:
``segmentation/subtract``, ``segmentation/noise_removal``,
``segmentation/spot_removal``, ``segmentation/hole_fill``,
``segmentation/shadow`` and ``segmentation/components``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .background import (
    BackgroundResult,
    ChangeDetectionBackgroundEstimator,
    ChangeDetectionConfig,
    MedianBackgroundEstimator,
)
from .online import WarmupBackgroundModel
from .cleanup import (
    CleanupConfig,
    step_hole_fill,
    step_noise_removal,
    step_spot_removal,
)
from .shadow import ShadowMaskConfig, remove_shadows
from .subtraction import SubtractionConfig, subtract_background
from ..errors import SegmentationError
from ..imaging.components import label_components
from ..perf.executors import ParallelConfig, parallel_map
from ..registry import Registry
from ..runtime import Instrumentation
from ..video.sequence import VideoSequence

#: Per-frame segmentation sub-steps, selectable by name via
#: ``segmentation.steps``.  Each step is ``fn(state, config)`` over the
#: per-frame state dict (``frame``, ``background``, ``mask``, plus the
#: intermediate masks it writes).
SEGMENTATION_STEPS: Registry = Registry("segmentation step")

#: The paper's Steps 2–5, in order — the default ``steps`` value.
DEFAULT_STEPS = (
    "subtract",
    "noise_removal",
    "spot_removal",
    "hole_fill",
    "shadow",
    "components",
)


@dataclass(frozen=True, slots=True)
class SegmentationConfig:
    """All parameters of the five-step pipeline."""

    change_detection: ChangeDetectionConfig = field(
        default_factory=ChangeDetectionConfig
    )
    subtraction: SubtractionConfig = field(default_factory=SubtractionConfig)
    cleanup: CleanupConfig = field(default_factory=CleanupConfig)
    shadow: ShadowMaskConfig = field(default_factory=ShadowMaskConfig)
    use_median_background: bool = False  # baseline switch for Fig. 1 bench
    # Align frames to the first frame by phase correlation before
    # anything else.  Off by default (the paper assumes a tripod); turn
    # on for handheld footage — an unstabilised shaky sequence destroys
    # change-detection background estimation.
    stabilize: bool = False
    stabilize_max_shift: int = 8
    keep_largest_component: bool = True
    # A component is kept when its area is at least this fraction of
    # the largest one; cleanup can sever the jumper at a thin junction,
    # so strictly keeping one component would drop half the body.
    component_keep_fraction: float = 0.3
    # Multi-actor mode: with max_components > 1 the final step stops
    # collapsing to the dominant region and instead keeps the union of
    # the top-N components (area >= min_component_area each), emitting
    # them as per-component silhouette candidates on the
    # FrameSegmentation for the tracking layer to associate.  The
    # default (1) preserves the paper's one-jumper behaviour exactly.
    max_components: int = 1
    min_component_area: int = 40
    remove_shadows: bool = True
    # Per-frame sub-steps, by registry name and in execution order.
    # Dropping a name skips that paper step; registered extensions can
    # be spliced in without touching the pipeline class.
    steps: tuple[str, ...] = DEFAULT_STEPS

    def __post_init__(self) -> None:
        unknown = [name for name in self.steps if name not in SEGMENTATION_STEPS]
        if unknown:
            known = ", ".join(SEGMENTATION_STEPS.names())
            raise SegmentationError(
                f"unknown segmentation step(s) {unknown}; choose from: {known}"
            )
        if "subtract" not in self.steps:
            raise SegmentationError(
                "the 'subtract' step is mandatory (every later step "
                "consumes its foreground mask)"
            )
        if self.max_components < 1:
            raise SegmentationError(
                f"max_components must be >= 1, got {self.max_components}"
            )
        if self.min_component_area < 1:
            raise SegmentationError(
                f"min_component_area must be >= 1, got {self.min_component_area}"
            )


@dataclass(frozen=True, slots=True)
class FrameSegmentation:
    """Every intermediate mask of one frame (Fig. 2 a–d and Fig. 3)."""

    raw_foreground: np.ndarray  # Step 2 (Fig. 2a)
    after_noise_removal: np.ndarray  # Step 3, neighbour rule (Fig. 2b)
    after_spot_removal: np.ndarray  # Step 3, small spots (Fig. 2c)
    after_hole_fill: np.ndarray  # Step 4 (Fig. 2d)
    detected_shadow: np.ndarray  # Step 5 shadow mask
    person: np.ndarray  # final silhouette (Fig. 3)
    # Per-component silhouette candidates (multi-actor mode only, i.e.
    # ``max_components > 1``): one boolean mask per kept component,
    # largest first.  ``person`` is their union.  Empty in the paper's
    # single-jumper configuration.
    candidates: tuple[np.ndarray, ...] = ()

    def stages(self) -> dict[str, np.ndarray]:
        """All masks keyed by stage name, in pipeline order."""
        return {
            "raw_foreground": self.raw_foreground,
            "after_noise_removal": self.after_noise_removal,
            "after_spot_removal": self.after_spot_removal,
            "after_hole_fill": self.after_hole_fill,
            "person": self.person,
        }


# ----------------------------------------------------------------------
# The per-frame sub-steps (Steps 2–5), registered by name.  Each reads
# and writes the per-frame state dict; ``state["mask"]`` is the running
# foreground mask every step consumes and updates.
# ----------------------------------------------------------------------
@SEGMENTATION_STEPS.register("subtract")
def _step_subtract(state: dict[str, Any], config: SegmentationConfig) -> None:
    state["raw_foreground"] = subtract_background(
        state["frame"], state["background"], config.subtraction
    )
    state["mask"] = state["raw_foreground"]


@SEGMENTATION_STEPS.register("noise_removal")
def _step_noise_removal(state: dict[str, Any], config: SegmentationConfig) -> None:
    state["after_noise_removal"] = step_noise_removal(state["mask"], config.cleanup)
    state["mask"] = state["after_noise_removal"]


@SEGMENTATION_STEPS.register("spot_removal")
def _step_spot_removal(state: dict[str, Any], config: SegmentationConfig) -> None:
    state["after_spot_removal"] = step_spot_removal(state["mask"], config.cleanup)
    state["mask"] = state["after_spot_removal"]


@SEGMENTATION_STEPS.register("hole_fill")
def _step_hole_fill(state: dict[str, Any], config: SegmentationConfig) -> None:
    state["after_hole_fill"] = step_hole_fill(state["mask"], config.cleanup)
    state["mask"] = state["after_hole_fill"]


@SEGMENTATION_STEPS.register("shadow")
def _step_shadow(state: dict[str, Any], config: SegmentationConfig) -> None:
    if config.remove_shadows:
        person, detected = remove_shadows(
            state["frame"], state["background"], state["mask"], config.shadow
        )
    else:
        person = state["mask"]
        detected = np.zeros_like(person)
    state["detected_shadow"] = detected
    state["mask"] = person


@SEGMENTATION_STEPS.register("components")
def _step_components(state: dict[str, Any], config: SegmentationConfig) -> None:
    if config.max_components > 1:
        before = state["mask"]
        labels, count = label_components(before)
        if count == 0:
            state["candidates"] = ()
            state["mask"] = np.zeros_like(before, dtype=bool)
            state["components_total"] = 0
            state["components_rejected"] = 0
            state["rejected_area"] = 0
            return
        areas = np.bincount(labels.ravel(), minlength=count + 1)
        # Same ordering contract as imaging.top_n_components: area
        # descending, ties broken by raster-order label.
        ranked = sorted(
            (
                label
                for label in range(1, count + 1)
                if areas[label] >= config.min_component_area
            ),
            key=lambda label: (-areas[label], label),
        )[: config.max_components]
        candidates = tuple(labels == label for label in ranked)
        union = np.zeros_like(before, dtype=bool)
        for candidate in candidates:
            union |= candidate
        state["candidates"] = candidates
        state["mask"] = union
        state["components_total"] = count
        state["components_rejected"] = count - len(candidates)
        state["rejected_area"] = int(
            sum(int(areas[label]) for label in range(1, count + 1))
            - sum(int(areas[label]) for label in ranked)
        )
        return
    if config.keep_largest_component:
        before = state["mask"]
        labels, count = label_components(before)
        if count == 0:
            state["mask"] = np.zeros_like(before, dtype=bool)
            state["components_total"] = 0
            state["components_rejected"] = 0
            state["rejected_area"] = 0
            return
        areas = np.bincount(labels.ravel(), minlength=count + 1)
        areas[0] = 0
        keep = areas >= config.component_keep_fraction * areas.max()
        keep[0] = False
        state["mask"] = keep[labels]
        state["components_total"] = count
        state["components_rejected"] = int(count - keep.sum())
        state["rejected_area"] = int(areas[~keep].sum())


class SegmentationPipeline:
    """Steps 1–5 of the paper, orchestrated over a video sequence.

    The per-frame sub-steps are resolved by name from
    :data:`SEGMENTATION_STEPS` according to ``config.steps``, so a
    config can skip or reorder paper steps (and extensions can register
    new ones) without touching this class.

    Pass an :class:`~repro.runtime.Instrumentation` to time every
    sub-stage and count silhouette pixels; without one a silent
    collector is used.
    """

    def __init__(
        self,
        config: SegmentationConfig | None = None,
        instrumentation: Instrumentation | None = None,
        parallel: ParallelConfig | None = None,
    ) -> None:
        self.config = config or SegmentationConfig()
        self.instrumentation = instrumentation or Instrumentation()
        self.parallel = parallel or ParallelConfig()
        self._background_result: BackgroundResult | None = None

    # ------------------------------------------------------------------
    # Step 1
    # ------------------------------------------------------------------
    def _estimator(
        self,
    ) -> MedianBackgroundEstimator | ChangeDetectionBackgroundEstimator:
        """The batch Step-1 estimator this config selects."""
        if self.config.use_median_background:
            return MedianBackgroundEstimator()
        return ChangeDetectionBackgroundEstimator(self.config.change_detection)

    def background_model(self, warmup_frames: int = 0) -> WarmupBackgroundModel:
        """A fresh online Step-1 model matching this pipeline's config.

        The model buffers observed frames and freezes them through the
        configured batch estimator, so freezing after the whole sequence
        is byte-identical to :meth:`fit`.  ``warmup_frames`` sets when
        the model reports :attr:`~WarmupBackgroundModel.ready` (``0``:
        the owner decides).
        """
        return WarmupBackgroundModel(
            self._estimator(), warmup_frames=warmup_frames
        )

    def fit(self, video: VideoSequence) -> BackgroundResult:
        """Estimate the background (Step 1) and remember it."""
        with self.instrumentation.span("segmentation/fit_background"):
            model = self.background_model()
            model.observe_video(video)
            self._background_result = model.freeze()
        return self._background_result

    def set_background(self, result: BackgroundResult) -> None:
        """Adopt a background frozen elsewhere.

        Used by the streaming analyzer, which freezes an
        :class:`~repro.segmentation.online.OnlineBackgroundModel` after
        its warm-up.
        """
        self._background_result = result

    @property
    def background_result(self) -> BackgroundResult:
        """The full Step-1 result (requires :meth:`fit` or
        :meth:`set_background`)."""
        if self._background_result is None:
            raise SegmentationError("call fit() before reading the background")
        return self._background_result

    @property
    def background(self) -> np.ndarray:
        """The estimated background image (requires :meth:`fit`)."""
        return self.background_result.background

    # ------------------------------------------------------------------
    # Steps 2–5, as named sub-stages over a per-frame state dict
    # ------------------------------------------------------------------
    def _sub_stages(
        self,
    ) -> tuple[tuple[str, Callable[[dict[str, Any], SegmentationConfig], None]], ...]:
        return tuple(
            (name, SEGMENTATION_STEPS.get(name)) for name in self.config.steps
        )

    def sub_stage_names(self) -> tuple[str, ...]:
        """Names of the per-frame sub-stages, in execution order."""
        return tuple(self.config.steps)

    def segment(self, frame: np.ndarray) -> FrameSegmentation:
        """Apply the configured per-frame steps (default: Steps 2–5)."""
        return self._segment_with(frame, self.instrumentation)

    def _segment_with(
        self, frame: np.ndarray, instrumentation: Instrumentation
    ) -> FrameSegmentation:
        state: dict[str, Any] = {"frame": frame, "background": self.background}
        for name, step in self._sub_stages():
            with instrumentation.span(f"segmentation/{name}"):
                step(state, self.config)
        state["person"] = state["mask"]

        instrumentation.count("segmentation.frames", 1)
        instrumentation.count(
            "segmentation.person_pixels", float(state["person"].sum())
        )
        # Discarded actors/noise blobs are an observable, not a silent
        # drop: /metrics and --profile report how many components the
        # final step rejected and how much silhouette area went with
        # them.
        if "components_rejected" in state:
            instrumentation.count(
                "segmentation.components_total", state["components_total"]
            )
            instrumentation.count(
                "segmentation.components_rejected",
                state["components_rejected"],
            )
            instrumentation.count(
                "segmentation.rejected_area", float(state["rejected_area"])
            )
        # Steps skipped by config fall back to the nearest upstream
        # mask, so the FrameSegmentation record stays total.
        raw = state["raw_foreground"]
        after_noise = state.get("after_noise_removal", raw)
        after_spot = state.get("after_spot_removal", after_noise)
        after_hole = state.get("after_hole_fill", after_spot)
        return FrameSegmentation(
            raw_foreground=raw,
            after_noise_removal=after_noise,
            after_spot_removal=after_spot,
            after_hole_fill=after_hole,
            detected_shadow=state.get(
                "detected_shadow", np.zeros_like(state["person"])
            ),
            person=state["person"],
            candidates=tuple(state.get("candidates", ())),
        )

    def segment_video(self, video: VideoSequence) -> list[FrameSegmentation]:
        """Fit on the sequence, then segment every frame.

        With ``stabilize`` enabled, frames are first aligned to frame 0
        by phase correlation; the returned masks are shifted back into
        each original frame's coordinates.
        """
        offsets: list[tuple[int, int]] | None = None
        if self.config.stabilize:
            from ..imaging.registration import stabilize_frames

            with self.instrumentation.span("segmentation/stabilize"):
                aligned, offsets = stabilize_frames(
                    video.frames, max_shift=self.config.stabilize_max_shift
                )
            video = VideoSequence(aligned)

        self.fit(video)
        frames = list(video)
        parallel = self.parallel
        if parallel.is_serial or len(frames) <= 1:
            segmentations = [self.segment(frame) for frame in frames]
        else:
            # Each worker records into a private collector (the shared
            # instrumentation is not synchronised) and ships it back
            # with the frame's masks; the collectors are merged after
            # the fan-out, so per-step spans and counters survive
            # parallel execution.  Merged span seconds are summed CPU
            # time across workers, which can exceed the wall-clock
            # ``segmentation/parallel_frames`` span that brackets the
            # whole batch.
            with self.instrumentation.span("segmentation/parallel_frames"):
                results = parallel_map(self._segment_collect, frames, parallel)
            segmentations = [seg for seg, _ in results]
            for _, worker_instrumentation in results:
                self.instrumentation.merge(worker_instrumentation)

        if offsets is not None:
            from ..imaging.registration import shift_image

            undone: list[FrameSegmentation] = []
            for seg, (drow, dcol) in zip(segmentations, offsets):
                undone.append(
                    FrameSegmentation(
                        raw_foreground=shift_image(seg.raw_foreground, -drow, -dcol),
                        after_noise_removal=shift_image(
                            seg.after_noise_removal, -drow, -dcol
                        ),
                        after_spot_removal=shift_image(
                            seg.after_spot_removal, -drow, -dcol
                        ),
                        after_hole_fill=shift_image(seg.after_hole_fill, -drow, -dcol),
                        detected_shadow=shift_image(seg.detected_shadow, -drow, -dcol),
                        person=shift_image(seg.person, -drow, -dcol),
                        candidates=tuple(
                            shift_image(candidate, -drow, -dcol)
                            for candidate in seg.candidates
                        ),
                    )
                )
            segmentations = undone
        return segmentations

    def _segment_collect(
        self, frame: np.ndarray
    ) -> tuple[FrameSegmentation, Instrumentation]:
        """One frame with a private collector, returned for merging."""
        instrumentation = Instrumentation()
        return self._segment_with(frame, instrumentation), instrumentation

    def silhouettes(self, video: VideoSequence) -> list[np.ndarray]:
        """Convenience: just the final person mask of every frame."""
        return [seg.person for seg in self.segment_video(video)]
