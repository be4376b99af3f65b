"""Online background estimation — Step 1 without the whole video.

The batch estimator in :mod:`repro.segmentation.background` consume a
complete :class:`~repro.video.sequence.VideoSequence`.  Streaming
ingestion delivers frames one at a time, so Step 1 is restructured here
as an *online model*: observe frames as they arrive, report when enough
evidence has accumulated, and freeze into the exact
:class:`~repro.segmentation.background.BackgroundResult` the per-frame
steps (2–5) already consume.  Two implementations:

* :class:`WarmupBackgroundModel` — buffer the observed frames and, on
  :meth:`~WarmupBackgroundModel.freeze`, run the configured *batch*
  estimator over the buffer.  Fed the whole sequence this is
  byte-identical to ``SegmentationPipeline.fit`` — the parity anchor of
  the streaming refactor; fed only a warm-up prefix it is the
  "freeze after N frames" mode the streaming analyzer uses.
* :class:`RunningBackgroundModel` — O(1)-memory incremental change
  detection.  It runs the batch estimator's own per-pair recurrence
  (:class:`~repro.segmentation.background.StablePairScan`); only the
  no-stable-pair fallback differs — the batch estimator uses the
  temporal *median* frame, which cannot be kept in O(1) memory, so this
  model substitutes the running *mean* frame for those pixels.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .background import (
    BackgroundResult,
    ChangeDetectionConfig,
    StablePairScan,
)
from ..errors import StreamError, VideoError
from ..video.sequence import VideoSequence


@runtime_checkable
class OnlineBackgroundModel(Protocol):
    """Step 1 as an incremental consumer of frames.

    ``observe`` folds one frame into the model; ``ready`` turns True
    once the model has seen enough frames to freeze; ``freeze`` yields
    the final :class:`~repro.segmentation.background.BackgroundResult`
    (idempotent — repeated calls return the same result).  Observing
    after a freeze raises :class:`~repro.errors.StreamError`.
    """

    def observe(self, frame: np.ndarray) -> None:
        """Fold one RGB frame into the model."""
        ...

    @property
    def frames_seen(self) -> int:
        """Number of frames observed so far."""
        ...

    @property
    def ready(self) -> bool:
        """True once enough frames accumulated to freeze."""
        ...

    def freeze(self) -> BackgroundResult:
        """Finalise the model into a background estimate."""
        ...


class WarmupBackgroundModel:
    """Buffer frames, then freeze through a batch estimator.

    ``estimator`` is any object with an
    ``estimate(video) -> BackgroundResult`` method (the batch
    estimator).  ``warmup_frames`` is the buffer size after which
    :attr:`ready` turns True; ``0`` means "never ready on its own" —
    the owner decides when to freeze, which is how the batch path
    buffers a whole sequence.
    """

    def __init__(self, estimator, warmup_frames: int = 0) -> None:
        self._estimator = estimator
        self.warmup_frames = int(warmup_frames)
        self._buffer: list[np.ndarray] = []
        self._video: VideoSequence | None = None
        self._frozen: BackgroundResult | None = None

    def observe(self, frame: np.ndarray) -> None:
        if self._frozen is not None:
            raise StreamError("background model already frozen")
        self._buffer.append(np.asarray(frame))

    def observe_video(self, video: VideoSequence) -> None:
        """Adopt a whole sequence without re-buffering it (batch path)."""
        if self._frozen is not None:
            raise StreamError("background model already frozen")
        if self._buffer or self._video is not None:
            self._buffer.extend(video)
        else:
            self._video = video

    @property
    def frames_seen(self) -> int:
        buffered = len(self._buffer)
        if self._video is not None:
            buffered += len(self._video)
        return buffered

    @property
    def ready(self) -> bool:
        return self.warmup_frames > 0 and self.frames_seen >= self.warmup_frames

    def freeze(self) -> BackgroundResult:
        if self._frozen is None:
            if self._video is not None:
                video = self._video
            elif self._buffer:
                video = VideoSequence(self._buffer)
            else:
                raise VideoError(
                    "cannot freeze a background model that saw no frames"
                )
            self._frozen = self._estimator.estimate(video)
            self._buffer = []
            self._video = None
        return self._frozen


class RunningBackgroundModel:
    """Incremental change detection with O(1) memory in stream length.

    Keeps only the previous frame, the per-pixel accumulators of a
    :class:`~repro.segmentation.background.StablePairScan` and a running
    frame sum, so an unbounded stream can feed it.  See the module docstring for how it
    relates to the batch estimator.
    """

    def __init__(
        self,
        config: ChangeDetectionConfig | None = None,
        min_frames: int = 2,
    ) -> None:
        self.config = config or ChangeDetectionConfig()
        self.min_frames = max(2, int(min_frames))
        self._frames_seen = 0
        self._prev: np.ndarray | None = None
        self._frozen: BackgroundResult | None = None
        # Allocated lazily at the first frame, once the shape is known.
        self._scan: StablePairScan | None = None
        self._frame_sum: np.ndarray | None = None

    @property
    def frames_seen(self) -> int:
        return self._frames_seen

    @property
    def ready(self) -> bool:
        return self._frames_seen >= self.min_frames

    def observe(self, frame: np.ndarray) -> None:
        if self._frozen is not None:
            raise StreamError("background model already frozen")
        frame = np.asarray(frame, dtype=np.float64)
        if self._prev is None:
            height, width = frame.shape[:2]
            self._scan = StablePairScan(height, width, self.config)
            self._frame_sum = np.zeros((height, width, 3), dtype=np.float64)
        else:
            self._scan.add(self._prev, frame)
        self._frame_sum += frame
        self._prev = frame
        self._frames_seen += 1

    def freeze(self) -> BackgroundResult:
        if self._frozen is not None:
            return self._frozen
        if self._frames_seen < 2:
            raise VideoError("change detection needs at least two frames")
        support = self._scan.support
        fallback = support == 0
        background = self._scan.background()
        if fallback.any():
            mean_frame = self._frame_sum / float(self._frames_seen)
            background[fallback] = mean_frame[fallback]
        self._frozen = BackgroundResult(
            background=np.clip(background, 0.0, 1.0),
            support=support,
            fallback_mask=fallback,
        )
        return self._frozen
