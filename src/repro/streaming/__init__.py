"""Frame-at-a-time analysis with provisional results.

:class:`StreamingAnalyzer` is the push-based front end of the pipeline:
feed it one frame at a time (``push_frame``), read the provisional
state it returns (:class:`FrameUpdate`), and call ``finish()`` for the
final :class:`~repro.pipeline.JumpAnalysis`.  It adds no second
pipeline: a batch-mode stream finishes through
:meth:`~repro.pipeline.JumpAnalyzer.analyze`, and a live stream steps
the analyzer's tracking front (the one the batch ``tracking`` stage
drives) and finishes through
:meth:`~repro.pipeline.JumpAnalyzer.finish_live` — see
:class:`~repro.pipeline.StreamingConfig` for the warm-up/provisional
knobs and ``docs/streaming.md`` for the protocol.
"""

from .analyzer import FrameUpdate, ProvisionalEstimate, StreamingAnalyzer

__all__ = [
    "FrameUpdate",
    "ProvisionalEstimate",
    "StreamingAnalyzer",
]
