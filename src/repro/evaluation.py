"""Corpus-level evaluation: the study the paper left as future work.

"The scoring system will soon be developed and the results will be
compared with human evaluation."  Synthetic ground truth stands in for
the human evaluator: :func:`evaluate_detection` runs the full pipeline
over a corpus of labelled jumps (clean and flawed) and aggregates
per-standard detection statistics, and :func:`evaluate_tracking`
aggregates pose-tracking accuracy.  Both are :func:`analyze_corpus`
followed by a scorer (:func:`score_detection`, :func:`score_tracking`),
so a caller that wants both analyses each jump once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model.annotation import simulate_human_annotation
from .model.pose import mean_joint_error, pose_angle_errors
from .pipeline import AnalyzerConfig, JumpAnalysis, JumpAnalyzer
from .scoring.standards import Standard
from .video.synthesis.dataset import SyntheticJump


@dataclass(frozen=True, slots=True)
class StandardStats:
    """Detection counts for one standard over a corpus."""

    standard: Standard
    true_positive: int = 0  # flaw injected and detected
    false_negative: int = 0  # flaw injected, missed
    false_positive: int = 0  # flaw detected on a jump that conformed
    true_negative: int = 0

    @property
    def recall(self) -> float:
        """Detected fraction of injected flaws (1.0 when none injected)."""
        total = self.true_positive + self.false_negative
        return self.true_positive / total if total else 1.0

    @property
    def false_alarm_rate(self) -> float:
        """Fraction of conforming jumps falsely flagged."""
        total = self.false_positive + self.true_negative
        return self.false_positive / total if total else 0.0


@dataclass(frozen=True, slots=True)
class DetectionEvaluation:
    """Aggregate flaw-detection quality over a corpus."""

    per_standard: tuple[StandardStats, ...]
    num_jumps: int

    @property
    def overall_recall(self) -> float:
        """Micro-averaged recall over all injected flaws."""
        tp = sum(s.true_positive for s in self.per_standard)
        fn = sum(s.false_negative for s in self.per_standard)
        return tp / (tp + fn) if (tp + fn) else 1.0

    @property
    def overall_false_alarm_rate(self) -> float:
        """Micro-averaged false-alarm rate."""
        fp = sum(s.false_positive for s in self.per_standard)
        tn = sum(s.true_negative for s in self.per_standard)
        return fp / (fp + tn) if (fp + tn) else 0.0


def _analyze(jump: SyntheticJump, analyzer: JumpAnalyzer, seed: int):
    annotation = simulate_human_annotation(
        jump.motion.poses[0],
        jump.dims,
        mask=jump.person_masks[0],
        rng=np.random.default_rng(seed),
    )
    return analyzer.analyze(
        jump.video, annotation=annotation, rng=np.random.default_rng(seed + 1)
    )


def analyze_corpus(
    jumps: list[SyntheticJump],
    config: AnalyzerConfig | None = None,
    seed: int = 0,
) -> list[JumpAnalysis]:
    """Run the full pipeline once over each jump of a corpus."""
    analyzer = JumpAnalyzer(config)
    return [
        _analyze(jump, analyzer, seed + 10 * index)
        for index, jump in enumerate(jumps)
    ]


def evaluate_detection(
    jumps: list[SyntheticJump],
    config: AnalyzerConfig | None = None,
    seed: int = 0,
) -> DetectionEvaluation:
    """Run the full pipeline over a corpus and score flaw detection."""
    return score_detection(jumps, analyze_corpus(jumps, config, seed))


def score_detection(
    jumps: list[SyntheticJump], analyses: list[JumpAnalysis]
) -> DetectionEvaluation:
    """Per-standard flaw-detection statistics of analysed jumps."""
    counts = {
        standard: {"tp": 0, "fn": 0, "fp": 0, "tn": 0} for standard in Standard
    }
    for jump, analysis in zip(jumps, analyses):
        detected = set(analysis.report.violated_standards)
        injected = set(jump.violated)
        for standard in Standard:
            if standard in injected:
                key = "tp" if standard in detected else "fn"
            else:
                key = "fp" if standard in detected else "tn"
            counts[standard][key] += 1

    per_standard = tuple(
        StandardStats(
            standard=standard,
            true_positive=c["tp"],
            false_negative=c["fn"],
            false_positive=c["fp"],
            true_negative=c["tn"],
        )
        for standard, c in counts.items()
    )
    return DetectionEvaluation(per_standard=per_standard, num_jumps=len(jumps))


@dataclass(frozen=True, slots=True)
class TrackingEvaluation:
    """Aggregate pose-tracking accuracy over a corpus."""

    mean_joint_error: float
    max_joint_error: float
    mean_angle_error: float
    per_stick_angle_error: tuple[float, ...]
    num_jumps: int


def evaluate_tracking(
    jumps: list[SyntheticJump],
    config: AnalyzerConfig | None = None,
    seed: int = 0,
) -> TrackingEvaluation:
    """Run the full pipeline over a corpus and score tracking accuracy."""
    return score_tracking(jumps, analyze_corpus(jumps, config, seed))


def score_tracking(
    jumps: list[SyntheticJump], analyses: list[JumpAnalysis]
) -> TrackingEvaluation:
    """Pose-tracking accuracy of analysed jumps against ground truth."""
    joint_errors: list[float] = []
    stick_errors: list[np.ndarray] = []
    for jump, analysis in zip(jumps, analyses):
        for k in range(1, jump.num_frames):
            joint_errors.append(
                mean_joint_error(analysis.poses[k], jump.motion.poses[k], jump.dims)
            )
            stick_errors.append(
                pose_angle_errors(analysis.poses[k], jump.motion.poses[k])
            )
    per_stick = np.mean(stick_errors, axis=0)
    return TrackingEvaluation(
        mean_joint_error=float(np.mean(joint_errors)),
        max_joint_error=float(np.max(joint_errors)),
        mean_angle_error=float(per_stick.mean()),
        per_stick_angle_error=tuple(float(v) for v in per_stick),
        num_jumps=len(jumps),
    )


# ----------------------------------------------------------------------
# Multi-actor (MOT-style) evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class MOTEvaluation:
    """Labelled multi-actor tracking quality for one scene.

    Per-frame ground-truth actor boxes (from synthesis) are Hungarian-
    matched against the analysis' per-track pose boxes at
    ``iou_threshold``; the classic MOT ledgers follow:

    * ``id_switches`` — frames where an actor's matched track id
      differs from the id it matched in its previous matched frame;
    * ``track_purity`` — per track, the fraction of its matched frames
      spent on its majority actor (1.0 = the track never borrowed
      another actor's silhouette);
    * ``mota`` — MOTA-lite: ``1 - (misses + false_positives +
      id_switches) / gt_total`` (clamped at 0 below).
    """

    num_actors: int
    num_tracks: int
    gt_total: int  # ground-truth actor-frames with a visible box
    matches: int
    misses: int
    false_positives: int
    id_switches: int
    id_switches_per_actor: tuple[int, ...]
    track_purity: dict[str, float]
    mota: float


def evaluate_mot(jump, analysis, iou_threshold: float = 0.1) -> MOTEvaluation:
    """Score a multi-actor analysis against its scene's ground truth.

    ``jump`` is a :class:`~repro.video.synthesis.MultiActorJump`;
    ``analysis`` a :class:`~repro.pipeline.JumpAnalysis` with per-track
    results (a single-actor analysis works too — its synthesised
    primary track is matched like any other).
    """
    from .tracking.association import hungarian_match, iou_matrix
    from .tracking.track import pose_bounding_box

    shape = jump.video.frames.shape[1:3]
    tracks = list(analysis.tracks)
    num_frames = jump.num_frames

    # Per-frame predicted box of every track (None outside its span).
    def track_box(track, frame):
        offset = frame - track.start_frame
        if offset < 0 or offset >= len(track.tracking.poses):
            return None
        return pose_bounding_box(
            track.tracking.poses[offset], track.annotation.dims, shape
        )

    gt_total = matches = misses = false_positives = 0
    last_track_of: dict[int, str] = {}  # actor -> last matched track id
    switches = [0] * jump.num_actors
    assignment_log: list[tuple[int, str]] = []  # (actor, track_id) pairs

    for frame in range(num_frames):
        gt = [(i, box) for i, box in enumerate(jump.gt_boxes(frame)) if box]
        pred = [
            (t.track_id, box)
            for t in tracks
            if (box := track_box(t, frame)) is not None
        ]
        gt_total += len(gt)
        matrix = iou_matrix([b for _, b in gt], [b for _, b in pred])
        pairs = hungarian_match(matrix, iou_threshold)
        matches += len(pairs)
        misses += len(gt) - len(pairs)
        false_positives += len(pred) - len(pairs)
        for row, col in pairs:
            actor, track_id = gt[row][0], pred[col][0]
            previous = last_track_of.get(actor)
            if previous is not None and previous != track_id:
                switches[actor] += 1
            last_track_of[actor] = track_id
            assignment_log.append((actor, track_id))

    purity: dict[str, float] = {}
    for track in tracks:
        counts: dict[int, int] = {}
        for actor, track_id in assignment_log:
            if track_id == track.track_id:
                counts[actor] = counts.get(actor, 0) + 1
        total = sum(counts.values())
        purity[track.track_id] = (
            max(counts.values()) / total if total else 0.0
        )

    id_switches = sum(switches)
    mota = (
        max(0.0, 1.0 - (misses + false_positives + id_switches) / gt_total)
        if gt_total
        else 0.0
    )
    return MOTEvaluation(
        num_actors=jump.num_actors,
        num_tracks=len(tracks),
        gt_total=gt_total,
        matches=matches,
        misses=misses,
        false_positives=false_positives,
        id_switches=id_switches,
        id_switches_per_actor=tuple(switches),
        track_purity=purity,
        mota=mota,
    )
