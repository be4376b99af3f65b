"""Temporal GA pose tracking — the paper's contribution.

Frame 0 comes from human annotation; every later frame is estimated by
the GA seeded from the previous frame's pose (centres around the new
silhouette centroid, angles inside per-stick windows ``Δρ_l``).  With
this seeding the paper observes the best model already "at the second
generation" — the Fig. 7 bench measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convergence import SearchResult
from .engine import GAConfig
from .population import temporal_population
from .strategies import SEARCH_STRATEGIES, SearchRequest
from ..errors import ConfigurationError, ImageError, ModelError, TrackingError
from ..imaging.image import ensure_mask
from ..model.containment import ContainmentChecker
from ..model.fitness import FitnessConfig, SilhouetteFitness
from ..model.pose import StickPose
from ..model.sticks import AngleWindows, BodyDimensions
from ..runtime import Instrumentation


@dataclass(frozen=True, slots=True)
class RecoveryConfig:
    """Per-frame recovery ladder for degraded silhouettes (extension).

    Real footage loses silhouettes: a dropped frame, a noise burst, an
    occlusion.  With recovery enabled the tracker bridges such frames
    instead of raising :class:`~repro.errors.TrackingError`:

    1. a frame whose silhouette is missing/degenerate, whose search is
       infeasible, or whose fitness *collapses* relative to the healthy
       frames so far is replaced by a damped constant-velocity
       extrapolation (or a carry-forward of the previous pose);
    2. after ``reanchor_after`` consecutive losses, the next usable
       silhouette re-anchors the track via the automatic moment-based
       annotator instead of the (by now stale) previous pose;
    3. frames that cannot be recovered carry the last pose forward and
       are marked ``failed``.

    Every frame's outcome is recorded as a :class:`FrameHealth` on the
    :class:`TrackingResult`.  ``enabled=False`` restores the strict
    fail-fast behaviour (the ``paper`` preset).
    """

    enabled: bool = True
    # How many consecutive lost frames may be bridged by extrapolation
    # before the track is declared ``failed`` (carry-forward only).
    max_extrapolated: int = 3
    # Consecutive losses after which the next usable silhouette is
    # re-seeded from auto-annotation instead of the previous pose.
    reanchor_after: int = 2
    # A tracked frame whose Eq. 3 fitness exceeds
    # ``max(collapse_min_fitness, collapse_factor * median(healthy))``
    # is treated as lost (the silhouette was there but was garbage).
    collapse_factor: float = 3.0
    collapse_min_fitness: float = 0.9
    # Silhouettes below this pixel count are treated as empty.
    min_silhouette_pixels: int = 40
    # Adaptive floor: once >= 3 frames were accepted, a silhouette
    # smaller than this fraction of the median accepted area is treated
    # as lost (catches residual blobs after a blanked/occluded frame
    # that still clear the absolute pixel floor).  Clean jump
    # silhouettes keep >~0.9 of the median area frame to frame, so 0.5
    # has wide margin on both sides.
    min_area_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_extrapolated < 0:
            raise ConfigurationError("recovery.max_extrapolated must be >= 0")
        if self.reanchor_after < 1:
            raise ConfigurationError("recovery.reanchor_after must be >= 1")
        if self.collapse_factor <= 1.0:
            raise ConfigurationError("recovery.collapse_factor must be > 1")
        if self.min_silhouette_pixels < 1:
            raise ConfigurationError(
                "recovery.min_silhouette_pixels must be >= 1"
            )
        if not 0.0 <= self.min_area_fraction < 1.0:
            raise ConfigurationError(
                "recovery.min_area_fraction must be in [0, 1)"
            )


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    """Everything the temporal tracker needs besides the body.

    Five extensions beyond the paper (all on by default, all
    switchable off for the paper-faithful ablation):

    * ``extrapolate`` — centre the angle windows on a damped
      constant-velocity prediction instead of the previous pose, so a
      fast arm swing stays inside the search window;
    * ``reseed_fraction`` — give this fraction of the initial
      population one uniformly randomised angle group, so a limb lost
      in an earlier frame can be rediscovered;
    * ``temporal_weight`` — a weak smoothness prior added to Eq. 3;
    * ``limb_rescue`` — post-GA grid sweep over the arm group and foot;
    * ``polish`` — post-GA coordinate descent with shrinking steps.
    """

    ga: GAConfig = field(
        default_factory=lambda: GAConfig(max_generations=30, patience=10)
    )
    windows: AngleWindows = field(default_factory=AngleWindows)
    fitness: FitnessConfig = field(default_factory=FitnessConfig)
    # Per-frame search strategy, resolved by name from
    # :data:`~repro.ga.strategies.SEARCH_STRATEGIES` ("ga",
    # "hill_climb", "random_search", "nelder_mead").
    strategy: str = "ga"
    containment_margin: int = 1
    containment_samples: int = 7
    min_inside_fraction: float = 0.95
    include_previous: bool = True
    hard_containment: bool = True  # reject offspring outside the silhouette
    extrapolate: bool = True
    extrapolation_damping: float = 0.7
    max_extrapolation_step: float = 50.0  # degrees per frame, clamp
    reseed_fraction: float = 0.10
    # Weight of the temporal prior added to Eq. 3 during tracking:
    # penalises mean angular deviation (fraction of 180°) from the
    # window centre.  Small on purpose — silhouette evidence must win
    # whenever it exists; the prior only breaks silhouette ties (e.g.
    # an arm lying over the trunk).  0 restores the paper's pure Eq. 3.
    temporal_weight: float = 0.03
    # Limb rescue (extension): after the GA, sweep a coarse grid over
    # the arm gene group (and the foot angle) and adopt a feasible
    # candidate when it beats the incumbent's *raw* Eq. 3 fitness by
    # ``rescue_margin``.  The arm is the limb the window seeding loses
    # (it whips half a circle in a few frames), and once lost the
    # 0.01-per-group mutation never brings it back; the paper's own
    # figures only ever show two tracked frames, where this cannot yet
    # be observed.
    limb_rescue: bool = True
    rescue_margin: float = 0.005
    # Local polish (extension): after GA + rescue, coordinate-descent
    # over all genes with shrinking steps.  Removes the grid
    # quantisation of the rescue sweep and sharpens angles the GA left
    # a few degrees off (rule thresholds like "ρ2 > 270°" are tight).
    polish: bool = True
    polish_angle_steps: tuple[float, ...] = (12.0, 6.0, 3.0)
    polish_center_steps: tuple[float, ...] = (2.0, 1.0)
    # Per-frame fault recovery (extension): bridge lost/degenerate
    # silhouettes instead of raising.  See :class:`RecoveryConfig`.
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        if self.strategy not in SEARCH_STRATEGIES:
            known = ", ".join(SEARCH_STRATEGIES.names())
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}; "
                f"choose from: {known}"
            )


def extrapolate_pose(
    prev2: StickPose,
    prev1: StickPose,
    damping: float = 0.7,
    max_angle_step: float = 50.0,
    max_center_step: float = 12.0,
) -> StickPose:
    """Damped constant-velocity prediction of the next pose."""
    from ..model.geometry import angle_difference, wrap_angle

    dx = np.clip(damping * (prev1.x0 - prev2.x0), -max_center_step, max_center_step)
    dy = np.clip(damping * (prev1.y0 - prev2.y0), -max_center_step, max_center_step)
    angles = []
    for a2, a1 in zip(prev2.angles_deg, prev1.angles_deg):
        step = float(np.clip(
            damping * angle_difference(a1, a2), -max_angle_step, max_angle_step
        ))
        angles.append(float(wrap_angle(a1 + step)))
    return StickPose(
        x0=prev1.x0 + float(dx), y0=prev1.y0 + float(dy), angles_deg=tuple(angles)
    )


#: Valid :attr:`FrameHealth.status` values, from best to worst.
FRAME_STATUSES = ("tracked", "reanchored", "extrapolated", "failed")


@dataclass(frozen=True, slots=True)
class FrameHealth:
    """What happened to one frame of the track.

    ``status`` is one of :data:`FRAME_STATUSES`: ``tracked`` (the
    search ran and its result was accepted), ``reanchored`` (accepted,
    but seeded from auto-annotation after a run of losses),
    ``extrapolated`` (the silhouette was unusable; the pose is a
    motion-model prediction) or ``failed`` (unrecoverable; the last
    pose was carried forward).  ``reason`` says why recovery was
    needed; ``recovery`` names the mechanism used (``extrapolate``,
    ``carry_forward`` or ``auto_annotate``).
    """

    frame_index: int
    status: str
    reason: str = ""
    recovery: str | None = None
    fitness: float | None = None

    @property
    def healthy(self) -> bool:
        """True when the frame's pose came from an accepted search."""
        return self.status in ("tracked", "reanchored")

    def to_dict(self) -> dict:
        """JSON-ready form (service diagnostics)."""
        return {
            "frame": self.frame_index,
            "status": self.status,
            "reason": self.reason,
            "recovery": self.recovery,
            "fitness": self.fitness,
        }


@dataclass(frozen=True, slots=True)
class FrameTrackingRecord:
    """Per-frame tracking outcome."""

    frame_index: int
    pose: StickPose
    fitness: float
    search: SearchResult


@dataclass(frozen=True, slots=True)
class TrackingResult:
    """Pose track over a whole silhouette sequence."""

    poses: tuple[StickPose, ...]  # includes the annotated frame 0
    records: tuple[FrameTrackingRecord, ...]  # searched frames only
    # One entry per frame (including frame 0) when tracked through
    # :meth:`TemporalPoseTracker.track`; empty for hand-built results.
    health: tuple[FrameHealth, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when any frame needed recovery (or failed outright)."""
        return any(not entry.healthy for entry in self.health)

    def unhealthy_frames(self) -> list[int]:
        """Frame indices whose pose did not come from an accepted search."""
        return [
            entry.frame_index for entry in self.health if not entry.healthy
        ]

    def health_summary(self) -> dict[str, int]:
        """Frame count per health status (zero-count statuses included)."""
        summary = {status: 0 for status in FRAME_STATUSES}
        for entry in self.health:
            summary[entry.status] = summary.get(entry.status, 0) + 1
        return summary

    @property
    def mean_generation_of_best(self) -> float:
        """Average generation at which each frame's best model appeared."""
        if not self.records:
            return 0.0
        return float(
            np.mean([record.search.generation_of_best for record in self.records])
        )

    @property
    def mean_fitness(self) -> float:
        """Average final fitness across tracked frames."""
        if not self.records:
            return 0.0
        return float(np.mean([record.fitness for record in self.records]))

    def fitness_track(self) -> np.ndarray:
        """Final fitness per tracked frame."""
        return np.array([record.fitness for record in self.records])

    def confidence_track(self) -> np.ndarray:
        """Per-frame confidence in [0, 1] from the fitness distribution.

        A frame whose Eq. 3 fitness sits at the sequence median gets
        ~0.5; frames much worse than the robust spread (median absolute
        deviation) fall toward 0.  Useful for flagging frames where the
        silhouette was bad or the model slipped.
        """
        fitness = self.fitness_track()
        if fitness.size == 0:
            return fitness
        median = float(np.median(fitness))
        mad = float(np.median(np.abs(fitness - median)))
        if mad < 1e-8:
            # Degenerate spread: (near-)identical fitness everywhere.
            # A tiny MAD fallback would explode the z-scores and flag
            # frames that differ only by float noise, so report a flat
            # "no evidence either way" confidence instead.
            return np.full(fitness.shape, 0.5)
        z = (fitness - median) / (1.4826 * mad)
        return 1.0 / (1.0 + np.exp(z - 1.0))

    def flagged_frames(self, confidence_threshold: float = 0.25) -> list[int]:
        """Frame indices whose confidence falls below the threshold."""
        confidence = self.confidence_track()
        return [
            record.frame_index
            for record, value in zip(self.records, confidence)
            if value < confidence_threshold
        ]


class TemporalPoseTracker:
    """Track the jumper's pose through a silhouette sequence.

    With an :class:`~repro.runtime.Instrumentation` attached, the
    tracker times every frame under the ``tracking/frame`` span,
    forwards the GA's counters (generations, fitness evaluations,
    rejected offspring), accumulates ``fitness.silhouette_points`` and
    ``fitness.rows_scored`` (the chromosomes Eq. 3 actually computed;
    every other fitness row was answered from the frame's score table)
    and emits one ``tracking/frame`` convergence event per tracked
    frame.
    """

    def __init__(
        self,
        dims: BodyDimensions,
        config: TrackerConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.dims = dims
        self.config = config or TrackerConfig()
        self.instrumentation = instrumentation or Instrumentation()

    def estimate_frame(
        self,
        mask: np.ndarray,
        prev_pose: StickPose,
        rng: np.random.Generator,
        prev_prev_pose: StickPose | None = None,
    ) -> tuple[StickPose, SearchResult]:
        """Estimate one frame's pose from the previous frame's.

        When ``prev_prev_pose`` is given and extrapolation is enabled,
        the search windows are centred on a damped constant-velocity
        prediction instead of on ``prev_pose`` itself.
        """
        mask = ensure_mask(mask)
        if not mask.any():
            raise TrackingError("cannot estimate a pose on an empty silhouette")
        cfg = self.config

        window_center = prev_pose
        extra_seeds: list[StickPose] = []
        if cfg.extrapolate and prev_prev_pose is not None:
            window_center = extrapolate_pose(
                prev_prev_pose,
                prev_pose,
                damping=cfg.extrapolation_damping,
                max_angle_step=cfg.max_extrapolation_step,
            )
            extra_seeds.append(window_center)

        fitness = SilhouetteFitness(mask, self.dims, cfg.fitness)
        self.instrumentation.count(
            "fitness.silhouette_points", fitness.num_points
        )
        checker = ContainmentChecker(
            mask,
            self.dims,
            margin=cfg.containment_margin,
            samples_per_stick=cfg.containment_samples,
            min_inside_fraction=cfg.min_inside_fraction,
        )
        population = temporal_population(
            window_center,
            mask,
            cfg.windows,
            cfg.ga.population_size,
            checker=checker,
            rng=rng,
            include_previous=False,
            reseed_fraction=cfg.reseed_fraction,
            extra_seeds=(
                [prev_pose] + extra_seeds if cfg.include_previous else extra_seeds
            ),
        )
        if cfg.temporal_weight > 0:
            center_angles = np.asarray(window_center.angles_deg)
            weight = cfg.temporal_weight

            def fitness_fn(genes: np.ndarray, _raw=fitness.evaluate) -> np.ndarray:
                raw = np.atleast_1d(_raw(genes))
                batch = np.atleast_2d(genes)
                deviation = np.abs(
                    np.mod(batch[:, 2:] - center_angles + 180.0, 360.0) - 180.0
                ).mean(axis=1) / 180.0
                return raw + weight * deviation
        else:
            fitness_fn = fitness.evaluate

        validity = checker.check if cfg.hard_containment else None

        def sampler(n: int) -> np.ndarray:
            return temporal_population(
                window_center,
                mask,
                cfg.windows,
                n,
                checker=checker,
                rng=rng,
                include_previous=False,
                reseed_fraction=cfg.reseed_fraction,
            )

        strategy = SEARCH_STRATEGIES.get(cfg.strategy)
        result = strategy(
            SearchRequest(
                population=population,
                start=window_center.to_genes(),
                fitness_fn=fitness_fn,
                validity_fn=validity,
                sampler=sampler,
                config=cfg,
                rng=rng,
                instrumentation=self.instrumentation,
            )
        )
        if cfg.limb_rescue:
            result.best_genes = self._rescue_limbs(
                result.best_genes, fitness, checker
            )
        if cfg.polish:
            result.best_genes = self._polish(result.best_genes, fitness, checker)

        pose = StickPose.from_genes(result.best_genes)
        # Keep the GA's internal objective in best_fitness (consistent
        # with its history); expose the raw Eq. 3 value separately.
        result.raw_fitness = float(fitness.evaluate(result.best_genes))
        self.instrumentation.count("fitness.rows_scored", fitness.rows_scored)
        return pose, result

    def _rescue_limbs(
        self,
        genes: np.ndarray,
        fitness: SilhouetteFitness,
        checker: ContainmentChecker,
    ) -> np.ndarray:
        """Grid-sweep the arm group and the foot angle (see config)."""
        from ..model.chromosome import angle_gene
        from ..model.sticks import FOOT, FOREARM, UPPER_ARM

        best = genes.copy()
        arm_gene = angle_gene(UPPER_ARM)
        forearm_gene = angle_gene(FOREARM)

        # Arm group: 18 upper-arm headings x 5 elbow offsets.
        candidates = [best]
        for arm in range(0, 360, 20):
            for rel in (-60.0, -30.0, 0.0, 30.0, 60.0):
                candidate = best.copy()
                candidate[arm_gene] = float(arm)
                candidate[forearm_gene] = float((arm + rel) % 360.0)
                candidates.append(candidate)
        best = self._pick_rescue(np.asarray(candidates), fitness, checker)

        # Foot: 12 headings.
        foot_gene = angle_gene(FOOT)
        candidates = [best]
        for foot in range(0, 360, 30):
            candidate = best.copy()
            candidate[foot_gene] = float(foot)
            candidates.append(candidate)
        return self._pick_rescue(np.asarray(candidates), fitness, checker)

    def _polish(
        self,
        genes: np.ndarray,
        fitness: SilhouetteFitness,
        checker: ContainmentChecker,
    ) -> np.ndarray:
        """Coordinate descent with shrinking steps, feasibility-checked."""
        from .refine import local_polish

        cfg = self.config
        return local_polish(
            genes,
            fitness.evaluate,
            validity_fn=checker.check,
            angle_steps=cfg.polish_angle_steps,
            center_steps=cfg.polish_center_steps,
        )

    def _pick_rescue(
        self,
        candidates: np.ndarray,
        fitness: SilhouetteFitness,
        checker: ContainmentChecker,
    ) -> np.ndarray:
        """Best feasible candidate, if clearly better than candidates[0]."""
        incumbent = candidates[0]
        feasible = checker.check(candidates)
        feasible[0] = True  # the incumbent always competes
        pool = candidates[feasible]
        scores = np.atleast_1d(fitness.evaluate(pool))
        incumbent_score = scores[0]
        best_idx = int(scores.argmin())
        if scores[best_idx] < incumbent_score - self.config.rescue_margin:
            return pool[best_idx].copy()
        return incumbent.copy()

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------
    def _reanchor_seed(self, mask: np.ndarray) -> StickPose | None:
        """A fresh seed pose from auto-annotation, or None if impossible."""
        from ..model.annotation import auto_annotate

        try:
            return auto_annotate(mask, dims=self.dims).pose
        except (ModelError, ImageError):
            return None

    def _collapse_threshold(
        self, accepted_fitness: list[float]
    ) -> float | None:
        """Fitness above which a tracked frame counts as lost."""
        rec = self.config.recovery
        if len(accepted_fitness) < 3:
            return None  # not enough healthy history to judge against
        median = float(np.median(accepted_fitness))
        return max(rec.collapse_min_fitness, rec.collapse_factor * median)

    def _recover(
        self,
        index: int,
        prev: StickPose,
        prev_prev: StickPose | None,
        loss_run: int,
        reason: str,
    ) -> tuple[StickPose, None, FrameHealth]:
        """Bridge one lost frame: extrapolate, carry forward, or fail."""
        rec = self.config.recovery
        if loss_run >= rec.max_extrapolated:
            health = FrameHealth(index, "failed", reason, "carry_forward")
            return prev, None, health
        if prev_prev is not None:
            pose = extrapolate_pose(
                prev_prev,
                prev,
                damping=self.config.extrapolation_damping,
                max_angle_step=self.config.max_extrapolation_step,
            )
            recovery = "extrapolate"
        else:
            pose, recovery = prev, "carry_forward"
        return pose, None, FrameHealth(index, "extrapolated", reason, recovery)

    def _track_frame(
        self,
        mask: np.ndarray,
        index: int,
        prev: StickPose,
        prev_prev: StickPose | None,
        rng: np.random.Generator,
        loss_run: int,
        accepted_fitness: list[float],
        accepted_areas: list[int],
    ) -> tuple[StickPose, FrameTrackingRecord | None, FrameHealth]:
        """One frame of the recovery ladder (recovery enabled)."""
        rec = self.config.recovery
        try:
            mask = ensure_mask(mask)
        except ImageError as exc:
            return self._recover(
                index, prev, prev_prev, loss_run, f"unusable mask: {exc}"
            )
        pixels = int(mask.sum())
        area_floor = rec.min_silhouette_pixels
        if len(accepted_areas) >= 3:
            adaptive = rec.min_area_fraction * float(
                np.median(accepted_areas)
            )
            area_floor = max(area_floor, int(adaptive))
        if pixels < area_floor:
            return self._recover(
                index,
                prev,
                prev_prev,
                loss_run,
                f"silhouette too small ({pixels} px, need {area_floor})",
            )

        status, recovery, reason = "tracked", None, ""
        seed, seed_prev = prev, prev_prev
        if loss_run >= rec.reanchor_after:
            anchor = self._reanchor_seed(mask)
            if anchor is not None:
                seed, seed_prev = anchor, None
                status, recovery = "reanchored", "auto_annotate"
                reason = f"re-anchored after {loss_run} consecutive losses"
                self.instrumentation.count("tracking.reanchors", 1)
        try:
            pose, search = self.estimate_frame(
                mask, seed, rng, prev_prev_pose=seed_prev
            )
        except (TrackingError, ModelError) as exc:
            return self._recover(index, prev, prev_prev, loss_run, str(exc))
        fitness = (
            search.raw_fitness
            if search.raw_fitness is not None
            else search.best_fitness
        )
        threshold = self._collapse_threshold(accepted_fitness)
        if threshold is not None and fitness > threshold:
            return self._recover(
                index,
                prev,
                prev_prev,
                loss_run,
                f"fitness collapse ({fitness:.3f} > {threshold:.3f})",
            )
        record = FrameTrackingRecord(
            frame_index=index, pose=pose, fitness=fitness, search=search
        )
        accepted_areas.append(pixels)
        return pose, record, FrameHealth(index, status, reason, recovery, fitness)

    def start(
        self,
        initial_pose: StickPose,
        rng: np.random.Generator | None = None,
    ) -> "TrackingSession":
        """Open an incremental track anchored on the frame-0 pose.

        The returned :class:`TrackingSession` accepts one silhouette at
        a time via :meth:`TrackingSession.step` and can report its
        accumulated :class:`TrackingResult` at any point — the
        streaming analyzer's per-frame entry point.  :meth:`track` is a
        thin loop over it.
        """
        return TrackingSession(self, initial_pose, rng=rng)

    def track(
        self,
        silhouettes: list[np.ndarray],
        initial_pose: StickPose,
        rng: np.random.Generator | None = None,
    ) -> TrackingResult:
        """Track frames 1..T-1, starting from the annotated frame-0 pose.

        With :attr:`TrackerConfig.recovery` enabled (the default), a
        frame whose silhouette is empty, degenerate, infeasible or
        whose fitness collapses is bridged by the recovery ladder
        instead of raising; the per-frame outcome is recorded in
        :attr:`TrackingResult.health`.  With recovery disabled, any
        such frame raises :class:`~repro.errors.TrackingError` exactly
        as the paper-faithful pipeline does.
        """
        if not silhouettes:
            raise TrackingError("no silhouettes to track")
        session = self.start(initial_pose, rng=rng)
        for index in range(1, len(silhouettes)):
            session.step(silhouettes[index])
        return session.result()


class TrackingSession:
    """Frame-at-a-time view of :meth:`TemporalPoseTracker.track`.

    Holds exactly the loop state the batch tracker threads between
    frames (previous poses, loss run, accepted fitness/areas), so
    stepping a whole sequence through a session is byte-identical to
    one :meth:`~TemporalPoseTracker.track` call — same RNG draws, same
    instrumentation spans, counters and events, same recovery ladder.
    """

    def __init__(
        self,
        tracker: TemporalPoseTracker,
        initial_pose: StickPose,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._tracker = tracker
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._poses: list[StickPose] = [initial_pose]
        self._records: list[FrameTrackingRecord] = []
        self._health: list[FrameHealth] = [
            FrameHealth(0, "tracked", "annotated first frame")
        ]
        self._prev = initial_pose
        self._prev_prev: StickPose | None = None
        self._loss_run = 0
        self._accepted_fitness: list[float] = []
        self._accepted_areas: list[int] = []
        self._index = 0

    @property
    def frames_seen(self) -> int:
        """Number of frames in the track so far (frame 0 included)."""
        return len(self._poses)

    @property
    def poses(self) -> tuple[StickPose, ...]:
        """The track so far, frame 0 first."""
        return tuple(self._poses)

    @property
    def latest_pose(self) -> StickPose:
        """The most recent pose in the track."""
        return self._prev

    @property
    def latest_health(self) -> FrameHealth:
        """Health of the most recent frame."""
        return self._health[-1]

    def step(self, mask: np.ndarray) -> tuple[StickPose, FrameHealth]:
        """Track the next frame's silhouette and return its outcome."""
        tracker = self._tracker
        instrumentation = tracker.instrumentation
        self._index += 1
        index = self._index
        with instrumentation.span("tracking/frame"):
            if tracker.config.recovery.enabled:
                pose, record, frame_health = tracker._track_frame(
                    mask,
                    index,
                    self._prev,
                    self._prev_prev,
                    self._rng,
                    self._loss_run,
                    self._accepted_fitness,
                    self._accepted_areas,
                )
            else:
                pose, search = tracker.estimate_frame(
                    mask, self._prev, self._rng, prev_prev_pose=self._prev_prev
                )
                fitness = (
                    search.raw_fitness
                    if search.raw_fitness is not None
                    else search.best_fitness
                )
                record = FrameTrackingRecord(
                    frame_index=index,
                    pose=pose,
                    fitness=fitness,
                    search=search,
                )
                frame_health = FrameHealth(index, "tracked", fitness=fitness)
        self._poses.append(pose)
        self._health.append(frame_health)
        instrumentation.count("tracking.frames", 1)
        if record is not None:
            self._records.append(record)
            self._accepted_fitness.append(record.fitness)
            self._loss_run = 0
            search = record.search
            instrumentation.event(
                "tracking/frame",
                frame=index,
                fitness=record.fitness,
                generations=search.generations,
                generation_of_best=search.generation_of_best,
                evaluations=search.total_evaluations,
            )
        else:
            self._loss_run += 1
            instrumentation.count("tracking.recovered_frames", 1)
            instrumentation.event(
                "tracking/recovery",
                frame=index,
                status=frame_health.status,
                reason=frame_health.reason,
                recovery=frame_health.recovery,
            )
        self._prev_prev = self._prev
        self._prev = pose
        return pose, frame_health

    def result(self) -> TrackingResult:
        """The accumulated track as an immutable :class:`TrackingResult`."""
        return TrackingResult(
            poses=tuple(self._poses),
            records=tuple(self._records),
            health=tuple(self._health),
        )
