"""Chaos harness: run one analysis per fault and report survival.

:func:`run_chaos` takes a clean video (plus its first-frame
annotation), a fault plan and an analyzer config, then for each fault
spec builds a fresh :class:`~repro.pipeline.JumpAnalyzer`, injects the
fault, and records a :class:`FaultOutcome` — did the analysis complete
(*survived*), did it need recovery or fallback (*degraded*), and which
frames/stages the diagnostics flagged.  The bundle is a
:class:`ChaosReport` with a survival rate and a renderable table; the
CLI's ``chaos`` subcommand and the CI smoke step are thin wrappers.

Everything is deterministic: fault RNGs are seeded per spec, and the
analysis RNG is reseeded identically for every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .injectors import apply_stage_faults, inject_video_faults
from .plan import FRAME_FAULT_KINDS, FaultPlan, FaultSpec


@dataclass(frozen=True, slots=True)
class FaultOutcome:
    """What one fault did to one analysis."""

    spec: FaultSpec
    survived: bool
    degraded: bool = False
    error_type: str = ""
    error: str = ""
    unhealthy_frames: tuple[int, ...] = ()
    degraded_stages: tuple[str, ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """``ok`` / ``degraded`` / ``failed`` for display."""
        if not self.survived:
            return "failed"
        return "degraded" if self.degraded else "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record of this outcome."""
        return {
            "fault": self.spec.label(),
            "kind": self.spec.kind,
            "survived": self.survived,
            "degraded": self.degraded,
            "verdict": self.verdict,
            "error_type": self.error_type,
            "error": self.error,
            "unhealthy_frames": list(self.unhealthy_frames),
            "degraded_stages": list(self.degraded_stages),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True, slots=True)
class ChaosReport:
    """Outcomes of one chaos sweep."""

    outcomes: tuple[FaultOutcome, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def survival_rate(self) -> float:
        """Fraction of faults the pipeline survived (1.0 when empty)."""
        if not self.outcomes:
            return 1.0
        survived = sum(1 for o in self.outcomes if o.survived)
        return survived / len(self.outcomes)

    @property
    def degraded_rate(self) -> float:
        """Fraction of surviving runs that needed recovery/fallback."""
        survivors = [o for o in self.outcomes if o.survived]
        if not survivors:
            return 0.0
        return sum(1 for o in survivors if o.degraded) / len(survivors)

    def failures(self) -> tuple[FaultOutcome, ...]:
        """The faults that killed the analysis."""
        return tuple(o for o in self.outcomes if not o.survived)

    def render_table(self) -> str:
        """Fixed-width table of every outcome."""
        header = f"{'fault':<34} {'verdict':<10} {'detail'}"
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            if not o.survived:
                detail = f"{o.error_type}: {o.error}"
            elif o.degraded:
                parts = []
                if o.unhealthy_frames:
                    parts.append(f"frames {list(o.unhealthy_frames)}")
                if o.degraded_stages:
                    parts.append(f"stages {list(o.degraded_stages)}")
                detail = ", ".join(parts) or "degraded"
            else:
                detail = "clean"
            lines.append(f"{o.spec.label():<34} {o.verdict:<10} {detail}")
        lines.append(
            f"survival {self.survival_rate:.0%} "
            f"({len(self.outcomes) - len(self.failures())}/"
            f"{len(self.outcomes)}), degraded {self.degraded_rate:.0%} "
            "of survivors"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the whole sweep."""
        return {
            "survival_rate": self.survival_rate,
            "degraded_rate": self.degraded_rate,
            "num_faults": len(self.outcomes),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def default_fault_grid(
    seed: int = 0,
    stage: str = "tracking",
    include_delay: bool = False,
) -> FaultPlan:
    """One fault of every kind: frame faults at the middle frame plus a
    ``stage_exception`` in ``stage`` (and optionally a ``stage_delay``).
    """
    specs = [
        FaultSpec(kind=kind, frame=-1, seed=seed) for kind in FRAME_FAULT_KINDS
    ]
    specs.append(FaultSpec(kind="stage_exception", stage=stage, seed=seed))
    if include_delay:
        specs.append(
            FaultSpec(
                kind="stage_delay", stage=stage, magnitude=0.05, seed=seed
            )
        )
    return FaultPlan(tuple(specs))


def run_chaos(
    video,
    annotation=None,
    config=None,
    plan: FaultPlan | None = None,
    rng_seed: int = 0,
    streaming: bool = False,
) -> ChaosReport:
    """Run one analysis per fault in ``plan`` and collect the outcomes.

    ``video``/``annotation``/``config`` mirror
    :func:`repro.pipeline.analyze_video`; ``plan`` defaults to
    :func:`default_fault_grid`.  Analyses that raise are recorded as
    non-survivals, never propagated — chaos reports, it does not crash.
    Errors while *setting up* a fault (an invalid plan, e.g. a frame
    index out of range) propagate instead: a harness misconfiguration
    is not a pipeline non-survival.

    With ``streaming=True`` every faulted video is fed frame by frame
    through :meth:`~repro.pipeline.JumpAnalyzer.open_stream` instead of
    one :meth:`analyze` call.  Under the default configuration
    (``streaming.warmup_frames == 0``) the stream buffers and runs the
    identical batch pipeline, so survival must match batch exactly;
    with a live config (``warmup_frames >= 2``) the sweep exercises the
    per-frame recovery ladder under fire.
    """
    from ..pipeline import JumpAnalyzer

    if plan is None:
        plan = default_fault_grid()

    outcomes: list[FaultOutcome] = []
    for spec in plan:
        single = FaultPlan((spec,))
        # Fault setup runs outside the survival try-block: a bad plan
        # (frame out of range, unknown stage) is a harness error and
        # must raise, not score against the pipeline's survival rate.
        faulted_video = inject_video_faults(video, single)
        analyzer = apply_stage_faults(JumpAnalyzer(config), single)
        start = time.perf_counter()
        try:
            if streaming:
                stream = analyzer.open_stream(
                    annotation=annotation,
                    rng=np.random.default_rng(rng_seed),
                )
                for frame in faulted_video:
                    stream.push_frame(frame)
                analysis = stream.finish()
            else:
                analysis = analyzer.analyze(
                    faulted_video,
                    annotation=annotation,
                    rng=np.random.default_rng(rng_seed),
                )
        except Exception as exc:  # noqa: BLE001 — chaos records, it
            # does not crash; any escape IS the finding.
            outcomes.append(
                FaultOutcome(
                    spec=spec,
                    survived=False,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
            continue
        diag = analysis.diagnostics
        outcomes.append(
            FaultOutcome(
                spec=spec,
                survived=True,
                degraded=analysis.degraded,
                unhealthy_frames=tuple(diag.get("unhealthy_frames", ())),
                degraded_stages=tuple(diag.get("degraded_stages", ())),
                elapsed_seconds=time.perf_counter() - start,
            )
        )
    return ChaosReport(tuple(outcomes))
