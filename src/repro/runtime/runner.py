"""Compose stages into an observable pipeline.

:class:`PipelineRunner` is deliberately thin: it validates the stage
list once, then on every :meth:`~PipelineRunner.run` threads a value
through the stages in order, timing each one, and returns a
:class:`RunOutcome` carrying the final value, the populated
:class:`~repro.runtime.stage.StageContext`, and an immutable
:class:`~repro.runtime.trace.RunTrace`.  Every future caching,
batching or parallelism PR hooks in here, between stages, without the
stages noticing.

Stages may carry per-name :class:`~repro.runtime.policies.StagePolicy`
entries — a retry budget and/or a fallback substitute.  A run whose
stage completed through a fallback is marked *degraded* on its trace
instead of raising; without a policy (the default) failures propagate
exactly as before.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .instrumentation import Instrumentation
from .policies import StagePolicy
from .stage import Stage, StageContext
from .trace import RunTrace, StageTiming
from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """What one :meth:`PipelineRunner.run` produced."""

    value: Any
    trace: RunTrace
    context: StageContext


class PipelineRunner:
    """Run a fixed sequence of stages over an input value."""

    __slots__ = ("name", "_stages", "_policies")

    def __init__(
        self,
        stages: Sequence[Stage],
        name: str = "pipeline",
        policies: Mapping[str, StagePolicy] | None = None,
    ) -> None:
        stages = tuple(stages)
        if not stages:
            raise ConfigurationError("a pipeline needs at least one stage")
        for stage in stages:
            if not isinstance(getattr(stage, "name", None), str) or not callable(
                getattr(stage, "run", None)
            ):
                raise ConfigurationError(
                    f"{stage!r} does not implement the Stage protocol "
                    "(needs a 'name' string and a 'run' callable)"
                )
        names = [stage.name for stage in stages]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ConfigurationError(
                f"stage names must be unique, duplicated: {sorted(duplicates)}"
            )
        policies = dict(policies or {})
        unknown = set(policies) - set(names)
        if unknown:
            raise ConfigurationError(
                f"policies reference unknown stage(s) {sorted(unknown)}; "
                f"stages are: {names}"
            )
        for key, policy in policies.items():
            if not isinstance(policy, StagePolicy):
                raise ConfigurationError(
                    f"policy for stage {key!r} must be a StagePolicy, "
                    f"got {type(policy).__name__}"
                )
        self.name = name
        self._stages = stages
        self._policies = policies

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The composed stages, in execution order."""
        return self._stages

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Names of the composed stages, in execution order."""
        return tuple(stage.name for stage in self._stages)

    @property
    def policies(self) -> dict[str, StagePolicy]:
        """The per-stage policies (a copy; empty when none attached)."""
        return dict(self._policies)

    def _run_stage(
        self,
        stage: Stage,
        value: Any,
        context: StageContext,
        inst: Instrumentation,
    ) -> tuple[Any, dict[str, str] | None]:
        """Run one stage under its policy.

        Returns ``(new_value, degradation)`` where ``degradation`` is
        ``None`` for a clean result and a small record when the value
        came from a fallback substitute.
        """
        policy = self._policies.get(stage.name)
        retry = policy.retry if policy is not None else None
        fallback = policy.fallback if policy is not None else None
        attempts = retry.max_attempts if retry is not None else 1
        retry_catch = retry.exceptions() if retry is not None else ()

        for attempt in range(1, attempts + 1):
            try:
                with inst.span(stage.name):
                    return stage.run(value, context), None
            except Exception as exc:
                if attempt < attempts and isinstance(exc, retry_catch):
                    inst.count("runtime.retries", 1)
                    inst.event(
                        "runtime/retry",
                        stage=stage.name,
                        attempt=attempt,
                        error=type(exc).__name__,
                    )
                    continue
                if fallback is not None and isinstance(
                    exc, fallback.exceptions()
                ):
                    substituted = fallback.produce(value, context)
                    inst.count("runtime.fallbacks", 1)
                    inst.event(
                        "runtime/fallback",
                        stage=stage.name,
                        error=type(exc).__name__,
                    )
                    return substituted, {
                        "stage": stage.name,
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                    }
                raise
        raise AssertionError("unreachable: retry loop exits via return/raise")

    def run(
        self,
        value: Any,
        instrumentation: Instrumentation | None = None,
        context: StageContext | None = None,
        start_after: str | None = None,
    ) -> RunOutcome:
        """Thread ``value`` through every stage and trace the run.

        A fresh (silent) :class:`Instrumentation` is created when none
        is given; pass your own to choose a sink or to share one
        collector across layers.  ``context`` may be pre-seeded with
        artifacts the first stage needs.

        ``start_after`` skips every stage up to and including the named
        one, so ``value`` and the pre-seeded ``context`` artifacts must
        be that prefix's outputs (the live and per-track tails run the
        post-tracking stages this way).
        """
        if context is None:
            context = StageContext(
                instrumentation=instrumentation or Instrumentation()
            )
        elif instrumentation is not None:
            context.instrumentation = instrumentation
        inst = context.instrumentation

        names = self.stage_names
        if start_after is not None and start_after not in names:
            raise ConfigurationError(
                f"start_after names unknown stage {start_after!r}; "
                f"stages are: {list(names)}"
            )
        skipping = start_after is not None

        stage_timings: list[StageTiming] = []
        degradations: list[dict[str, str]] = []
        run_start = time.perf_counter()
        for stage in self._stages:
            if skipping:
                inst.event("runtime/stage_skipped", stage=stage.name)
                if stage.name == start_after:
                    skipping = False
                continue
            # Cooperative cancellation: checked at stage boundaries
            # only, outside the retry/fallback machinery, so a
            # cancelled run never half-applies a stage or triggers a
            # fallback substitute.
            if context.cancel_token is not None:
                context.cancel_token.raise_if_cancelled(stage.name)
            inst.event("runtime/stage_start", stage=stage.name)
            start = time.perf_counter()
            value, degradation = self._run_stage(stage, value, context, inst)
            if degradation is not None:
                degradations.append(degradation)
            stage_timings.append(
                StageTiming(stage.name, time.perf_counter() - start)
            )
        total = time.perf_counter() - run_start

        if degradations:
            context.metadata["degraded_stages"] = degradations
        trace = inst.trace(
            stages=tuple(stage_timings),
            total_seconds=total,
            metadata=context.metadata,
        )
        if degradations:
            trace = dataclasses.replace(
                trace,
                degraded=True,
                degraded_stages=tuple(d["stage"] for d in degradations),
            )
        return RunOutcome(value=value, trace=trace, context=context)
