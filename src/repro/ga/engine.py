"""Elitist genetic algorithm (paper Section 3, "evolution strategy").

"For the evolution strategy, the elitism is used.  Meaning, in each
generation, only the fittest chromosomes can be left and they have a
higher probability to be picked for generating the next generation."

The engine is generic over the fitness callable (lower is better) and
an optional validity callable used to reject offspring that leave the
silhouette ("the generated chromosomes not in the silhouette are also
removed from the population").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convergence import GenerationStats, SearchResult
from .operators import OperatorConfig, grouped_crossover, mutate, swap_groups
from ..errors import ConfigurationError
from ..model.pose import GENES
from ..runtime import Instrumentation

FitnessFn = Callable[[np.ndarray], np.ndarray]
ValidityFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, slots=True)
class GAConfig:
    """Engine parameters.

    ``elite_fraction`` of the population survives unchanged each
    generation; parents are drawn rank-proportionally so fitter
    chromosomes "have a higher probability to be picked".
    """

    population_size: int = 60
    elite_fraction: float = 0.1
    max_generations: int = 50
    patience: int | None = 15  # stop after this many stale generations
    target_fitness: float | None = None
    offspring_attempts: int = 10  # retries to produce a valid child
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    # "ranking" (default): linear rank-proportional parent choice —
    # "the fittest ... have a higher probability to be picked".
    # "tournament": pick the best of `tournament_size` uniform draws.
    selection: str = "ranking"
    selection_pressure: float = 1.7  # linear-ranking pressure in [1, 2]
    tournament_size: int = 3

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ConfigurationError(
                f"population_size must be >= 4, got {self.population_size}"
            )
        if not 0.0 < self.elite_fraction < 1.0:
            raise ConfigurationError(
                f"elite_fraction must be in (0, 1), got {self.elite_fraction}"
            )
        if self.max_generations < 1:
            raise ConfigurationError(
                f"max_generations must be >= 1, got {self.max_generations}"
            )
        if self.patience is not None and self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        if not 1.0 <= self.selection_pressure <= 2.0:
            raise ConfigurationError(
                f"selection_pressure must be in [1, 2], got {self.selection_pressure}"
            )
        if self.offspring_attempts < 1:
            raise ConfigurationError(
                f"offspring_attempts must be >= 1, got {self.offspring_attempts}"
            )
        if self.selection not in ("ranking", "tournament"):
            raise ConfigurationError(
                f"selection must be 'ranking' or 'tournament', got {self.selection!r}"
            )
        if self.tournament_size < 2:
            raise ConfigurationError(
                f"tournament_size must be >= 2, got {self.tournament_size}"
            )

    @property
    def elite_count(self) -> int:
        """Number of chromosomes copied unchanged into each generation."""
        return max(1, int(round(self.elite_fraction * self.population_size)))


class GeneticAlgorithm:
    """Run the paper's elitist GA over a chromosome population.

    When an :class:`~repro.runtime.Instrumentation` is given, every run
    accumulates the ``ga.runs``, ``ga.generations``, ``ga.evaluations``
    and ``ga.rejected_offspring`` counters and emits one ``ga/run``
    event with the convergence summary.
    """

    def __init__(
        self,
        config: GAConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.config = config or GAConfig()
        self.instrumentation = instrumentation or Instrumentation()

    def run(
        self,
        initial_population: np.ndarray,
        fitness_fn: FitnessFn,
        validity_fn: ValidityFn | None = None,
        rng: np.random.Generator | None = None,
    ) -> SearchResult:
        """Evolve ``initial_population`` until a stopping criterion.

        Parameters
        ----------
        initial_population:
            Array ``(P, 10)``; ``P`` may differ from the configured
            population size (it is resized by truncation/sampling).
        fitness_fn:
            Batch fitness, lower is better.
        validity_fn:
            Optional batch predicate; offspring failing it are
            regenerated (up to ``offspring_attempts``), then replaced
            by their better parent.
        """
        cfg = self.config
        rng = rng if rng is not None else np.random.default_rng(0)

        population = np.array(initial_population, dtype=np.float64, copy=True)
        if population.ndim != 2 or population.shape[1] != GENES:
            raise ConfigurationError(
                f"initial population must be (P, {GENES}), got {population.shape}"
            )
        if population.shape[0] == 0:
            raise ConfigurationError("initial population is empty")
        if population.shape[0] > cfg.population_size:
            population = population[: cfg.population_size]
        elif population.shape[0] < cfg.population_size:
            extra_idx = rng.integers(
                0, population.shape[0], cfg.population_size - population.shape[0]
            )
            population = np.vstack([population, population[extra_idx]])

        fitness = np.asarray(fitness_fn(population), dtype=np.float64)
        evaluations = population.shape[0]
        rejected = 0

        result = SearchResult(
            best_genes=population[int(fitness.argmin())].copy(),
            best_fitness=float(fitness.min()),
        )
        result.history.append(
            GenerationStats(0, float(fitness.min()), float(fitness.mean()), evaluations)
        )

        stale = 0
        ranks_weights = self._ranking_weights(cfg.population_size)
        # Normalised cdf, built once per run — `rng.choice` recomputes
        # exactly this on every draw.
        ranks_cdf = ranks_weights.cumsum()
        ranks_cdf /= ranks_cdf[-1]

        for generation in range(1, cfg.max_generations + 1):
            if cfg.target_fitness is not None and result.best_fitness <= cfg.target_fitness:
                break
            if cfg.patience is not None and stale >= cfg.patience:
                break

            order = np.argsort(fitness)
            population = population[order]
            fitness = fitness[order]

            next_population = [population[i].copy() for i in range(cfg.elite_count)]
            while len(next_population) < cfg.population_size:
                pa, pb = self._pick_parents(rng, ranks_weights, ranks_cdf)
                child = self._make_child(
                    population[pa], population[pb], validity_fn, rng
                )
                if child is None:
                    rejected += 1
                    # Fall back to the better parent, kept as-is.
                    child = population[min(pa, pb)].copy()
                next_population.append(child)

            # Every row is scored; a memoising fitness (see
            # SilhouetteFitness) answers elites and parent copies.
            population = np.vstack(next_population)
            fitness = np.asarray(fitness_fn(population), dtype=np.float64)
            evaluations += population.shape[0]

            gen_best = float(fitness.min())
            if gen_best < result.best_fitness - 1e-12:
                result.best_fitness = gen_best
                result.best_genes = population[int(fitness.argmin())].copy()
                stale = 0
            else:
                stale += 1
            result.history.append(
                GenerationStats(
                    generation, result.best_fitness, float(fitness.mean()), evaluations
                )
            )

        result.total_evaluations = evaluations
        result.rejected_offspring = rejected

        instrumentation = self.instrumentation
        instrumentation.count("ga.runs", 1)
        instrumentation.count("ga.generations", len(result.history) - 1)
        instrumentation.count("ga.evaluations", evaluations)
        instrumentation.count("ga.rejected_offspring", rejected)
        instrumentation.event(
            "ga/run",
            generations=len(result.history) - 1,
            generation_of_best=result.generation_of_best,
            best_fitness=result.best_fitness,
            evaluations=evaluations,
            rejected_offspring=rejected,
        )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ranking_weights(self, size: int) -> np.ndarray:
        """Linear ranking selection probabilities (best rank first)."""
        pressure = self.config.selection_pressure
        ranks = np.arange(size, dtype=np.float64)
        weights = pressure - (2.0 * pressure - 2.0) * ranks / max(size - 1, 1)
        return weights / weights.sum()

    def _pick_parents(
        self,
        rng: np.random.Generator,
        weights: np.ndarray,
        cdf: np.ndarray,
    ) -> tuple[int, int]:
        if self.config.selection == "tournament":
            # Population is sorted by fitness, so the tournament winner
            # is simply the smallest sampled index.
            size = self.config.tournament_size
            pa = int(rng.integers(0, weights.size, size).min())
            pb = int(rng.integers(0, weights.size, size).min())
            return pa, pb
        # `Generator.choice(n, p=w)` normalises w into a cdf and searches
        # it with one uniform draw; doing the same against the prebuilt
        # cdf consumes the identical stream and returns the identical
        # index (asserted in tests/test_perf_parity.py) without
        # rebuilding the cdf on every call.
        pa = int(cdf.searchsorted(rng.random(), side="right"))
        pb = int(cdf.searchsorted(rng.random(), side="right"))
        return pa, pb

    def _make_child(
        self,
        parent_a: np.ndarray,
        parent_b: np.ndarray,
        validity_fn: ValidityFn | None,
        rng: np.random.Generator,
    ) -> np.ndarray | None:
        """Breed one child of the pair, or ``None`` if every attempt fails.

        An attempt is a grouped crossover, a coin for which of the two
        children to keep, and a mutation; up to ``offspring_attempts``
        are made until one passes ``validity_fn``.  The result and the
        generator's final state are exactly those of making the
        attempts one at a time, because validity never changes which
        numbers an attempt draws, only when the loop stops.  Every
        attempt draws G crossover uniforms, one coin and G mutation
        uniforms, in that order (G gene groups), and Gaussians only
        after a mutation uniform below ``mutation_rate``.

        The first attempt runs on its own, since most children pass it.
        After it fails, the remaining K attempts are read ahead from one
        ``(K, 2G + 1)`` block of uniforms, which consumes exactly what K
        scalar rounds would.  The attempts before the first one whose
        block row fires a mutation are tested in one ``validity_fn``
        call, and the generator is restored and replayed to just after
        the first that passes.  If none passes, it is replayed to the
        start of the firing attempt's mutation draws, that attempt runs
        its scalar :func:`mutate` and is tested alone, and the attempts
        left repeat the scheme.  The replay restores the saved state
        rather than calling ``advance``, which would drop a PCG64's
        buffered 32-bit half that a later ``rng.integers`` reads.
        """
        ops = self.config.operators
        child_a, child_b = grouped_crossover(
            parent_a, parent_b, ops.crossover_rate, rng, groups=ops.gene_groups
        )
        child = mutate(child_a if rng.random() < 0.5 else child_b, ops, rng)
        if validity_fn is None or validity_fn(child[None, :])[0]:
            return child

        groups = len(ops.gene_groups)
        width = 2 * groups + 1  # uniforms of an attempt whose mutation does not fire
        left = self.config.offspring_attempts - 1
        while left:
            start = rng.bit_generator.state
            draws = rng.random((left, width))
            fires = (draws[:, groups + 1 :] < ops.mutation_rate).any(axis=1)
            clean = int(fires.argmax()) if fires.any() else left
            draws = draws[: clean + 1]
            swapped_a, swapped_b = swap_groups(
                parent_a, parent_b, draws[:, :groups] < ops.crossover_rate,
                ops.gene_groups,
            )
            children = np.where(draws[:, groups, None] < 0.5, swapped_a, swapped_b)
            if clean:
                valid = np.asarray(validity_fn(children[:clean]), dtype=bool)
                if valid.any():
                    passed = int(valid.argmax())
                    _replay(rng, start, (passed + 1) * width)
                    return children[passed]
            if clean == left:
                return None
            _replay(rng, start, clean * width + groups + 1)
            child = mutate(children[clean], ops, rng)
            if validity_fn(child[None, :])[0]:
                return child
            left -= clean + 1
        return None


def _replay(rng: np.random.Generator, state: dict, uniforms: int) -> None:
    """Put ``rng`` back to ``state`` and then ``uniforms`` draws on."""
    rng.bit_generator.state = state
    rng.random(uniforms)
