"""Tests for the elitist GA engine on synthetic objectives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ga.engine import GAConfig, GeneticAlgorithm
from repro.ga.operators import OperatorConfig
from repro.model.pose import GENES


def _sphere(target):
    def fitness(genes):
        genes = np.atleast_2d(genes)
        return ((genes - target) ** 2).sum(axis=1)

    return fitness


class TestConfig:
    def test_elite_count(self):
        assert GAConfig(population_size=60, elite_fraction=0.1).elite_count == 6
        assert GAConfig(population_size=10, elite_fraction=0.01).elite_count == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GAConfig(population_size=2)
        with pytest.raises(ConfigurationError):
            GAConfig(elite_fraction=0.0)
        with pytest.raises(ConfigurationError):
            GAConfig(selection_pressure=3.0)
        with pytest.raises(ConfigurationError):
            GAConfig(patience=0)


class TestOptimisation:
    def test_improves_on_sphere(self, rng):
        target = np.full(GENES, 30.0)
        initial = rng.uniform(0, 60, (40, GENES))
        config = GAConfig(
            population_size=40,
            max_generations=40,
            patience=None,
            operators=OperatorConfig(
                crossover_rate=0.3, mutation_rate=0.3, angle_sigma=5.0
            ),
        )
        result = GeneticAlgorithm(config).run(initial, _sphere(target), rng=rng)
        initial_best = _sphere(target)(initial).min()
        assert result.best_fitness < initial_best * 0.5

    def test_best_never_worsens(self, rng):
        target = np.zeros(GENES)
        initial = rng.uniform(0, 100, (20, GENES))
        result = GeneticAlgorithm(GAConfig(population_size=20, max_generations=20)).run(
            initial, _sphere(target), rng=rng
        )
        curve = result.fitness_curve()
        assert (np.diff(curve) <= 1e-12).all()

    def test_history_and_evaluations(self, rng):
        initial = rng.uniform(0, 10, (10, GENES))
        config = GAConfig(population_size=10, max_generations=5, patience=None)
        result = GeneticAlgorithm(config).run(initial, _sphere(np.zeros(GENES)), rng=rng)
        assert result.generations == 6  # gen 0 + 5

    def test_full_reevaluation_counts(self, rng):
        initial = rng.uniform(0, 10, (10, GENES))
        config = GAConfig(population_size=10, max_generations=5, patience=None)
        result = GeneticAlgorithm(config).run(initial, _sphere(np.zeros(GENES)), rng=rng)
        assert result.total_evaluations == 10 * 6

    def test_target_fitness_stops_early(self, rng):
        initial = np.zeros((10, GENES))
        config = GAConfig(population_size=10, max_generations=50, target_fitness=1.0)
        result = GeneticAlgorithm(config).run(initial, _sphere(np.zeros(GENES)), rng=rng)
        assert result.generations == 1  # initial population already optimal

    def test_patience_stops(self, rng):
        initial = np.zeros((10, GENES))  # already optimal, cannot improve
        config = GAConfig(population_size=10, max_generations=100, patience=3)
        result = GeneticAlgorithm(config).run(initial, _sphere(np.zeros(GENES)), rng=rng)
        assert result.generations <= 6

    def test_population_resized(self, rng):
        initial = rng.uniform(0, 10, (3, GENES))  # smaller than configured
        config = GAConfig(population_size=12, max_generations=3)
        result = GeneticAlgorithm(config).run(initial, _sphere(np.zeros(GENES)), rng=rng)
        assert result.history[0].evaluations == 12

    def test_validity_rejection_counts(self, rng):
        initial = rng.uniform(0, 10, (10, GENES))

        def never_valid(genes):
            return np.zeros(np.atleast_2d(genes).shape[0], dtype=bool)

        config = GAConfig(population_size=10, max_generations=3, patience=None,
                          offspring_attempts=2)
        result = GeneticAlgorithm(config).run(
            initial, _sphere(np.zeros(GENES)), validity_fn=never_valid, rng=rng
        )
        assert result.rejected_offspring > 0

    def test_deterministic_given_rng(self):
        initial = np.random.default_rng(0).uniform(0, 10, (15, GENES))
        config = GAConfig(population_size=15, max_generations=10)
        r1 = GeneticAlgorithm(config).run(
            initial, _sphere(np.zeros(GENES)), rng=np.random.default_rng(5)
        )
        r2 = GeneticAlgorithm(config).run(
            initial, _sphere(np.zeros(GENES)), rng=np.random.default_rng(5)
        )
        assert r1.best_fitness == r2.best_fitness
        assert np.array_equal(r1.best_genes, r2.best_genes)

    def test_bad_population_shape(self, rng):
        with pytest.raises(ConfigurationError):
            GeneticAlgorithm().run(np.zeros((5, 7)), _sphere(np.zeros(GENES)), rng=rng)

    def test_empty_population(self, rng):
        with pytest.raises(ConfigurationError, match="empty"):
            GeneticAlgorithm().run(
                np.empty((0, GENES)), _sphere(np.zeros(GENES)), rng=rng
            )
