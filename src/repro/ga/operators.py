"""Genetic operators of the paper: grouped crossover and mutation.

"Multiple crossover is used with genes in the chromosome grouped as
follows: (x0, y0), (ρ0), (ρ1, ρ4), (ρ2, ρ5), (ρ3, ρ6, ρ7). ... We can
set the crossover rate to 0.2.  After a crossover, mutation can be
applied to each group with a probability 0.01."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..model.chromosome import GENE_GROUPS
from ..model.geometry import wrap_angle
from ..model.pose import GENES


def singleton_groups() -> tuple[tuple[int, ...], ...]:
    """Every gene in its own group (the no-grouping ablation)."""
    return tuple((gene,) for gene in range(GENES))


@dataclass(frozen=True, slots=True)
class OperatorConfig:
    """Rates and mutation scales of the genetic operators.

    ``gene_groups`` defaults to the paper's five kinematic groups; the
    ablation bench swaps in :func:`singleton_groups` to measure what
    the grouping buys.
    """

    crossover_rate: float = 0.2  # per-group swap probability (paper)
    mutation_rate: float = 0.01  # per-group mutation probability (paper)
    center_sigma: float = 2.0  # pixels, for (x0, y0) mutations
    angle_sigma: float = 8.0  # degrees, for angle mutations
    gene_groups: tuple[tuple[int, ...], ...] = GENE_GROUPS

    def __post_init__(self) -> None:
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError(
                f"crossover_rate must be in [0, 1], got {self.crossover_rate}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError(
                f"mutation_rate must be in [0, 1], got {self.mutation_rate}"
            )
        if self.center_sigma < 0 or self.angle_sigma < 0:
            raise ConfigurationError("mutation sigmas must be >= 0")
        flat = sorted(g for group in self.gene_groups for g in group)
        if flat != list(range(GENES)):
            raise ConfigurationError(
                "gene_groups must partition all 10 genes exactly once"
            )


def grouped_crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    groups: tuple[tuple[int, ...], ...] = GENE_GROUPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Swap whole gene groups between two parents.

    Each group is exchanged independently with probability ``rate``,
    one uniform draw per group in group order.  Returns two children
    (copies).
    """
    parent_a = np.asarray(parent_a, dtype=np.float64)
    parent_b = np.asarray(parent_b, dtype=np.float64)
    if parent_a.shape != (GENES,) or parent_b.shape != (GENES,):
        raise ConfigurationError("parents must be 10-gene chromosomes")
    return swap_groups(parent_a, parent_b, rng.random(len(groups)) < rate, groups)


def swap_groups(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    swap: np.ndarray,
    groups: tuple[tuple[int, ...], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange the gene groups flagged in ``swap`` between two parents.

    ``swap`` holds one flag per group: ``(G,)`` for one crossover, or
    ``(K, G)`` for K crossovers of the same pair, which give two
    ``(K, 10)`` child arrays.  Draws nothing; returns new arrays.
    """
    genes = swap[..., _gene_to_group(groups)]
    return np.where(genes, parent_b, parent_a), np.where(genes, parent_a, parent_b)


@lru_cache(maxsize=8)
def _gene_to_group(groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Index of each gene's group, built once per grouping."""
    index = np.empty(GENES, dtype=np.intp)
    for group_index, group in enumerate(groups):
        index[list(group)] = group_index
    index.flags.writeable = False
    return index


def mutate(
    genes: np.ndarray,
    config: OperatorConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturb whole gene groups with probability ``mutation_rate`` each.

    A mutated centre group gets Gaussian pixel noise; a mutated angle
    group gets Gaussian angular noise (wrapped to [0, 360)).  Returns a
    copy.
    """
    out = np.array(genes, dtype=np.float64, copy=True)
    if out.shape != (GENES,):
        raise ConfigurationError("mutate expects a 10-gene chromosome")
    for group in config.gene_groups:
        if rng.random() < config.mutation_rate:
            for gene in group:
                if gene < 2:
                    out[gene] += rng.normal(0.0, config.center_sigma)
                else:
                    out[gene] = wrap_angle(out[gene] + rng.normal(0.0, config.angle_sigma))
    return out
