"""Foreground cleanup (paper Section 2, Steps 3–4).

Step 3 removes noise pixels by 8-neighbour counting, then deletes
small connected spots ("since we are looking for human objects,
smaller spots can be removed from the scene").  Step 4 fills small
holes with the 4-neighbour rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..imaging.components import remove_small_components
from ..imaging.neighbors import fill_single_pixel_holes, remove_noise_pixels


@dataclass(frozen=True, slots=True)
class CleanupConfig:
    """Parameters of the paper's Steps 3 and 4."""

    # Keep a pixel when strictly more than this many of its 8 neighbours
    # are foreground.  3 removes speckle and 2-pixel clumps but keeps
    # 3-pixel-wide diagonal limbs (a child's forearm at this resolution)
    # intact; 4 visibly erodes them.
    min_neighbors: int = 3
    min_spot_area: int = 30  # connected regions below this are deleted
    hole_fill_iterations: int = 2  # passes of the 4-neighbour fill rule

    def __post_init__(self) -> None:
        if not 0 <= self.min_neighbors <= 8:
            raise ConfigurationError(
                f"min_neighbors must be in [0, 8], got {self.min_neighbors}"
            )
        if self.min_spot_area < 0:
            raise ConfigurationError(
                f"min_spot_area must be >= 0, got {self.min_spot_area}"
            )
        if self.hole_fill_iterations < 0:
            raise ConfigurationError(
                f"hole_fill_iterations must be >= 0, got {self.hole_fill_iterations}"
            )


@dataclass(frozen=True, slots=True)
class CleanupStages:
    """The mask after each cleanup stage (mirrors Fig. 2 b–d)."""

    after_noise_removal: np.ndarray
    after_spot_removal: np.ndarray
    after_hole_fill: np.ndarray


def step_noise_removal(mask: np.ndarray, config: CleanupConfig) -> np.ndarray:
    """Step 3a: the 8-neighbour noise rule."""
    return remove_noise_pixels(mask, min_neighbors=config.min_neighbors)


def step_spot_removal(mask: np.ndarray, config: CleanupConfig) -> np.ndarray:
    """Step 3b: delete small connected spots."""
    return remove_small_components(mask, min_area=config.min_spot_area)


def step_hole_fill(mask: np.ndarray, config: CleanupConfig) -> np.ndarray:
    """Step 4: the 4-neighbour fill."""
    return fill_single_pixel_holes(mask, iterations=config.hole_fill_iterations)


def clean_foreground(
    mask: np.ndarray,
    config: CleanupConfig | None = None,
) -> CleanupStages:
    """Apply Steps 3–4 to a raw foreground mask, keeping every stage."""
    config = config or CleanupConfig()

    after_noise = step_noise_removal(mask, config)
    after_spots = step_spot_removal(after_noise, config)
    after_holes = step_hole_fill(after_spots, config)
    return CleanupStages(
        after_noise_removal=after_noise,
        after_spot_removal=after_spots,
        after_hole_fill=after_holes,
    )
