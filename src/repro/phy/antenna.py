"""Dual-antenna selection diversity.

"The receiver selects between two perpendicular antennas and multiple
incoming signal paths to combat multipath interference" (paper, Section
2).  We model per-packet small-scale fading as an independent Gaussian
perturbation per antenna; the receiver picks the stronger branch and
reports which antenna it chose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AntennaSelection:
    """Outcome of diversity selection for one packet."""

    level: float
    antenna: int
    branch_levels: tuple[float, float]


@dataclass
class AntennaDiversity:
    """Selection diversity with Gaussian small-scale fading.

    ``branches=2`` is the WaveLAN hardware ("selects between two
    perpendicular antennas"); ``branches=1`` disables diversity and is
    used by the X8 ablation.
    """

    fading_sd: float = 0.55
    branches: int = 2

    def __post_init__(self) -> None:
        if self.branches < 1:
            raise ValueError(f"need at least one antenna, got {self.branches}")

    def select(self, mean_level: float, rng: np.random.Generator) -> AntennaSelection:
        """Fade every branch, return the strongest one.

        Selection of the max of two branches gives the observed per-trial
        level jitter (σ ≈ 0.5-0.9 in the paper's tables) and a small
        positive bias relative to the single-branch mean.
        """
        # One scalar normal per branch, in branch order: the draws of a
        # size-``branches`` array.  A tie goes to the first branch.
        fading_sd = self.fading_sd
        first = level = best_level = mean_level + rng.normal(0.0, fading_sd)
        best = 0
        for branch in range(1, self.branches):
            level = mean_level + rng.normal(0.0, fading_sd)
            if level > best_level:
                best, best_level = branch, level
        return AntennaSelection(float(best_level), best, (float(first), float(level)))

    def select_bulk(
        self, mean_level: float, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`select` for long clean-channel trials.

        Returns (levels, antenna indices) arrays of length ``count``.
        """
        fades = rng.normal(0.0, self.fading_sd, size=(count, self.branches))
        branches = mean_level + fades
        antennas = np.argmax(branches, axis=1)
        levels = branches[np.arange(count), antennas]
        return levels, antennas.astype(np.uint8)
