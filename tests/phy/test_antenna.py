"""Dual-antenna selection diversity."""

import numpy as np
import pytest

from repro.phy.antenna import AntennaDiversity


class TestSelection:
    def test_picks_stronger_branch(self, rng):
        diversity = AntennaDiversity(fading_sd=1.0)
        for _ in range(100):
            selection = diversity.select(20.0, rng)
            assert selection.level == max(selection.branch_levels)
            assert selection.antenna in (0, 1)

    def test_both_antennas_used(self, rng):
        diversity = AntennaDiversity()
        antennas = {diversity.select(20.0, rng).antenna for _ in range(200)}
        assert antennas == {0, 1}

    def test_selection_bias_is_positive(self, rng):
        """Max of two fades has positive mean: E[max] = sd/sqrt(pi)."""
        diversity = AntennaDiversity(fading_sd=0.55)
        levels = [diversity.select(20.0, rng).level for _ in range(20_000)]
        expected_bias = 0.55 / np.sqrt(np.pi)
        assert abs(np.mean(levels) - 20.0 - expected_bias) < 0.02

    def test_zero_fading_deterministic(self, rng):
        diversity = AntennaDiversity(fading_sd=0.0)
        selection = diversity.select(15.0, rng)
        assert selection.level == 15.0


def _reference_select(diversity, mean_level, rng):
    """The size-``branches`` draw plus ``argmax`` that ``select`` replaced."""
    levels = mean_level + rng.normal(0.0, diversity.fading_sd, size=diversity.branches)
    best = int(np.argmax(levels))
    return float(levels[best]), best, (float(levels[0]), float(levels[-1]))


class TestScalarDrawsEqualArrayDraw:
    @pytest.mark.parametrize("branches", [1, 2, 3])
    def test_equals_size_n_draw_and_argmax(self, branches):
        diversity = AntennaDiversity(fading_sd=0.55, branches=branches)
        scalar = np.random.default_rng(2024)
        reference = np.random.default_rng(2024)
        for i in range(5_000):
            mean_level = 3.0 + (i % 40)
            selection = diversity.select(mean_level, scalar)
            assert (
                selection.level,
                selection.antenna,
                selection.branch_levels,
            ) == _reference_select(diversity, mean_level, reference)
        assert scalar.random() == reference.random()

    def test_tie_goes_to_the_first_branch(self, rng):
        diversity = AntennaDiversity(fading_sd=0.0)
        selection = diversity.select(12.5, rng)
        assert _reference_select(diversity, 12.5, rng)[1] == 0
        assert selection.antenna == 0
        assert selection.branch_levels == (12.5, 12.5)


class TestBulkSelection:
    def test_bulk_matches_distribution(self, rng):
        diversity = AntennaDiversity(fading_sd=0.55)
        levels, antennas = diversity.select_bulk(20.0, 20_000, rng)
        assert levels.shape == (20_000,)
        assert set(np.unique(antennas)) <= {0, 1}
        expected_bias = 0.55 / np.sqrt(np.pi)
        assert abs(levels.mean() - 20.0 - expected_bias) < 0.03

    def test_bulk_levels_are_branch_maxima(self, rng):
        diversity = AntennaDiversity(fading_sd=2.0)
        levels, _ = diversity.select_bulk(10.0, 5_000, rng)
        # Selection can only raise the median relative to one branch.
        assert np.median(levels) > 10.0
