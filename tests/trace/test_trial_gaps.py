"""Trial-runner paths not covered elsewhere."""

from repro.phy.modem import ModemConfig
from repro.trace.trial import TrialConfig, run_fast_trial


class TestQualityThresholdPath:
    def test_vectorized_quality_filtering(self):
        """An absurd quality threshold filters everything (footnote 1's
        unused hardware feature, exercised)."""
        output = run_fast_trial(
            TrialConfig(
                name="qf",
                packets=500,
                mean_level=29.5,
                seed=3,
                modem_config=ModemConfig(quality_threshold=16),
            )
        )
        assert output.trace.packets_received == 0
        assert output.dispositions.quality_filtered > 490

    def test_moderate_quality_threshold_partial(self):
        """Threshold 15 drops the occasional quality-14 reading."""
        output = run_fast_trial(
            TrialConfig(
                name="qf",
                packets=2_000,
                mean_level=29.5,
                seed=3,
                modem_config=ModemConfig(quality_threshold=15),
            )
        )
        d = output.dispositions
        assert d.quality_filtered > 30  # the ~6% baseline quality dips
        assert d.delivered > 1_500


class TestAntennaBranchConfig:
    def test_single_branch_higher_variance(self):
        def level_spread(branches: int) -> float:
            output = run_fast_trial(
                TrialConfig(
                    name="ant",
                    packets=3_000,
                    mean_level=20.0,
                    seed=9,
                    antenna_branches=branches,
                )
            )
            return float(output.trace.levels.std())

        assert level_spread(1) > level_spread(4)


class TestMinimumPacketCounts:
    def test_tiny_trial_works(self):
        output = run_fast_trial(
            TrialConfig(name="tiny", packets=1, mean_level=29.5, seed=1)
        )
        assert output.trace.packets_sent == 1
