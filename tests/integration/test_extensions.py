"""The extension experiments (X1, X4, X5) at reduced scale."""

import pytest

from repro.experiments import burst_ablation, cdma_extension, fec_eval, mac_ablation
from repro.experiments.report import ReproductionReport


class TestFecEval:
    @pytest.fixture(scope="class")
    def result(self):
        return fec_eval.run(scale=0.5, seed=81, syndrome_limit=15)

    def test_tx5_trivially_correctable_with_interleaving(self, result):
        """The Section-6.2 claim, closed: 'trivial to correct using
        error coding'."""
        outcome = result.outcome("Tx5 attenuation", "4/5", interleaved=True)
        assert outcome.packets > 0
        assert outcome.recovery_fraction == 1.0

    def test_redundancy_monotone_on_tx5(self, result):
        raw = [
            result.outcome("Tx5 attenuation", rate, interleaved=False)
            for rate in ("8/9", "1/2")
        ]
        assert raw[1].recovery_fraction >= raw[0].recovery_fraction

    def test_ss_phone_partially_recoverable(self, result):
        weak = result.outcome("SS-phone handset", "8/9", interleaved=False)
        strong = result.outcome("SS-phone handset", "1/2", interleaved=True)
        assert strong.residual_bit_errors < weak.residual_bit_errors

    def test_adaptive_escalates_under_interference(self, result):
        tx5, ss = result.adaptive
        assert ss.mean_overhead > tx5.mean_overhead
        assert ss.rate_counts["1/2"] > ss.rate_counts["8/9"]


class TestFecEvalReportLines:
    """An empty X1 population is no data, never in band."""

    @staticmethod
    def _outcome(scenario, rate, packets, recovered):
        return fec_eval.RateOutcome(
            scenario=scenario, rate_name=rate, interleaved=True,
            packets=packets, packets_recovered=recovered,
            residual_bit_errors=0, overhead_fraction=0.25,
        )

    def test_empty_tx5_population_is_not_in_band(self, capsys):
        result = fec_eval.FecEvalResult(outcomes=[
            self._outcome("Tx5 attenuation", "4/5", 0, 0),
            self._outcome("SS-phone handset", "1/2", 10, 9),
        ])
        assert result.outcomes[0].recovery_fraction is None
        report = ReproductionReport()
        fec_eval._report_lines(report, result, scale=0.05)
        tx5, ss = report.lines
        assert (tx5.measured, tx5.in_band) == ("no data (n=0)", False)
        assert (ss.measured, ss.in_band) == ("90% recovered", True)
        fec_eval._render(result, scale=0.05)
        rows = capsys.readouterr().out.splitlines()
        assert "|       n/a |" in rows[2]
        assert "|     90.0% |" in rows[3]


class TestBurstAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return burst_ablation.run(scale=0.5, seed=91)

    def test_bursts_defeat_raw_codes(self, result):
        iid = result.outcome(1e-2, "1/2", "iid", False)
        burst = result.outcome(1e-2, "1/2", "burst", False)
        assert iid.recovery_fraction > burst.recovery_fraction + 0.3

    def test_interleaving_restores_burst_channel(self, result):
        raw = result.outcome(1e-2, "1/2", "burst", False)
        ilv = result.outcome(1e-2, "1/2", "burst", True)
        assert ilv.recovery_fraction > raw.recovery_fraction + 0.3

    def test_interleaving_noop_on_iid(self, result):
        raw = result.outcome(1e-2, "1/2", "iid", False)
        ilv = result.outcome(1e-2, "1/2", "iid", True)
        assert abs(raw.recovery_fraction - ilv.recovery_fraction) < 0.25


class TestCdmaExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return cdma_extension.run(scale=0.4, seed=95)

    def test_family_tradeoff_shape(self, result):
        assert result.tradeoff[(1, 9)] <= 2
        assert result.tradeoff[(2, 7)] >= 10

    def test_power_control_is_decisive(self, result):
        same = result.outcome("same code")
        pc = result.outcome("power control only")
        assert same.metrics.packet_loss_percent > 40.0
        assert pc.metrics.packet_loss_percent < 3.0

    def test_code_diversity_alone_insufficient_at_11_chips(self, result):
        cdma = result.outcome("cdma (11 chips)")
        assert cdma.metrics.packet_loss_percent > 30.0


class TestMacAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return mac_ablation.run(scale=0.4, seed=83)

    def test_blind_cd_catastrophic(self, result):
        assert result.outcome("csma_cd_blind").delivery_fraction < 0.3

    def test_csma_ca_recovers(self, result):
        ca = result.outcome("csma_ca")
        blind = result.outcome("csma_cd_blind")
        assert ca.delivery_fraction > blind.delivery_fraction + 0.5

    def test_wired_cd_is_the_ceiling(self, result):
        wired = result.outcome("csma_cd_wired")
        assert wired.delivery_fraction > 0.9
