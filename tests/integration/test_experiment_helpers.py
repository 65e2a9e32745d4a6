"""Unit tests of the experiment modules' result helpers."""

import pytest

from repro.analysis.metrics import TrialMetrics
from repro.analysis.signalstats import MetricSummary, SignalStats
from repro.experiments import multiroom
from repro.experiments.diversity_ablation import DiversityPoint, DiversityResult
from repro.experiments.error_vs_level import LevelBin
from repro.experiments.report import ReproductionReport
from repro.experiments.signal_vs_distance import DistancePoint, PathLossResult
from repro.experiments.throughput import OFFERED_RATE_BPS, ThroughputPoint, ThroughputResult
from repro.experiments.tcp_over_wavelan import TransferOutcome


class TestLevelBin:
    def test_fractions(self):
        bin_ = LevelBin(level=7, sent=100, received=90, damaged=9)
        assert bin_.loss_fraction == pytest.approx(0.10)
        assert bin_.damage_fraction == pytest.approx(0.10)

    def test_empty_bin(self):
        bin_ = LevelBin(level=7, sent=0, received=0, damaged=0)
        assert bin_.loss_fraction == 0.0
        assert bin_.damage_fraction == 0.0


class TestMultiroomReportLines:
    def test_tx5_damage_counts_per_1440_packets_sent(self):
        """5 damaged of 400 sent reads 18.0 per 1,440 at any scale."""
        tx5 = TrialMetrics(
            name="Tx5", packets_sent=400, packets_received=398,
            packets_truncated=0, body_bits_received=398 * 8192,
            wrapper_damaged=0, body_damaged_packets=5, body_bits_damaged=12,
            worst_body_bits=4, outsiders_received=0,
        )
        level = MetricSummary(minimum=7, mean=9.5, sd=1.0, maximum=12, count=398)
        result = multiroom.MultiroomResult(
            metrics_rows=[tx5],
            signal_rows=[SignalStats("Tx5", 398, level, None, None)],
        )
        for scale in (0.05, 1.0):
            report = ReproductionReport()
            multiroom._report_lines(report, result, scale)
            line = report.lines[1]
            assert line.quantity == "Tx5 damaged packets / 1440"
            assert line.measured == "18.0 (5 of 400 sent)"
            assert line.in_band


class TestPathLossHelpers:
    def _result(self):
        result = PathLossResult()
        for d, mean in [(2, 30.0), (4, 28.0), (6, 20.0), (8, 27.0), (10, 26.0)]:
            result.points.append(DistancePoint(d, 100, int(mean) - 1, mean, int(mean) + 1))
        return result

    def test_dip_depth_detects_notch(self):
        result = self._result()
        # Neighbours within the 6 ft window: d = 2, 4, 8, 10.
        neighbour_mean = (30.0 + 28.0 + 27.0 + 26.0) / 4
        assert result.dip_depth(6.0) == pytest.approx(neighbour_mean - 20.0)

    def test_dip_depth_no_points(self):
        assert PathLossResult().dip_depth(6.0) == 0.0

    def test_mean_series(self):
        series = self._result().mean_series()
        assert series[0] == (2, 30.0)
        assert len(series) == 5


class TestThroughputHelpers:
    def _point(self, undamaged=90, recovered=5):
        return ThroughputPoint(
            level=7.0,
            packets_sent=100,
            undamaged=undamaged,
            body_damaged=8,
            truncated=1,
            lost=1,
            fec_recovered=recovered,
        )

    def test_raw_goodput(self):
        point = self._point()
        assert point.raw_goodput_bps == pytest.approx(OFFERED_RATE_BPS * 0.9)

    def test_fec_goodput_includes_overhead(self):
        point = self._point()
        fec = point.fec_goodput_bps(0.25)
        assert fec == pytest.approx(OFFERED_RATE_BPS * 0.95 / 1.25)

    def test_crossover_level(self):
        result = ThroughputResult(fec_overhead=0.25)
        # Strong link: raw wins; weak link: fec wins.
        result.points.append(
            ThroughputPoint(29.5, 100, 100, 0, 0, 0, 0)
        )
        result.points.append(
            ThroughputPoint(5.0, 100, 40, 30, 10, 20, 28)
        )
        assert result.crossover_level() == 5.0


class TestDiversityHelpers:
    def test_improvement_ratio(self):
        result = DiversityResult()
        result.points.append(DiversityPoint(7.0, 1, 100, 10, 10))
        result.points.append(DiversityPoint(7.0, 2, 100, 5, 5))
        assert result.improvement(7.0) == pytest.approx(2.0)

    def test_improvement_handles_zero(self):
        result = DiversityResult()
        result.points.append(DiversityPoint(7.0, 1, 100, 2, 0))
        result.points.append(DiversityPoint(7.0, 2, 100, 0, 0))
        assert result.improvement(7.0) == float("inf")


class TestTransferOutcome:
    def test_mbps(self):
        outcome = TransferOutcome(
            scenario="s", variant="plain", finished=True,
            throughput_bps=1_500_000.0, segments_delivered=100,
            tcp_retransmissions=0, tcp_timeouts=0, link_retransmissions=0,
        )
        assert outcome.throughput_mbps == pytest.approx(1.5)
