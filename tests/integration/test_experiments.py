"""The experiment modules reproduce the paper's qualitative findings.

These run at reduced scale for speed; the benchmarks run them at (or
near) the paper's trial lengths.  Each assertion encodes a *shape*
claim from the paper — orderings, rough factors, crossovers.
"""

import pytest

from repro.experiments import (
    baseline,
    body,
    competing,
    error_vs_level,
    multiroom,
    phones_narrowband,
    phones_spread,
    signal_vs_distance,
)


class TestBaseline:
    """Table 2: near-perfect link in the office."""

    @pytest.fixture(scope="class")
    def result(self):
        return baseline.run(scale=0.02, seed=1996)

    def test_loss_well_under_one_per_thousand(self, result):
        # Paper: .01-.07%; at this reduced scale each trial is only
        # ~1-2k packets, so allow small-sample noise on the estimate.
        assert result.worst_loss_percent < 0.3

    def test_essentially_no_bit_errors(self, result):
        assert result.aggregate_ber < 1e-7

    def test_all_nine_trials_present(self, result):
        assert len(result.rows) == 9


class TestSignalVsDistance:
    """Figure 1: smooth dropoff with room-specific dips."""

    @pytest.fixture(scope="class")
    def result(self):
        return signal_vs_distance.run(scale=0.4, seed=51)

    def test_overall_decay(self, result):
        points = {p.distance_ft: p.level_mean for p in result.points}
        assert points[0] > points[20] > points[50] > points[80]

    def test_multipath_dips_present(self, result):
        assert result.dip_depth(6.0) > 2.0
        assert result.dip_depth(30.0) > 2.0

    def test_far_side_reaches_error_region(self, result):
        points = {p.distance_ft: p.level_mean for p in result.points}
        assert points[80] < 10.0


class TestErrorVsLevel:
    """Table 3 / Figure 2: the error region below level 8."""

    @pytest.fixture(scope="class")
    def result(self):
        return error_vs_level.run(scale=0.4, seed=53)

    def test_damaged_packets_live_below_8(self, result):
        damaged = result.group("Body damaged")
        undamaged = result.group("Undamaged")
        assert damaged.level.mean < 8.5
        assert undamaged.level.mean > damaged.level.mean + 2.0

    def test_truncated_quality_depressed(self, result):
        truncated = result.group("Truncated")
        assert truncated.quality.mean < 12.5

    def test_error_region_boundary(self, result):
        for b in result.level_bins:
            if b.level >= 10:
                assert b.loss_fraction < 0.01
                assert b.damage_fraction < 0.03
            if b.level <= 5:
                assert b.loss_fraction + b.damage_fraction > 0.2

    def test_outsiders_distinguished_by_quality(self, result):
        outsiders = result.group("Damaged outsiders")
        undamaged = result.group("Undamaged")
        assert outsiders.quality.mean < undamaged.quality.mean - 1.0


class TestMultiroom:
    """Tables 5-7: obstacles cost levels; errors appear at Tx5."""

    @pytest.fixture(scope="class")
    def result(self):
        return multiroom.run(scale=0.5, seed=65)

    def test_level_ordering_matches_paper(self, result):
        levels = {name: result.level_mean(name) for name in ("Tx1", "Tx2", "Tx4", "Tx5")}
        assert levels["Tx1"] > levels["Tx2"] > levels["Tx4"] > levels["Tx5"]

    def test_level_magnitudes(self, result):
        for name, paper in multiroom.PAPER_LEVEL_MEANS.items():
            assert result.level_mean(name) == pytest.approx(paper, abs=1.5)

    def test_tx1_tx2_clean(self, result):
        for name in ("Tx1", "Tx2"):
            metrics = result.metrics(name)
            assert metrics.body_bits_damaged == 0
            assert metrics.packet_loss_percent < 0.2

    def test_tx5_first_corrupted_bodies(self, result):
        metrics = result.metrics("Tx5")
        assert metrics.body_damaged_packets > 0
        assert metrics.body_bits_damaged > 0
        # Trivially correctable: a handful of bits per packet.
        assert metrics.worst_body_bits < 100


class TestBody:
    """Tables 8-9: a person costs ~6 levels and induces damage."""

    @pytest.fixture(scope="class")
    def result(self):
        return body.run(scale=1.0, seed=65)

    def test_body_cost(self, result):
        assert result.body_cost_levels == pytest.approx(5.8, abs=1.2)

    def test_no_body_control_clean(self, result):
        metrics = result.metrics("No body")
        assert metrics.body_bits_damaged == 0
        assert metrics.packets_truncated == 0

    def test_body_induces_all_three_damage_kinds(self, result):
        metrics = result.metrics("Body")
        assert metrics.packets_lost > 0
        assert metrics.packets_truncated > 0
        assert metrics.body_damaged_packets > 50


class TestNarrowbandPhones:
    """Table 10: silence rises, nothing breaks."""

    @pytest.fixture(scope="class")
    def result(self):
        return phones_narrowband.run(scale=0.4, seed=710)

    def test_zero_damage_in_every_configuration(self, result):
        assert result.total_damaged_test_packets == 0

    def test_silence_ordering_fingerprint(self, result):
        s = {t: result.silence_mean(t) for t in phones_narrowband.TRIALS}
        assert (
            s["Bases nearby"]
            > s["Cluster"]
            > s["Handsets nearby"]
            > s["Handsets nearby talking"]
            > s["Phones off"]
        )

    def test_loss_stays_at_background(self, result):
        for metrics in result.metrics_rows:
            assert metrics.packet_loss_percent < 0.5


class TestSpreadSpectrumPhones:
    """Tables 11-13: the knife edge."""

    @pytest.fixture(scope="class")
    def result(self):
        return phones_spread.run(scale=0.5, seed=73)

    def test_base_near_half_loss_full_truncation(self, result):
        for trial in ("RS base", "RS cluster", "AT&T cluster"):
            summary = result.summary(trial)
            assert 35.0 < summary.loss_percent < 70.0
            assert summary.truncated_percent > 80.0

    def test_remote_cluster_harmless_but_noisy(self, result):
        summary = result.summary("RS remote cluster")
        assert summary.loss_percent < 1.0
        assert summary.truncated_percent == 0.0
        assert summary.body_percent == 0.0
        assert result.silence_mean("RS remote cluster") > 10.0

    def test_handset_intermediate_regime(self, result):
        summary = result.summary("AT&T handset")
        assert summary.loss_percent < 5.0
        assert summary.truncated_percent < 10.0
        assert 40.0 < summary.body_percent < 75.0
        assert 0.02 < summary.worst_body_fraction < 0.08

    def test_phones_off_control_clean(self, result):
        summary = result.summary("Phones off")
        assert summary.body_percent == 0.0


class TestCompetingWaveLan:
    """Table 14: the receive threshold masks the competition."""

    @pytest.fixture(scope="class")
    def result(self):
        return competing.run(scale=0.1, seed=74)

    def test_masked_competition_no_errors(self, result):
        masked = result.metrics("With interference")
        assert masked.body_bits_damaged == 0
        assert masked.packet_loss_percent < 0.2

    def test_silence_rises_level_unchanged(self, result):
        silence_delta = result.silence_mean("With interference") - result.silence_mean(
            "Without interference"
        )
        level_delta = abs(
            result.level_mean("With interference")
            - result.level_mean("Without interference")
        )
        assert silence_delta > 8.0  # paper: 3.35 -> 13.62
        assert level_delta < 1.0

    def test_unmasked_link_unusable(self, result):
        unusable = result.unusable_metrics
        assert unusable.packet_loss_percent > 50.0


def _verdicts(classified) -> list[tuple]:
    return [
        (
            packet.packet_class,
            packet.sequence,
            packet.wrapper_damaged,
            packet.body_bits_damaged,
            packet.truncated_bytes_missing,
            repr(packet.syndrome),
            bytes(packet.record.data),
        )
        for packet in classified.packets
    ]


class TestJobsInvariance:
    """``jobs=N`` must be a pure wall-clock knob: fanning the
    interference experiments over a process pool returns results
    byte-identical to the serial run (every random stream derives from
    per-trial seeds fixed in the parent)."""

    def test_phones_spread(self):
        serial = phones_spread.run(scale=0.3, seed=73, jobs=1)
        pooled = phones_spread.run(scale=0.3, seed=73, jobs=2)
        assert repr(serial.summaries) == repr(pooled.summaries)
        assert repr(serial.metrics_rows) == repr(pooled.metrics_rows)
        assert repr(serial.signal_rows) == repr(pooled.signal_rows)
        # The pooled verdicts crossed the boundary by pickle; they must
        # match verdict for verdict and byte for byte.
        assert list(serial.classified) == list(pooled.classified)
        for trial, classified in serial.classified.items():
            assert _verdicts(classified) == _verdicts(pooled.classified[trial])

    def test_error_vs_level(self):
        serial = error_vs_level.run(scale=0.3, seed=52, jobs=1)
        pooled = error_vs_level.run(scale=0.3, seed=52, jobs=2)
        assert repr(serial.level_bins) == repr(pooled.level_bins)
        assert repr(serial.table3) == repr(pooled.table3)

    def test_phones_narrowband(self):
        serial = phones_narrowband.run(scale=0.3, seed=710, jobs=1)
        pooled = phones_narrowband.run(scale=0.3, seed=710, jobs=2)
        assert repr(serial.metrics_rows) == repr(pooled.metrics_rows)
        assert repr(serial.signal_rows) == repr(pooled.signal_rows)
        assert repr(serial.outsider_rows) == repr(pooled.outsider_rows)

    def test_competing(self):
        serial = competing.run(scale=0.05, seed=74, jobs=1)
        pooled = competing.run(scale=0.05, seed=74, jobs=3)
        assert repr(serial.metrics_rows) == repr(pooled.metrics_rows)
        assert repr(serial.signal_rows) == repr(pooled.signal_rows)
        assert repr(serial.unusable_metrics) == repr(pooled.unusable_metrics)
