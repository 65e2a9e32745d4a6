"""The calibrated impairment pipeline."""

import numpy as np
import pytest

from repro.framing.testpacket import FRAME_BYTES
from repro.phy.errormodel import (
    ErrorModelParams,
    InterferenceSample,
    WaveLanErrorModel,
    _fold_probabilities,
)


@pytest.fixture
def model() -> WaveLanErrorModel:
    return WaveLanErrorModel()


class TestProbabilityCurves:
    def test_miss_floor_is_host_loss(self, model):
        """Table 2: .01-.07% loss on a perfect channel."""
        p = model.miss_probability(29.5)
        assert p == pytest.approx(model.params.host_loss_probability, rel=0.05)

    def test_miss_negligible_at_level_10(self, model):
        assert model.miss_probability(10.0) < 1e-3

    def test_miss_severe_in_deep_error_region(self, model):
        assert model.miss_probability(3.0) > 0.8

    def test_miss_monotone(self, model):
        probs = [model.miss_probability(lv) for lv in (2, 4, 6, 8, 10, 20)]
        assert probs == sorted(probs, reverse=True)

    def test_hit_calibration_tx5(self, model):
        """Tx5 (level 9.5): ~25 of 1440 packets took a burst."""
        assert 0.008 < model.hit_probability(9.5) < 0.03

    def test_hit_calibration_body(self, model):
        """Body trial (level 6.73): ~224 of 1442."""
        assert 0.10 < model.hit_probability(6.73) < 0.22

    def test_hit_negligible_on_strong_link(self, model):
        assert model.hit_probability(29.5) < 1e-8


class TestPacketFates:
    def test_strong_link_mostly_clean(self, model, rng):
        outcomes = [
            model.sample_packet(29.5, FRAME_BYTES, rng) for _ in range(3_000)
        ]
        damaged = sum(1 for f in outcomes if not f.missed and f.damaged)
        missed = sum(1 for f in outcomes if f.missed)
        assert damaged == 0
        assert missed < 10

    def test_fate_fields_consistent(self, model, rng):
        for _ in range(500):
            fate = model.sample_packet(6.0, FRAME_BYTES, rng)
            if fate.missed:
                assert not fate.damaged
                continue
            if fate.truncated:
                assert 8 <= fate.truncated_at_byte < FRAME_BYTES
                # No flips beyond the truncation point.
                assert (
                    fate.flipped_bits < fate.truncated_at_byte * 8
                ).all()
            assert 0 <= fate.quality <= 15

    def test_flips_within_frame(self, model, rng):
        for _ in range(300):
            fate = model.sample_packet(5.5, FRAME_BYTES, rng)
            if len(fate.flipped_bits):
                assert fate.flipped_bits.min() >= 0
                assert fate.flipped_bits.max() < FRAME_BYTES * 8
                # Positions unique and sorted.
                assert (np.diff(fate.flipped_bits) > 0).all()

    def test_burst_sizes_match_paper_scale(self, model, rng):
        """Tx5: 82 bits over 25 packets, mean ~3.3, worst 7."""
        sizes = []
        for _ in range(30_000):
            fate = model.sample_packet(9.5, FRAME_BYTES, rng)
            if not fate.missed and len(fate.flipped_bits):
                sizes.append(len(fate.flipped_bits))
        assert sizes, "expected some bursts at level 9.5"
        assert 2.0 < np.mean(sizes) < 5.0


class TestInterferenceEffects:
    def test_miss_probability_composes(self, model, rng):
        jam = InterferenceSample(source_name="j", miss_probability=1.0)
        fate = model.sample_packet(29.5, FRAME_BYTES, rng, [jam])
        assert fate.missed

    def test_truncate_probability_applies(self, model, rng):
        jam = InterferenceSample(source_name="j", truncate_probability=1.0)
        truncated = 0
        for _ in range(200):
            fate = model.sample_packet(29.5, FRAME_BYTES, rng, [jam])
            if not fate.missed and fate.truncated:
                truncated += 1
        assert truncated > 190

    def test_jam_ber_injects_errors(self, model, rng):
        jam = InterferenceSample(source_name="j", jam_ber=1e-3)
        totals = 0
        for _ in range(200):
            fate = model.sample_packet(29.5, FRAME_BYTES, rng, [jam])
            totals += len(fate.flipped_bits)
        expected = 200 * 1e-3 * FRAME_BYTES * 8
        assert 0.5 * expected < totals < 1.5 * expected

    def test_clock_stress_lowers_quality(self, model, rng):
        jam = InterferenceSample(source_name="j", clock_stress=5.0)
        qualities = [
            model.sample_packet(29.5, FRAME_BYTES, rng, [jam]).quality
            for _ in range(200)
        ]
        assert np.mean(qualities) < 11.0

    def test_bursty_jam_avoids_frame_edges(self, model, rng):
        """The calibrated jam window stays inside the body ~97% of the
        time (Table 11: 1% wrapper vs 59% body damage)."""
        jam = InterferenceSample(source_name="j", jam_ber=2e-3, bursty=True)
        lead_bits = int(FRAME_BYTES * 8 * 0.045)
        edge_hits = 0
        packets_with_errors = 0
        for _ in range(400):
            fate = model.sample_packet(29.5, FRAME_BYTES, rng, [jam])
            if len(fate.flipped_bits):
                packets_with_errors += 1
                if (fate.flipped_bits < lead_bits).any():
                    edge_hits += 1
        assert packets_with_errors > 100
        assert edge_hits / packets_with_errors < 0.15


class TestFoldProbabilities:
    """The bulk path's log-space fold of independent per-packet
    probabilities: ``1 - prod(1 - p)`` across the columns."""

    #: Absolute float64 tolerance against the per-packet product.
    ATOL = 1e-12

    def test_exact_one_folds_to_exactly_one(self):
        base = np.array([0.1, 0.2, 0.3])
        columns = [np.array([0.0, 1.0, 0.5]), np.array([0.4, 0.4, 0.4])]
        assert _fold_probabilities(base, columns)[1] == 1.0

    def test_no_columns_returns_base_unchanged(self):
        base = np.array([0.1, 0.2, 0.3])
        assert _fold_probabilities(base, []) is base
        np.testing.assert_array_equal(base, [0.1, 0.2, 0.3])

    def test_matches_per_packet_product(self):
        rng = np.random.default_rng(11)
        base = rng.random(500)
        columns = [rng.random(500) for _ in range(4)]
        expected = np.empty(500)
        for packet in range(500):
            keep = 1.0 - base[packet]
            for column in columns:
                keep *= 1.0 - column[packet]
            expected[packet] = 1.0 - keep
        folded = _fold_probabilities(base, columns)
        np.testing.assert_allclose(folded, expected, rtol=0, atol=self.ATOL)


class TestBulkPath:
    def test_bulk_statistics_match_scalar(self, model):
        """The vectorized fast path and the per-packet path must agree
        on outcome rates (they share calibration constants)."""
        rng_bulk = np.random.default_rng(0)
        rng_scalar = np.random.default_rng(1)
        n = 40_000
        level = 6.5
        flags = model.sample_bulk_clean(np.full(n, level), FRAME_BYTES, rng_bulk)
        bulk_miss = flags["missed"].mean()
        bulk_trunc = flags["truncated"].mean()
        bulk_hit = flags["hit"].mean()

        miss = trunc = hit = 0
        for _ in range(n):
            fate = model.sample_packet(level, FRAME_BYTES, rng_scalar)
            if fate.missed:
                miss += 1
            elif fate.truncated:
                trunc += 1
            elif len(fate.flipped_bits):
                hit += 1
        assert bulk_miss == pytest.approx(miss / n, abs=0.01)
        assert bulk_trunc == pytest.approx(trunc / n, abs=0.005)
        assert bulk_hit == pytest.approx(hit / n, abs=0.01)

    def test_detail_clean_packet_realizes_flags(self, model, rng):
        fate = model.detail_clean_packet(
            stress=0.0,
            truncated=True,
            hit=True,
            residual_bits=0,
            frame_bytes=FRAME_BYTES,
            rng=rng,
        )
        assert fate.truncated
        assert fate.quality < 12  # slip stress applied


class TestResidualBer:
    """The residual-BER process is Binomial in the frame's bit count:
    at high BER a packet must be able to carry *several* residual bit
    errors (the old one-draw Bernoulli capped it at one per packet)."""

    BER = 1e-3  # ~8.6 expected bit errors per 1072-byte frame

    @pytest.fixture
    def hot_model(self) -> WaveLanErrorModel:
        return WaveLanErrorModel(ErrorModelParams(residual_ber=self.BER))

    def test_scalar_mean_bits_match_binomial(self, hot_model):
        rng = np.random.default_rng(7)
        frame_bits = FRAME_BYTES * 8
        n = 2_000
        total = 0
        multi_bit_packets = 0
        for _ in range(n):
            fate = hot_model.sample_packet(29.5, FRAME_BYTES, rng)
            if fate.missed:
                continue
            total += len(fate.flipped_bits)
            if len(fate.flipped_bits) > 1:
                multi_bit_packets += 1
        expected = self.BER * frame_bits
        assert total / n == pytest.approx(expected, rel=0.1)
        # The defining regression: multi-bit residual damage exists.
        assert multi_bit_packets > n / 2

    def test_bulk_mean_bits_match_binomial(self, hot_model):
        rng = np.random.default_rng(8)
        frame_bits = FRAME_BYTES * 8
        n = 20_000
        flags = hot_model.sample_bulk_clean(
            np.full(n, 29.5), FRAME_BYTES, rng
        )
        residual = flags["residual_bits"]
        expected = self.BER * frame_bits
        assert residual.mean() == pytest.approx(expected, rel=0.05)
        assert (residual > 1).mean() > 0.5

    def test_low_ber_still_rare(self, model):
        """At the calibrated 2e-10 the process stays a near-never event
        (Table 2: ~1 corrupted bit in 10^10)."""
        rng = np.random.default_rng(9)
        flags = model.sample_bulk_clean(
            np.full(50_000, 29.5), FRAME_BYTES, rng
        )
        assert int(flags["residual_bits"].sum()) <= 1
