"""End-to-end pipeline: simulate → trace → analyze, checked against the
simulator's ground truth (a luxury the paper's authors did not have)."""

import pytest

from repro.analysis.classify import PacketClass, classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.trial import TrialConfig, run_fast_trial


class TestAnalysisAgainstGroundTruth:
    def test_loss_accounting_matches(self):
        """Analysis-derived loss equals ground-truth non-delivery, up to
        the unmatchable-packet ambiguity the paper acknowledges."""
        output = run_fast_trial(
            TrialConfig(name="t", packets=4_000, mean_level=8.0, seed=21)
        )
        metrics = metrics_from_classified(classify_trace(output.trace))
        truth_lost = output.trace.packets_sent - output.dispositions.delivered
        # A delivered packet can be corrupted beyond recognition, in
        # which case the analysis counts it lost and logs an "outsider"
        # — exactly the ambiguity the paper acknowledges.  The accounting
        # must balance: apparent losses = true losses + unrecognizable
        # deliveries (no outsider traffic is configured in this trial).
        assert metrics.packets_lost == truth_lost + metrics.outsiders_received

    def test_no_false_losses_on_clean_channel(self):
        output = run_fast_trial(
            TrialConfig(name="t", packets=5_000, mean_level=29.5, seed=22)
        )
        metrics = metrics_from_classified(classify_trace(output.trace))
        assert metrics.packets_received == output.dispositions.delivered
        assert metrics.body_bits_damaged == 0
        assert metrics.packets_truncated == 0

    def test_damage_classes_sum_to_received(self):
        output = run_fast_trial(
            TrialConfig(name="t", packets=3_000, mean_level=6.5, seed=23)
        )
        classified = classify_trace(output.trace)
        counted = sum(
            len(classified.by_class(cls))
            for cls in (
                PacketClass.UNDAMAGED,
                PacketClass.TRUNCATED,
                PacketClass.WRAPPER_DAMAGED,
                PacketClass.BODY_DAMAGED,
            )
        )
        assert counted == len(classified.test_packets)
        assert counted + len(classified.outsiders) == len(classified.packets)

    def test_sequences_unique_and_plausible(self):
        output = run_fast_trial(
            TrialConfig(name="t", packets=2_000, mean_level=12.0, seed=24)
        )
        classified = classify_trace(output.trace)
        sequences = [p.sequence for p in classified.test_packets]
        assert len(set(sequences)) == len(sequences)
        assert all(0 <= s < 2_000 for s in sequences)

    def test_outsiders_do_not_contaminate_test_metrics(self):
        output = run_fast_trial(
            TrialConfig(
                name="t",
                packets=2_000,
                mean_level=29.5,
                seed=25,
                outsiders=OutsiderTraffic(rate_per_test_packet=0.2, mean_level=8.0),
            )
        )
        classified = classify_trace(output.trace)
        metrics = metrics_from_classified(classified)
        assert metrics.packets_received <= 2_000
        assert metrics.outsiders_received == len(classified.outsiders)
        assert metrics.outsiders_received > 100

    def test_signal_metrics_reflect_channel(self):
        from repro.analysis.signalstats import stats_for_test_packets

        output = run_fast_trial(
            TrialConfig(name="t", packets=2_000, mean_level=13.8, seed=26)
        )
        classified = classify_trace(output.trace)
        stats = stats_for_test_packets("all", classified)
        assert stats.level.mean == pytest.approx(13.8, abs=0.5)
        assert stats.quality.mean > 14.5
        assert stats.silence.mean == pytest.approx(2.8, abs=0.6)


class TestFecOnRealSyndromes:
    def test_attenuation_syndromes_recoverable_at_half_rate(self):
        """The Section-8 claim on the Tx5-style channel: observed bursts
        are 'trivial to correct using error coding'."""
        import numpy as np

        from repro.fec.interleave import BlockInterleaver
        from repro.fec.rcpc import RcpcCodec

        output = run_fast_trial(
            TrialConfig(name="t", packets=4_000, mean_level=9.0, seed=27)
        )
        classified = classify_trace(output.trace)
        syndromes = [
            p.syndrome
            for p in classified.by_class(PacketClass.BODY_DAMAGED)
            if p.syndrome is not None
        ][:25]
        assert syndromes, "expected body damage at level 9"

        codec = RcpcCodec("1/2")
        interleaver = BlockInterleaver(32, 64)
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, 1024).astype(np.uint8)
        transmitted = codec.encode(info)
        recovered = 0
        for syndrome in syndromes:
            scale = len(transmitted) / 8192
            positions = np.unique(
                (syndrome.body_bit_positions * scale).astype(np.int64)
            )
            stream = interleaver.scramble(transmitted).copy()
            positions = positions[positions < len(transmitted)]
            stream[positions] ^= 1
            damaged = interleaver.unscramble(stream)
            if np.array_equal(codec.decode(damaged), info):
                recovered += 1
        assert recovered == len(syndromes)
