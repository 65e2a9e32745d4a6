"""Burst characterization of extracted syndromes."""

import numpy as np
import pytest

from repro.analysis.burststats import burst_statistics
from repro.analysis.classify import classify_trace
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_START
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord
from repro.trace.trial import TrialConfig, run_fast_trial

STATUS = ModemRxStatus(9, 3, 14, 0)


def _trace_with_bursts(spec, factory, burst_specs):
    """Hand-build a trace: burst_specs is a list of per-packet position
    lists (body-bit offsets)."""
    records = []
    for sequence, positions in enumerate(burst_specs):
        frame = factory.build(sequence)
        if positions:
            bits = BODY_START * 8 + np.asarray(positions)
            frame = flip_bits(frame, bits)
        records.append(PacketRecord.from_bytes(frame, STATUS))
    return ColumnarTrace.from_records(records, "bursts", spec, len(burst_specs))


class TestHandBuilt:
    def test_single_burst_measured_exactly(self, spec, factory):
        trace = _trace_with_bursts(spec, factory, [[100, 103, 106], []])
        stats = burst_statistics(classify_trace(trace))
        assert stats.packets_analyzed == 2
        assert stats.packets_with_errors == 1
        assert stats.total_error_bits == 3
        assert stats.burst_count == 1
        assert stats.burst_lengths == [7]  # 106 - 100 + 1
        assert stats.burst_sizes == [3]

    def test_two_bursts_split_by_gap(self, spec, factory):
        trace = _trace_with_bursts(spec, factory, [[10, 12, 500, 505]])
        stats = burst_statistics(classify_trace(trace))
        assert stats.burst_count == 2
        assert sorted(stats.burst_sizes) == [2, 2]

    def test_mean_ber(self, spec, factory):
        from repro.framing.testpacket import BODY_BITS

        trace = _trace_with_bursts(spec, factory, [[1], [], [], []])
        stats = burst_statistics(classify_trace(trace))
        assert stats.mean_ber == pytest.approx(1 / (4 * BODY_BITS))

    def test_clean_trace(self, spec, factory):
        trace = _trace_with_bursts(spec, factory, [[], []])
        stats = burst_statistics(classify_trace(trace))
        assert stats.packets_with_errors == 0
        assert stats.burst_count == 0
        assert stats.mean_ber == 0.0
        assert stats.burstiness_ratio == 1.0


class TestOnSimulatedChannel:
    def test_tx5_channel_is_bursty(self):
        """The simulated attenuation channel produces multi-bit bursts
        (the paper's Tx5: 82 bits over 25 packets)."""
        output = run_fast_trial(
            TrialConfig(name="t", packets=6_000, mean_level=9.0, seed=7)
        )
        stats = burst_statistics(classify_trace(output.trace))
        assert stats.packets_with_errors > 50
        assert stats.burstiness_ratio > 1.5  # decidedly not i.i.d.

    def test_fitted_gilbert_elliott_matches(self):
        output = run_fast_trial(
            TrialConfig(name="t", packets=6_000, mean_level=9.0, seed=8)
        )
        stats = burst_statistics(classify_trace(output.trace))
        channel = stats.fitted_gilbert_elliott()
        assert channel.mean_ber == pytest.approx(stats.mean_ber, rel=0.05)
        assert channel.mean_burst_bits == pytest.approx(
            stats.mean_burst_span_bits, rel=0.05
        )
