"""Classification + Table-1 metrics, against hand-built traces."""

import numpy as np
import pytest

from repro.analysis.classify import PacketClass, classify_trace
from repro.analysis.metrics import analyze_trial
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_BITS, BODY_START, FRAME_BYTES
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)
WEAK_STATUS = ModemRxStatus(6, 3, 8, 1)


def _trace(spec, records, sent=10) -> ColumnarTrace:
    return ColumnarTrace.from_records(records, "hand", spec, sent)


class TestClassification:
    def test_undamaged(self, spec, factory):
        trace = _trace(spec, [PacketRecord.from_bytes(factory.build(0), STATUS)])
        classified = classify_trace(trace)
        assert classified.packets[0].packet_class is PacketClass.UNDAMAGED
        assert classified.packets[0].sequence == 0

    def test_truncated(self, spec, factory):
        trace = _trace(
            spec, [PacketRecord.from_bytes(factory.build(3)[:800], WEAK_STATUS)]
        )
        packet = classify_trace(trace).packets[0]
        assert packet.packet_class is PacketClass.TRUNCATED
        assert packet.truncated_bytes_missing == FRAME_BYTES - 800

    def test_body_damaged(self, spec, factory):
        damaged = flip_bits(
            factory.build(4), np.array([BODY_START * 8 + 7, BODY_START * 8 + 9])
        )
        packet = classify_trace(
            _trace(spec, [PacketRecord.from_bytes(damaged, WEAK_STATUS)])
        ).packets[0]
        assert packet.packet_class is PacketClass.BODY_DAMAGED
        assert packet.body_bits_damaged == 2

    def test_wrapper_damaged(self, spec, factory):
        damaged = flip_bits(factory.build(4), np.array([30]))
        packet = classify_trace(
            _trace(spec, [PacketRecord.from_bytes(damaged, WEAK_STATUS)])
        ).packets[0]
        assert packet.packet_class is PacketClass.WRAPPER_DAMAGED

    def test_body_damage_takes_precedence(self, spec, factory):
        damaged = flip_bits(
            factory.build(4), np.array([30, BODY_START * 8 + 7])
        )
        packet = classify_trace(
            _trace(spec, [PacketRecord.from_bytes(damaged, WEAK_STATUS)])
        ).packets[0]
        assert packet.packet_class is PacketClass.BODY_DAMAGED
        assert packet.wrapper_damaged

    def test_outsider_with_good_crc_undamaged(self, spec, rng):
        from repro.trace.outsiders import OutsiderTraffic

        frame = OutsiderTraffic().build_frame(rng)
        packet = classify_trace(
            _trace(spec, [PacketRecord.from_bytes(frame, WEAK_STATUS)])
        ).packets[0]
        assert packet.packet_class is PacketClass.OUTSIDER_UNDAMAGED

    def test_outsider_with_bad_crc_damaged(self, spec, rng):
        from repro.trace.outsiders import OutsiderTraffic

        frame = bytearray(OutsiderTraffic().build_frame(rng))
        frame[10] ^= 0xFF
        packet = classify_trace(
            _trace(spec, [PacketRecord.from_bytes(bytes(frame), WEAK_STATUS)])
        ).packets[0]
        assert packet.packet_class is PacketClass.OUTSIDER_DAMAGED


class TestMetrics:
    def test_full_table_row(self, spec, factory):
        records = [
            PacketRecord.from_bytes(factory.build(0), STATUS),
            PacketRecord.from_bytes(factory.build(1), STATUS),
            PacketRecord.from_bytes(factory.build(2)[:844], WEAK_STATUS),
            PacketRecord.from_bytes(
                flip_bits(
                    factory.build(3),
                    np.array([BODY_START * 8 + 1, BODY_START * 8 + 2, BODY_START * 8 + 64]),
                ),
                WEAK_STATUS,
            ),
            PacketRecord.from_bytes(
                flip_bits(factory.build(4), np.array([25])), WEAK_STATUS
            ),
        ]
        metrics = analyze_trial(_trace(spec, records, sent=10))
        assert metrics.packets_received == 5
        assert metrics.packets_lost == 5
        assert metrics.packet_loss_percent == pytest.approx(50.0)
        assert metrics.packets_truncated == 1
        assert metrics.body_damaged_packets == 1
        assert metrics.body_bits_damaged == 3
        assert metrics.worst_body_bits == 3
        assert metrics.wrapper_damaged == 1
        # 4 full bodies + 800 truncated body bytes.
        assert metrics.body_bits_received == 4 * BODY_BITS + 800 * 8

    def test_ber_estimate(self, spec, factory):
        records = [
            PacketRecord.from_bytes(
                flip_bits(factory.build(0), np.array([BODY_START * 8 + 5])),
                WEAK_STATUS,
            )
        ]
        metrics = analyze_trial(_trace(spec, records, sent=1))
        assert metrics.bit_error_rate == pytest.approx(1.0 / BODY_BITS)

    def test_bits_received_magnitude_format(self, spec, factory):
        records = [
            PacketRecord.from_bytes(factory.build(i), STATUS) for i in range(13)
        ]
        metrics = analyze_trial(_trace(spec, records, sent=13))
        assert metrics.bits_received_magnitude == "10^5"

    def test_empty_trial(self, spec):
        metrics = analyze_trial(_trace(spec, [], sent=0))
        assert metrics.packet_loss_percent == 0.0
        assert metrics.bit_error_rate == 0.0
        assert metrics.worst_body_bits is None
