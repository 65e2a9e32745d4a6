"""Trace records and trial containers."""

import pytest

from repro.framing.testpacket import TestPacketSpec
from repro.phy.modem import ModemRxStatus
from repro.trace.records import PacketRecord, TrialTrace

STATUS = ModemRxStatus(29, 3, 15, 0)


class TestPacketRecord:
    def test_from_bytes(self):
        record = PacketRecord.from_bytes(b"abc", STATUS, time=2.0)
        assert record.data == b"abc"
        assert record.length == 3

    def test_empty_record_raises(self):
        with pytest.raises(ValueError):
            PacketRecord(status=STATUS).data


class TestTrialTrace:
    def test_extend_aggregates_bursts(self, spec):
        a = TrialTrace(name="t", spec=spec, packets_sent=100)
        b = TrialTrace(name="t", spec=spec, packets_sent=50)
        b.records.append(PacketRecord.from_bytes(b"x", STATUS))
        a.extend(b)
        assert a.packets_sent == 150
        assert a.packets_received == 1

    def test_extend_rejects_mismatched_spec(self, spec):
        a = TrialTrace(name="t", spec=spec, packets_sent=1)
        other_spec = TestPacketSpec(
            src_mac=spec.src_mac,
            dst_mac=spec.dst_mac,
            src_ip="10.0.0.1",
            dst_ip=spec.dst_ip,
            src_port=spec.src_port,
            dst_port=spec.dst_port,
        )
        b = TrialTrace(name="t", spec=other_spec, packets_sent=1)
        with pytest.raises(ValueError):
            a.extend(b)
