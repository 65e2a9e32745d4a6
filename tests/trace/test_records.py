"""Trace records: one received packet as the receiver logs it."""

import pytest

from repro.phy.modem import ModemRxStatus
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)


class TestPacketRecord:
    def test_from_bytes(self):
        record = PacketRecord.from_bytes(b"abc", STATUS, time=2.0)
        assert record.data == b"abc"
        assert record.length == 3

    def test_empty_record_raises(self):
        with pytest.raises(ValueError):
            PacketRecord(status=STATUS).data
