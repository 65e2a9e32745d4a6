"""Wire-protocol unit tests: framing (through :class:`FrameReader`, the
one decoder both ends run), handshake, chunk payloads."""

import asyncio

import numpy as np
import pytest

from repro.phy.modem import ModemRxStatus
from repro.serve import protocol
from repro.serve.protocol import FrameType, ProtocolError
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)


def _read_frames(data: bytes, count: int) -> list:
    """Feed ``data`` and EOF to a fresh StreamReader (inside a running
    loop) and read ``count`` frames through one :class:`FrameReader`,
    copying each payload out before the next read releases it."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = protocol.FrameReader(reader)
        items = []
        for _ in range(count):
            item = await frames.read_frame()
            items.append(None if item is None else (item[0], bytes(item[1])))
        return items

    return asyncio.run(go())


def _read_one(*frames: bytes):
    return _read_frames(b"".join(frames), 1)[0]


@pytest.fixture
def columnar(spec, factory) -> ColumnarTrace:
    records = [
        PacketRecord.from_bytes(factory.build(sequence), STATUS)
        for sequence in range(6)
    ]
    return ColumnarTrace.from_records(records, "proto", spec, 6)


class TestFraming:
    def test_round_trip(self):
        encoded = protocol.frame(FrameType.CHUNK, b"payload")
        frame_type, payload = _read_one(encoded)
        assert frame_type is FrameType.CHUNK
        assert payload == b"payload"

    def test_empty_payload(self):
        encoded = protocol.frame(FrameType.END)
        frame_type, payload = _read_one(encoded)
        assert frame_type is FrameType.END
        assert payload == b""

    def test_clean_eof_is_none(self):
        assert _read_one() is None

    def test_eof_mid_length_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_one(b"\x00\x00")

    def test_eof_mid_body_raises(self):
        whole = protocol.frame(FrameType.CHUNK, b"x" * 100)
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_one(whole[:20])

    def test_unknown_frame_type_raises(self):
        encoded = (2).to_bytes(4, "big") + bytes([0x7F, 0x00])
        with pytest.raises(ProtocolError, match="unknown frame type"):
            _read_one(encoded)

    def test_zero_length_raises(self):
        with pytest.raises(ProtocolError, match="invalid frame length"):
            _read_one(b"\x00\x00\x00\x00")

    def test_oversize_declared_length_raises(self):
        huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="invalid frame length"):
            _read_one(huge)

    def test_oversize_encode_raises(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.frame(
                FrameType.CHUNK, b"\x00" * protocol.MAX_FRAME_BYTES
            )

    def test_back_to_back_frames(self):
        data = protocol.frame(FrameType.HELLO, b"a") + protocol.frame(
            FrameType.END
        )
        first, second, third = _read_frames(data, 3)
        assert first == (FrameType.HELLO, b"a")
        assert second == (FrameType.END, b"")
        assert third is None


class TestHello:
    def test_round_trip(self, spec):
        payload = protocol.hello_payload(
            "s1", "unit", spec, packets_sent=42, total_records=7
        )
        doc = protocol.parse_hello(payload)
        assert doc["session"] == "s1"
        assert doc["packets_sent"] == 42
        assert doc["total_records"] == 7
        assert doc["spec"] == spec

    def test_version_mismatch(self, spec):
        import json

        doc = json.loads(
            protocol.hello_payload("s1", "unit", spec, 1).decode()
        )
        doc["version"] = 99
        with pytest.raises(ProtocolError, match="version"):
            protocol.parse_hello(protocol.encode_json(doc))

    def test_missing_key(self):
        with pytest.raises(ProtocolError, match="missing"):
            protocol.parse_hello(
                protocol.encode_json({"version": 1, "session": "x"})
            )

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            protocol.decode_json(b"\xff\xfe not json")

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode_json(b"[1, 2]")


class TestChunks:
    def test_round_trip(self, columnar):
        payload = protocol.encode_chunk(columnar)
        decoded = protocol.decode_chunk(payload)
        assert decoded.packets_received == columnar.packets_received
        assert decoded.spec == columnar.spec
        np.testing.assert_array_equal(decoded.lengths, columnar.lengths)
        for index in range(columnar.packets_received):
            assert decoded.data(index) == columnar.data(index)

    def test_slice_round_trip(self, columnar):
        payload = protocol.encode_chunk(columnar, 2, 5)
        decoded = protocol.decode_chunk(payload)
        assert decoded.packets_received == 3
        for offset, index in enumerate(range(2, 5)):
            assert decoded.data(offset) == columnar.data(index)

    def test_empty_slice_round_trip(self, columnar):
        payload = protocol.encode_chunk(columnar, 3, 3)
        decoded = protocol.decode_chunk(payload)
        assert decoded.packets_received == 0

    def test_truncated_chunk_raises(self, columnar):
        payload = protocol.encode_chunk(columnar)
        with pytest.raises(ValueError):
            protocol.decode_chunk(payload[: len(payload) // 2])
