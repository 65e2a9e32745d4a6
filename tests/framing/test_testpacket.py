"""The paper's test packet format."""

from dataclasses import replace

import numpy as np
import pytest

from repro.framing import ethernet
from repro.framing.crc import check_fcs
from repro.framing.ip import Ipv4Header
from repro.framing.testpacket import (
    BODY_BITS,
    BODY_BYTES,
    BODY_END,
    BODY_START,
    FRAME_BYTES,
    TestPacketFactory,
    TestPacketSpec,
    WORDS_PER_PACKET,
)
from repro.framing.udp import UdpHeader


class TestFormatConstants:
    def test_body_is_256_words(self):
        assert WORDS_PER_PACKET == 256
        assert BODY_BYTES == 1024
        assert BODY_BITS == 8192

    def test_frame_length(self):
        # modem(2) + eth hdr(14) + ip(20) + udp(8) + body(1024) + fcs(4)
        assert FRAME_BYTES == 2 + 14 + 20 + 8 + 1024 + 4

    def test_region_slices_cover_frame(self):
        wrapper = TestPacketFactory.wrapper_slices()
        body = TestPacketFactory.body_slice()
        covered = set()
        for s in wrapper + [body]:
            covered.update(range(s.start, s.stop))
        assert covered == set(range(FRAME_BYTES))


class TestFrameConstruction:
    def test_body_word_increments_per_packet(self, factory):
        assert factory.body_word(0) == b"\x00\x00\x00\x00"
        assert factory.body_word(1) == b"\x00\x00\x00\x01"
        assert factory.body_word(256) == b"\x00\x00\x01\x00"

    def test_body_word_wraps_modulo_2_32(self, factory):
        assert factory.body_word(2**32) == factory.body_word(0)

    def test_body_is_repeated_word(self, factory):
        body = factory.body(17)
        word = factory.body_word(17)
        assert body == word * 256

    def test_first_sequence_offset(self):
        spec = TestPacketSpec.default()
        shifted = TestPacketSpec(
            src_mac=spec.src_mac,
            dst_mac=spec.dst_mac,
            src_ip=spec.src_ip,
            dst_ip=spec.dst_ip,
            src_port=spec.src_port,
            dst_port=spec.dst_port,
            first_sequence=1000,
        )
        factory = TestPacketFactory(shifted)
        assert factory.body_word(5) == (1005).to_bytes(4, "big")

    @pytest.mark.parametrize("sequence", [0, 1, 255, 256, 65535, 65536, 2**31])
    def test_fast_build_matches_reference(self, factory, sequence):
        assert factory.build(sequence) == factory.build_reference(sequence)

    def test_frame_passes_all_checksums(self, factory):
        wire = factory.build(42)
        assert len(wire) == FRAME_BYTES
        assert check_fcs(wire[2:])
        ip_header = Ipv4Header.parse(wire[16:36])
        assert ip_header.checksum_valid
        udp = UdpHeader.parse(wire[36:], ip_header.src, ip_header.dst)
        assert udp.checksum_valid

    def test_network_id_prefix(self, factory, spec):
        wire = factory.build(0)
        assert int.from_bytes(wire[:2], "big") == spec.network_id

    def test_ethertype_is_ipv4(self, factory):
        wire = factory.build(0)
        assert int.from_bytes(wire[14:16], "big") == ethernet.ETHERTYPE_IPV4

    def test_frames_differ_only_in_expected_fields(self, factory):
        a, b = factory.build(1), factory.build(2)
        differing = {i for i in range(FRAME_BYTES) if a[i] != b[i]}
        # IP id+checksum (4 bytes), UDP checksum (2), body (1024), FCS (4).
        allowed = set(range(20, 22)) | set(range(26, 28))  # ip id, ip csum
        allowed |= set(range(42, 44))  # udp checksum
        allowed |= set(range(BODY_START, BODY_END))  # body
        allowed |= set(range(BODY_END, FRAME_BYTES))  # fcs
        assert differing <= allowed
        assert differing & set(range(BODY_START, BODY_END))


class TestBuildBulk:
    """``build_bulk`` rows are byte-identical to the scalar builders."""

    @staticmethod
    def _assert_rows_match(factory, sequences):
        frames = factory.build_bulk(np.asarray(sequences, dtype=np.int64))
        assert frames.shape == (len(sequences), FRAME_BYTES)
        for row, sequence in zip(frames, sequences):
            assert row.tobytes() == factory.build(sequence)
            assert row.tobytes() == factory.build_reference(sequence)

    def test_ip_id_aliasing_around_two_16(self, factory):
        self._assert_rows_match(factory, [65535, 65536, 65537, 131071])

    def test_body_word_wraps_two_32(self, spec):
        factory = TestPacketFactory(replace(spec, first_sequence=0xFFFFFF00))
        sequences = [0, 0xFF, 0x100, 0x101, 70_000]
        self._assert_rows_match(factory, sequences)
        wrapped = factory.build_bulk(np.array([0x100]))[0]
        assert wrapped[BODY_START:BODY_END].tobytes() == bytes(BODY_BYTES)

    def test_zero_udp_checksum_sent_as_ffff(self, factory):
        """RFC 768: a computed UDP checksum of 0 goes out as 0xFFFF
        (sequence 64275 computes to 0 under the default spec)."""
        self._assert_rows_match(factory, [64274, 64275, 64276])
        assert factory.build(64275)[42:44] == b"\xff\xff"

    def test_empty(self, factory):
        frames = factory.build_bulk(np.array([], dtype=np.int64))
        assert frames.shape == (0, FRAME_BYTES)
        assert frames.dtype == np.uint8
