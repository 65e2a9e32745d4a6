"""The paper's test packet format (Section 4).

    "Within each trial, packets consisted of 256 32-bit words wrapped
    inside UDP, IP, Ethernet, and modem framing.  For each packet, the
    data words were identical to facilitate identification even in the
    face of substantial noise, and the data value was incremented
    between packets."

The factory below builds byte-exact wire frames and records the byte
offsets of each region so the analysis stage can distinguish *wrapper*
damage (headers/trailer) from *body* damage, exactly as the paper's
Table 1 columns require.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.framing import ethernet, ip, modem, udp
from repro.framing.checksum import internet_checksum
from repro.framing.crc import crc32
from repro.framing.ethernet import EthernetFrame, MacAddress
from repro.framing.ip import Ipv4Header
from repro.framing.udp import UdpHeader

WORDS_PER_PACKET = 256
WORD_BYTES = 4
BODY_BYTES = WORDS_PER_PACKET * WORD_BYTES  # 1024
BODY_BITS = BODY_BYTES * 8  # 8192, the per-packet "body bits" of Table 1

# Region offsets within the full modem frame.
MODEM_HEADER_END = modem.NETWORK_ID_LEN
ETH_HEADER_END = MODEM_HEADER_END + ethernet.HEADER_LEN
IP_HEADER_END = ETH_HEADER_END + ip.HEADER_LEN
UDP_HEADER_END = IP_HEADER_END + udp.HEADER_LEN
BODY_START = UDP_HEADER_END
BODY_END = BODY_START + BODY_BYTES
FRAME_BYTES = BODY_END + ethernet.FCS_LEN  # 1072


@dataclass(frozen=True)
class TestPacketSpec:
    """Identity of a test-packet series: everything constant across a trial.

    The analysis stage is given the spec (as the authors knew their own
    tool's configuration) but must recover per-packet sequence numbers
    from the — possibly corrupted — received bits.
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    network_id: int = modem.DEFAULT_NETWORK_ID
    first_sequence: int = 0

    # Not a pytest test class despite the name.
    __test__ = False

    @classmethod
    def default(cls) -> "TestPacketSpec":
        """The configuration used by all experiments unless overridden."""
        return cls(
            src_mac=MacAddress.station(1),
            dst_mac=MacAddress.station(2),
            src_ip="128.2.222.101",
            dst_ip="128.2.222.102",
            src_port=5001,
            dst_port=5001,
        )


class TestPacketFactory:
    """Builds and describes the byte-exact test frames of a trial.

    :meth:`build` is the fast incremental path (only the sequence-
    dependent fields are recomputed per frame); :meth:`build_reference`
    composes the frame through the full header classes.  The test suite
    proves them byte-identical.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, spec: TestPacketSpec) -> None:
        self.spec = spec
        self._prefix = (
            (spec.network_id & 0xFFFF).to_bytes(2, "big")
            + spec.dst_mac.octets
            + spec.src_mac.octets
            + ethernet.ETHERTYPE_IPV4.to_bytes(2, "big")
        )
        udp_length = udp.HEADER_LEN + BODY_BYTES
        self._ip_template = bytearray(
            Ipv4Header(
                src=spec.src_ip,
                dst=spec.dst_ip,
                total_length=ip.HEADER_LEN + udp_length,
                identification=0,
            ).to_bytes()
        )
        # One's-complement sum of the IP header with id and checksum
        # fields zeroed; per-sequence checksum folds the id back in.
        zeroed = bytes(self._ip_template)
        zeroed = zeroed[:4] + b"\x00\x00" + zeroed[6:10] + b"\x00\x00" + zeroed[12:]
        self._ip_sum_base = (~internet_checksum(zeroed)) & 0xFFFF
        self._udp_header_base = (
            spec.src_port.to_bytes(2, "big")
            + spec.dst_port.to_bytes(2, "big")
            + udp_length.to_bytes(2, "big")
        )
        pseudo = (
            ip.ip_to_bytes(spec.src_ip)
            + ip.ip_to_bytes(spec.dst_ip)
            + b"\x00"
            + bytes([ip.IPV4_PROTO_UDP])
            + udp_length.to_bytes(2, "big")
        )
        self._udp_sum_base = (~internet_checksum(pseudo + self._udp_header_base)) & 0xFFFF
        # Lazily-built base frame for the vectorized template bank
        # (:meth:`build_bulk`); every sequence-dependent byte is patched
        # per row, so any sequence works as the base.
        self._bulk_base: np.ndarray | None = None

    @staticmethod
    def _fold(total: int) -> int:
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return total

    @staticmethod
    def _fold_array(totals: np.ndarray) -> np.ndarray:
        """Vectorized one's-complement fold of 32-bit running sums."""
        while (totals >> 16).any():
            totals = (totals & 0xFFFF) + (totals >> 16)
        return totals

    def body_word(self, sequence: int) -> bytes:
        """The 32-bit data word of packet ``sequence`` (big-endian).

        The word value starts at ``first_sequence`` and increments by one
        per packet, wrapping modulo 2**32.
        """
        value = (self.spec.first_sequence + sequence) & 0xFFFFFFFF
        return value.to_bytes(WORD_BYTES, "big")

    def body(self, sequence: int) -> bytes:
        """The 1024-byte packet body: one word repeated 256 times."""
        return self.body_word(sequence) * WORDS_PER_PACKET

    def build(self, sequence: int) -> bytes:
        """The full wire frame (modem + Ethernet + IP + UDP + body + FCS).

        Incremental fast path: patches the sequence-dependent fields (IP
        id + checksum, UDP checksum, body word) into precomputed
        templates.
        """
        word = self.body_word(sequence)
        body = word * WORDS_PER_PACKET
        # The IP id is 16 bits wide, so it aliases sequences mod 2^16;
        # header-led matching must unalias against the trial length
        # (TraceMatcher._header_match).  The UDP checksum folds over the
        # full 32-bit body word and so still discriminates epochs.
        ident = sequence & 0xFFFF

        ip_hdr = bytes(self._ip_template)
        ip_checksum = (~self._fold(self._ip_sum_base + ident)) & 0xFFFF
        ip_hdr = (
            ip_hdr[:4]
            + ident.to_bytes(2, "big")
            + ip_hdr[6:10]
            + ip_checksum.to_bytes(2, "big")
            + ip_hdr[12:]
        )

        word_sum = ((word[0] << 8) | word[1]) + ((word[2] << 8) | word[3])
        udp_sum = self._fold(self._udp_sum_base + WORDS_PER_PACKET * word_sum)
        udp_checksum = (~udp_sum) & 0xFFFF
        if udp_checksum == 0:
            udp_checksum = 0xFFFF  # RFC 768: zero means "no checksum"
        udp_hdr = self._udp_header_base + udp_checksum.to_bytes(2, "big")

        eth_body = self._prefix[2:] + ip_hdr + udp_hdr + body
        fcs = crc32(eth_body).to_bytes(4, "little")
        frame = self._prefix[:2] + eth_body + fcs
        return frame

    # Byte offsets of the sequence-dependent header fields within the
    # full modem frame (modem prefix 2 + Ethernet 14 + IP offsets).
    _IP_ID_OFFSET = 20
    _IP_CHECKSUM_OFFSET = 26
    _UDP_CHECKSUM_OFFSET = 42

    def build_bulk(self, sequences: np.ndarray) -> np.ndarray:
        """The template bank: one full wire frame per requested sequence.

        Returns a ``(len(sequences), FRAME_BYTES)`` uint8 matrix, each
        row byte-identical to ``build(sequence)``.  All header patching
        is column-vectorized; only the FCS runs per row (zlib's C CRC
        over each row's buffer).  The bulk matcher compares candidate
        records against this bank with a single equality reduction.
        """
        sequences = np.asarray(sequences, dtype=np.int64)
        n = len(sequences)
        if self._bulk_base is None:
            self._bulk_base = np.frombuffer(
                self.build(0), dtype=np.uint8
            ).copy()
        frames = np.tile(self._bulk_base, (n, 1))
        if n == 0:
            return frames

        # IP identification + checksum (both functions of seq mod 2^16).
        idents = sequences & 0xFFFF
        frames[:, self._IP_ID_OFFSET] = idents >> 8
        frames[:, self._IP_ID_OFFSET + 1] = idents & 0xFF
        ip_checksums = ~self._fold_array(self._ip_sum_base + idents) & 0xFFFF
        frames[:, self._IP_CHECKSUM_OFFSET] = ip_checksums >> 8
        frames[:, self._IP_CHECKSUM_OFFSET + 1] = ip_checksums & 0xFF

        # Body: the 32-bit word repeated 256 times.
        values = (self.spec.first_sequence + sequences) & 0xFFFFFFFF
        word_bytes = np.empty((n, WORD_BYTES), dtype=np.uint8)
        word_bytes[:, 0] = values >> 24
        word_bytes[:, 1] = (values >> 16) & 0xFF
        word_bytes[:, 2] = (values >> 8) & 0xFF
        word_bytes[:, 3] = values & 0xFF
        frames[:, BODY_START:BODY_END] = np.tile(word_bytes, (1, WORDS_PER_PACKET))

        # UDP checksum (folds over the full 32-bit word, so it
        # discriminates sequence epochs the IP id aliases).
        word_sums = (values >> 16) + (values & 0xFFFF)
        udp_sums = self._fold_array(
            self._udp_sum_base + WORDS_PER_PACKET * word_sums
        )
        udp_checksums = ~udp_sums & 0xFFFF
        udp_checksums[udp_checksums == 0] = 0xFFFF  # RFC 768
        frames[:, self._UDP_CHECKSUM_OFFSET] = udp_checksums >> 8
        frames[:, self._UDP_CHECKSUM_OFFSET + 1] = udp_checksums & 0xFF

        # FCS over everything after the modem prefix (little-endian).
        fcs_start = FRAME_BYTES - ethernet.FCS_LEN
        crcs = np.empty(n, dtype=np.int64)
        for row in range(n):
            crcs[row] = zlib.crc32(frames[row, MODEM_HEADER_END:fcs_start])
        frames[:, fcs_start] = crcs & 0xFF
        frames[:, fcs_start + 1] = (crcs >> 8) & 0xFF
        frames[:, fcs_start + 2] = (crcs >> 16) & 0xFF
        frames[:, fcs_start + 3] = (crcs >> 24) & 0xFF
        return frames

    def build_reference(self, sequence: int) -> bytes:
        """Compose the frame through the full header classes (slow path,
        used by tests to validate :meth:`build`)."""
        body = self.body(sequence)
        udp_length = udp.HEADER_LEN + len(body)
        udp_bytes = UdpHeader(
            src_port=self.spec.src_port,
            dst_port=self.spec.dst_port,
            length=udp_length,
        ).to_bytes(body, self.spec.src_ip, self.spec.dst_ip)
        ip_bytes = Ipv4Header(
            src=self.spec.src_ip,
            dst=self.spec.dst_ip,
            total_length=ip.HEADER_LEN + udp_length,
            identification=sequence & 0xFFFF,
        ).to_bytes()
        eth_wire = EthernetFrame(
            dst=self.spec.dst_mac,
            src=self.spec.src_mac,
            ethertype=ethernet.ETHERTYPE_IPV4,
            payload=ip_bytes + udp_bytes,
        ).to_bytes(with_fcs=True)
        frame = (self.spec.network_id & 0xFFFF).to_bytes(2, "big") + eth_wire
        if len(frame) != FRAME_BYTES:
            raise AssertionError(
                f"frame length {len(frame)} != expected {FRAME_BYTES}"
            )
        return frame

    @staticmethod
    def wrapper_slices() -> list[slice]:
        """Byte ranges of the frame that count as "wrapper" (headers+FCS)."""
        return [slice(0, BODY_START), slice(BODY_END, FRAME_BYTES)]

    @staticmethod
    def body_slice() -> slice:
        """Byte range of the frame occupied by the 256-word body."""
        return slice(BODY_START, BODY_END)
