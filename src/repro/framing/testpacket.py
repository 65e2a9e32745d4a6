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

import functools
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

# The wrapper bytes that change with the sequence number: the IP
# identification and header checksum, and the UDP checksum.  Every other
# wrapper byte except the FCS is the same in every frame of a trial.
IP_ID_OFFSET = ETH_HEADER_END + 4
IP_CHECKSUM_OFFSET = ETH_HEADER_END + 10
UDP_CHECKSUM_OFFSET = IP_HEADER_END + 6
SEQUENCE_BYTE_OFFSETS = tuple(
    field + index
    for field in (IP_ID_OFFSET, IP_CHECKSUM_OFFSET, UDP_CHECKSUM_OFFSET)
    for index in (0, 1)
)  # (20, 21, 26, 27, 42, 43)


@functools.cache
def _fcs_tables() -> np.ndarray:
    """Per-byte CRC contributions of the bytes that vary between frames.

    CRC-32 is affine over GF(2): for messages of one length,
    ``crc(a ^ b) = crc(a) ^ crc(b) ^ crc(0)``.  So a frame's FCS is the
    CRC of its trial's constant frame (varying bytes zeroed) XOR, per
    varying byte, ``crc(v at its position, zeros elsewhere) ^ crc(0)``,
    which is linear in the byte value ``v`` and so fixed by its 8 bits.
    Setting one bit in all 256 copies of a body-word byte lane sums that
    lane's 256 contributions in one CRC.  Rows 0-5 are the bytes at
    :data:`SEQUENCE_BYTE_OFFSETS`, rows 6-9 the body word's byte lanes
    (most significant first); the tables depend only on the frame
    layout, not on the spec.
    """
    length = BODY_END - MODEM_HEADER_END
    zero_crc = crc32(bytes(length))
    positions = [[offset] for offset in SEQUENCE_BYTE_OFFSETS] + [
        range(BODY_START + lane, BODY_END, WORD_BYTES)
        for lane in range(WORD_BYTES)
    ]
    tables = np.zeros((len(positions), 256), dtype=np.uint32)
    for row, offsets in enumerate(positions):
        for bit in range(8):
            message = bytearray(length)
            for offset in offsets:
                message[offset - MODEM_HEADER_END] = 1 << bit
            contribution = crc32(bytes(message)) ^ zero_crc
            # Linear in the byte value: extend to every value that
            # adds this bit to one already tabulated.
            tables[row, 1 << bit : 2 << bit] = (
                tables[row, : 1 << bit] ^ contribution
            )
    tables.flags.writeable = False  # shared by every caller
    return tables


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
        self._last_built: tuple[int, bytes] | None = None

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
        templates.  The last frame built is kept, since the matcher's
        wrapper score and the syndrome of one damaged row ask for the
        same sequence back to back.
        """
        last = self._last_built
        if last is not None and last[0] == sequence:
            return last[1]
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
        self._last_built = (sequence, frame)
        return frame

    @functools.cached_property
    def _constant(self) -> tuple[np.ndarray, int]:
        """The trial's constant header bytes and the CRC they seed.

        The header is ``build(0)``'s first :data:`BODY_START` bytes with
        the :data:`SEQUENCE_BYTE_OFFSETS` zeroed; the CRC is that of the
        frame whose every varying byte (those six and the body) is zero.
        """
        frame = np.frombuffer(self.build(0), dtype=np.uint8).copy()
        frame[list(SEQUENCE_BYTE_OFFSETS)] = 0
        frame[BODY_START:] = 0
        frame.flags.writeable = False
        return frame[:BODY_START], crc32(frame[MODEM_HEADER_END:BODY_END])

    def wrapper_bulk(
        self, sequences: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Everything of each frame but its repeated body, per sequence.

        Returns ``(headers, words, fcs)`` as uint8 matrices of shapes
        ``(n, BODY_START)``, ``(n, WORD_BYTES)`` and ``(n, 4)``: the
        header bytes, the body word and the FCS of ``build(sequence)``.
        Every column is computed in one vectorized pass, the FCS from
        the varying bytes alone (:func:`_fcs_tables`): no frame is built
        and no CRC runs per row.
        """
        sequences = np.asarray(sequences, dtype=np.int64)
        n = len(sequences)
        # The IP id and its checksum are functions of seq mod 2^16; the
        # UDP checksum folds over the full 32-bit body word, so it
        # discriminates sequence epochs the IP id aliases.
        idents = sequences & 0xFFFF
        ip_checksums = ~self._fold_array(self._ip_sum_base + idents) & 0xFFFF
        values = (self.spec.first_sequence + sequences) & 0xFFFFFFFF
        word_sums = (values >> 16) + (values & 0xFFFF)
        udp_checksums = ~self._fold_array(
            self._udp_sum_base + WORDS_PER_PACKET * word_sums
        ) & 0xFFFF
        udp_checksums[udp_checksums == 0] = 0xFFFF  # RFC 768
        # Big-endian 16-bit fields, in SEQUENCE_BYTE_OFFSETS order.
        fields = (
            np.stack([idents, ip_checksums, udp_checksums], axis=1)
            .astype(">u2")
            .view(np.uint8)
        )
        words = values.astype(">u4").view(np.uint8).reshape(n, WORD_BYTES)

        header, crc = self._constant
        headers = np.tile(header, (n, 1))
        headers[:, list(SEQUENCE_BYTE_OFFSETS)] = fields
        tables = _fcs_tables()
        fcs = np.full(n, crc, dtype=np.uint32)
        for row, column in enumerate(np.hstack([fields, words]).T):
            fcs ^= tables[row, column]
        return headers, words, fcs.astype("<u4").view(np.uint8).reshape(n, 4)

    def build_bulk(self, sequences: np.ndarray) -> np.ndarray:
        """One full wire frame per requested sequence.

        Returns a ``(len(sequences), FRAME_BYTES)`` uint8 matrix, each
        row byte-identical to ``build(sequence)``, assembled from
        :meth:`wrapper_bulk`.  The body word is broadcast into the body
        as one 32-bit lane per word, so the frames are the only
        frame-sized allocation.
        """
        headers, words, fcs = self.wrapper_bulk(sequences)
        frames = np.empty((len(headers), FRAME_BYTES), dtype=np.uint8)
        frames[:, :BODY_START] = headers
        frames[:, BODY_START:BODY_END].view(np.uint32)[:] = words.view(np.uint32)
        frames[:, BODY_END:] = fcs
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
