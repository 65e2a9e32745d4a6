"""Error syndrome (bit corruption pattern) extraction.

"Since the packet body consists of a single word repeated multiple
times, truncated packet bodies are ambiguous — it is not possible to
know which words are missing.  Therefore, we produce an estimated error
syndrome ... only for those test packets which are damaged but not
truncated" (Section 4).

A syndrome is the XOR of the received frame against the expected frame
for the recovered sequence number, split into wrapper and body regions.
Body syndromes feed the FEC evaluation (:mod:`repro.fec`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.framing.testpacket import (
    BODY_END,
    BODY_START,
    FRAME_BYTES,
    TestPacketFactory,
)


@dataclass
class ErrorSyndrome:
    """Bit corruption pattern of one damaged, untruncated test packet.

    Bit positions are MSB-first offsets; body positions are relative to
    the body start, wrapper positions relative to the frame start.
    """

    sequence: int
    body_bit_positions: np.ndarray
    wrapper_bit_positions: np.ndarray

    @property
    def body_bits_damaged(self) -> int:
        return len(self.body_bit_positions)

    @property
    def wrapper_damaged(self) -> bool:
        return len(self.wrapper_bit_positions) > 0

    @property
    def damaged(self) -> bool:
        return self.wrapper_damaged or self.body_bits_damaged > 0

    def burst_spans(self, max_gap_bits: int = 32) -> list[tuple[int, int]]:
        """Group body bit errors into bursts separated by > ``max_gap_bits``.

        Returns (first_bit, last_bit) spans; used to characterize the
        burstiness of the channel for FEC/interleaving decisions.
        """
        if self.body_bits_damaged == 0:
            return []
        positions = np.sort(self.body_bit_positions)
        spans: list[tuple[int, int]] = []
        start = prev = int(positions[0])
        for pos in positions[1:]:
            pos = int(pos)
            if pos - prev > max_gap_bits:
                spans.append((start, prev))
                start = pos
            prev = pos
        spans.append((start, prev))
        return spans


def extract_syndrome(
    data: bytes, sequence: int, factory: TestPacketFactory
) -> ErrorSyndrome:
    """XOR a full-length received frame against its expected contents.

    Raises ValueError for truncated frames — their syndromes are
    ambiguous by construction and the paper declines to estimate them.
    """
    if len(data) != FRAME_BYTES:
        raise ValueError(
            f"syndrome undefined for truncated frame ({len(data)} bytes)"
        )
    expected = factory.build(sequence)
    xored = np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(
        expected, dtype=np.uint8
    )
    # Unpack only the damaged bytes: their set bits, in frame order.
    damaged = np.flatnonzero(xored)
    rows, bits = np.nonzero(np.unpackbits(xored[damaged]).reshape(-1, 8))
    bit_positions = damaged[rows] * 8 + bits

    lo, hi = np.searchsorted(bit_positions, (BODY_START * 8, BODY_END * 8))
    return ErrorSyndrome(
        sequence=sequence,
        body_bit_positions=bit_positions[lo:hi] - BODY_START * 8,
        wrapper_bit_positions=np.concatenate(
            (bit_positions[:lo], bit_positions[hi:])
        ),
    )
