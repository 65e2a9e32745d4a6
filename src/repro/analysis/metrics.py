"""Trial metrics: the columns of the paper's Table 1.

| Column            | Meaning                                               |
|-------------------|-------------------------------------------------------|
| Packets Received  | Test packets received                                 |
| Packet Loss       | Percentage of transmitted test packets that were lost |
| Packets Truncated | Number of received test packets which were truncated  |
| Bits Received     | Number of *body* bits received, rounded down          |
| Wrapper Damaged   | Number of packets with damaged headers or trailers    |
| Body Bits         | Total number of body bits damaged in trial            |
| Worst Body        | Number of bits damaged in most-corrupted packet body  |
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.classify import (
    CLASS_CODE,
    ClassifiedTrace,
    PacketClass,
    classify_trace,
)
from repro.framing.testpacket import BODY_BITS, BODY_START
from repro.trace.columnar import ColumnarTrace


@dataclass
class TrialMetrics:
    """The Table-1 row for one trial."""

    name: str
    packets_sent: int
    packets_received: int
    packets_truncated: int
    body_bits_received: int
    wrapper_damaged: int
    body_damaged_packets: int
    body_bits_damaged: int
    worst_body_bits: Optional[int]
    outsiders_received: int

    @property
    def packets_lost(self) -> int:
        return max(0, self.packets_sent - self.packets_received)

    @property
    def packet_loss_fraction(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent

    @property
    def packet_loss_percent(self) -> float:
        return 100.0 * self.packet_loss_fraction

    @property
    def bit_error_rate(self) -> float:
        """Estimated body BER: damaged body bits / received body bits.

        The paper stresses these "are necessarily only estimates":
        truncated bodies contribute received bits but no syndrome.
        """
        if self.body_bits_received == 0:
            return 0.0
        return self.body_bits_damaged / self.body_bits_received

    @property
    def bits_received_magnitude(self) -> str:
        """The paper renders bits received as a power of ten (e.g. 10^9)."""
        if self.body_bits_received <= 0:
            return "0"
        exponent = int(math.floor(math.log10(self.body_bits_received)))
        mantissa = self.body_bits_received / 10**exponent
        if mantissa < 1.5:
            return f"10^{exponent}"
        return f"{mantissa:.0f}x10^{exponent}"


def metrics_from_classified(classified: ClassifiedTrace) -> TrialMetrics:
    """Fold a classified trace into its Table-1 row (from its columns)."""
    trace = classified.trace
    columns = classified.columns
    test_rows = classified.test_rows
    truncated = classified.rows(PacketClass.TRUNCATED)
    body_damaged = classified.rows(PacketClass.BODY_DAMAGED)

    wrapper_code = CLASS_CODE[PacketClass.WRAPPER_DAMAGED]
    wrapper_damaged_count = int(np.count_nonzero(
        columns["wrapper_damaged"][test_rows]
        | (classified.class_codes[test_rows] == wrapper_code)
    ))
    # Truncated bodies count the body bytes that arrived; every other
    # test packet carries a whole body.
    received_body_bytes = trace.lengths[truncated].astype(np.int64) - BODY_START
    body_bits_received = (len(test_rows) - len(truncated)) * BODY_BITS + 8 * int(
        np.maximum(received_body_bytes, 0).sum()
    )
    body_bits = columns["body_bits_damaged"]
    worst = int(body_bits[body_damaged].max()) if len(body_damaged) else None

    return TrialMetrics(
        name=trace.name,
        packets_sent=trace.packets_sent,
        packets_received=len(test_rows),
        packets_truncated=len(truncated),
        body_bits_received=body_bits_received,
        wrapper_damaged=wrapper_damaged_count,
        body_damaged_packets=len(body_damaged),
        body_bits_damaged=int(body_bits[test_rows].sum()),
        worst_body_bits=worst,
        outsiders_received=len(classified.class_codes) - len(test_rows),
    )


def analyze_trial(trace: ColumnarTrace) -> TrialMetrics:
    """Classify and summarize a trial in one call."""
    return metrics_from_classified(classify_trace(trace))
