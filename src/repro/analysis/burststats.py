"""Channel burst characterization from extracted syndromes.

"Information on the frequency and nature of errors is needed to select
the method of dealing with the problem ... the most appropriate
solution depends in part on the nature of the error patterns"
(Section 1).  This module turns a classified trace's syndromes into
the statistics an FEC designer needs:

* burst-length and burst-gap distributions;
* a fitted :class:`~repro.phy.gilbert.GilbertElliott` process with the
  same mean burst length and mean BER — closing the loop between the
  measured channel and the burst-ablation model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.classify import ClassifiedTrace, PacketClass
from repro.framing.testpacket import BODY_BITS
from repro.phy.gilbert import GilbertElliott

BURST_GAP_BITS = 32  # bits of clean channel that end a burst

# The test packets that carry a whole body (truncated ones do not).
SYNDROME_CLASSES = (
    PacketClass.UNDAMAGED,
    PacketClass.WRAPPER_DAMAGED,
    PacketClass.BODY_DAMAGED,
)


@dataclass
class BurstStatistics:
    """Burst structure of one trial's body-bit errors."""

    packets_analyzed: int
    packets_with_errors: int
    total_error_bits: int
    total_body_bits: int
    burst_lengths: list[int] = field(default_factory=list)
    burst_sizes: list[int] = field(default_factory=list)  # errors per burst

    @property
    def mean_ber(self) -> float:
        if self.total_body_bits == 0:
            return 0.0
        return self.total_error_bits / self.total_body_bits

    @property
    def burst_count(self) -> int:
        return len(self.burst_lengths)

    @property
    def mean_burst_span_bits(self) -> float:
        """Mean first-to-last span of a burst."""
        if not self.burst_lengths:
            return 0.0
        return float(np.mean(self.burst_lengths))

    @property
    def mean_burst_errors(self) -> float:
        if not self.burst_sizes:
            return 0.0
        return float(np.mean(self.burst_sizes))

    @property
    def burstiness_ratio(self) -> float:
        """Mean errors per burst; 1.0 means the channel is effectively
        i.i.d. (every error is its own burst), larger means bursty."""
        return self.mean_burst_errors if self.burst_sizes else 1.0

    def fitted_gilbert_elliott(self, bad_ber: float = 0.25) -> GilbertElliott:
        """A Gilbert–Elliott process matching the measured statistics."""
        mean_burst = max(1.0, self.mean_burst_span_bits)
        mean_ber = max(1e-12, self.mean_ber)
        return GilbertElliott.calibrated_to_syndromes(
            mean_burst_bits=mean_burst, mean_ber=mean_ber, bad_ber=bad_ber
        )


def burst_statistics(
    classified: ClassifiedTrace, max_gap_bits: int = BURST_GAP_BITS
) -> BurstStatistics:
    """Extract burst structure from a classified trace's body syndromes.

    Truncated packets contribute no syndrome (their damage is
    positionally ambiguous, per the paper's methodology); undamaged
    packets contribute clean body bits to the denominator.
    """
    analyzed = classified.rows(*SYNDROME_CLASSES)
    stats = BurstStatistics(
        packets_analyzed=len(analyzed),
        packets_with_errors=0,
        total_error_bits=0,
        total_body_bits=len(analyzed) * BODY_BITS,
    )
    for syndrome in classified.syndromes_of(*SYNDROME_CLASSES):
        if syndrome.body_bits_damaged == 0:
            continue
        stats.packets_with_errors += 1
        stats.total_error_bits += syndrome.body_bits_damaged
        for start, end in syndrome.burst_spans(max_gap_bits=max_gap_bits):
            stats.burst_lengths.append(end - start + 1)
        # Count errors per burst.
        positions = np.sort(syndrome.body_bit_positions)
        current = 1
        for gap in np.diff(positions):
            if gap > max_gap_bits:
                stats.burst_sizes.append(current)
                current = 1
            else:
                current += 1
        stats.burst_sizes.append(current)
    return stats
