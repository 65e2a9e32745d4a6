"""Statistical equivalence of the fast trial and its per-packet oracle.

``run_fast_trial`` runs the vectorized ``_run_bulk`` path;
``run_per_packet_trial`` (``tests/trace/per_packet_oracle.py``) keeps
the scalar reference loop it replaced.  Both must sample the same
calibrated impairment model — the error statistics must agree within
sampling noise.  (Equivalence with *active* interference sources is
covered by ``tests/trace/test_bulk_interference.py``.)  The paths
consume their RNG streams differently, so the comparison is
distributional, not byte-wise: rates are checked within a few standard
errors deep in the paper's error region (level 6.5, where misses,
truncations, and body damage all occur at measurable rates).
"""

import math

from repro.analysis.classify import PacketClass, classify_trace
from repro.trace.trial import TrialConfig, run_fast_trial
from tests.trace.per_packet_oracle import run_per_packet_trial

PACKETS = 6_000
MEAN_LEVEL = 6.5


def _rates(seed: int, per_packet: bool) -> dict[str, float]:
    config = TrialConfig(
        name="equiv", packets=PACKETS, mean_level=MEAN_LEVEL, seed=seed
    )
    output = (run_per_packet_trial if per_packet else run_fast_trial)(config)
    classified = classify_trace(output.trace)
    by_class = {
        cls: len(classified.by_class(cls))
        for cls in (
            PacketClass.UNDAMAGED,
            PacketClass.TRUNCATED,
            PacketClass.BODY_DAMAGED,
        )
    }
    return {
        "delivered": output.dispositions.delivered / PACKETS,
        "missed": output.dispositions.missed / PACKETS,
        "truncated": by_class[PacketClass.TRUNCATED] / PACKETS,
        "body_damaged": by_class[PacketClass.BODY_DAMAGED] / PACKETS,
    }


def _sigma(p: float) -> float:
    """Standard error of a proportion estimated from PACKETS samples."""
    p = min(max(p, 1.0 / PACKETS), 1.0 - 1.0 / PACKETS)
    return math.sqrt(p * (1.0 - p) / PACKETS)


class TestPathEquivalence:
    def test_rates_agree_within_sampling_noise(self):
        vectorized = _rates(seed=1234, per_packet=False)
        per_packet = _rates(seed=1234, per_packet=True)
        for key in vectorized:
            # Two independent estimates of the same rate: the difference
            # is bounded by ~sqrt(2) * sigma; 4x leaves comfortable room
            # against flakiness while still catching a miscalibrated
            # path (systematic shifts are many sigma at n=6000).
            tolerance = 4.0 * math.sqrt(2.0) * _sigma(vectorized[key])
            assert abs(vectorized[key] - per_packet[key]) <= tolerance, (
                key,
                vectorized[key],
                per_packet[key],
                tolerance,
            )

    def test_error_region_is_exercised(self):
        """The comparison is only meaningful if the chosen level
        actually produces damage."""
        rates = _rates(seed=1234, per_packet=False)
        assert rates["missed"] > 0.0
        assert rates["truncated"] + rates["body_damaged"] > 0.0
