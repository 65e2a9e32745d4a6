"""Offline trace analysis — the paper's core methodological contribution.

Given a :class:`~repro.trace.columnar.ColumnarTrace` (raw received
bytes + modem status per packet, CRC filtering disabled), this package:

1. heuristically decides which received packets belong to the test
   series, and recovers each one's sequence number even in the face of
   substantial corruption (:mod:`~repro.analysis.matching`);
2. classifies each test packet as undamaged / truncated / wrapper
   damaged / body damaged, and everything unmatched as an "outsider"
   (:mod:`~repro.analysis.classify`);
3. extracts estimated error syndromes (bit corruption patterns) for
   damaged-but-not-truncated packets (:mod:`~repro.analysis.syndrome`);
4. computes the Table-1 metrics — packet loss, truncations, bits
   received, wrapper damage, body bits damaged, worst body
   (:mod:`~repro.analysis.metrics`);
5. summarizes the signal metrics per packet class the way the paper's
   tables do: min, mean, (sd), max (:mod:`~repro.analysis.signalstats`);
6. renders paper-style ASCII tables (:mod:`~repro.analysis.tables`).

Everything here consumes only what the modified driver logged; the
simulator's ground truth is never used (the test suite *checks* the
pipeline against ground truth, which is a luxury the paper's authors
did not have).
"""

from repro.analysis.burststats import BurstStatistics, burst_statistics
from repro.analysis.classify import ClassifiedPacket, PacketClass, classify_trace
from repro.analysis.matching import MatchOutcome, MatchResult
from repro.analysis.metrics import TrialMetrics, analyze_trial
from repro.analysis.signalstats import SignalStats, signal_stats_by_class
from repro.analysis.syndrome import ErrorSyndrome, extract_syndrome
from repro.analysis.tables import render_metrics_table, render_signal_table

__all__ = [
    "BurstStatistics",
    "ClassifiedPacket",
    "ErrorSyndrome",
    "MatchOutcome",
    "MatchResult",
    "PacketClass",
    "SignalStats",
    "TrialMetrics",
    "analyze_trial",
    "burst_statistics",
    "classify_trace",
    "extract_syndrome",
    "render_metrics_table",
    "render_signal_table",
    "signal_stats_by_class",
]
