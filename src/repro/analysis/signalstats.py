"""Signal-metric summaries per packet class.

"When we present signal level, silence level, and signal quality, we
give the minimum observation, mean, standard deviation (in
parentheses), and maximum observation" (Section 4).  These are the
↓ / μ / (σ) / ↑ columns of Tables 3, 4, 6-10, 12-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.classify import ClassifiedTrace, PacketClass
from repro.trace.columnar import ColumnarTrace


@dataclass
class MetricSummary:
    """min / mean / sd / max of one signal metric over a packet group."""

    minimum: int
    mean: float
    sd: float
    maximum: int
    count: int

    def formatted(self) -> str:
        return f"{self.minimum} {self.mean:.2f} ({self.sd:.2f}) {self.maximum}"


def summarize(values: Sequence[int]) -> Optional[MetricSummary]:
    """Summary statistics over raw register values (None when empty).

    ``values`` is a register column or a list of ints.  Σv and Σv² are
    exact int64 sums, so the mean is ``Σv / n`` rounded once and the
    population deviation is ``sqrt((n·Σv² − (Σv)²) / n²)`` from exact
    integers, the same on every Python version.
    """
    n = len(values)
    if n == 0:
        return None
    column = np.asarray(values, dtype=np.int64)
    total = int(column.sum())
    squares = int(np.dot(column, column))
    return MetricSummary(
        minimum=int(column.min()),
        mean=total / n,
        sd=math.sqrt((n * squares - total * total) / (n * n)),
        maximum=int(column.max()),
        count=n,
    )


@dataclass
class SignalStats:
    """Level / silence / quality summaries for one packet group."""

    group: str
    packets: int
    level: Optional[MetricSummary]
    silence: Optional[MetricSummary]
    quality: Optional[MetricSummary]


def stats_for_rows(group: str, trace: ColumnarTrace, rows: np.ndarray) -> SignalStats:
    """The three metric summaries over ``rows`` of a trace's registers."""
    return SignalStats(
        group=group,
        packets=len(rows),
        level=summarize(trace.levels[rows]),
        silence=summarize(trace.silences[rows]),
        quality=summarize(trace.qualities[rows]),
    )


def stats_for_test_packets(group: str, classified: ClassifiedTrace) -> SignalStats:
    """The three metric summaries over a classified trace's test packets."""
    return stats_for_rows(group, classified.trace, classified.test_rows)


# The standard grouping used by Table 3 (and echoed by Tables 7, 9, 13).
STANDARD_GROUPS: list[tuple[str, tuple[PacketClass, ...]]] = [
    (
        "All test packets",
        (
            PacketClass.UNDAMAGED,
            PacketClass.TRUNCATED,
            PacketClass.WRAPPER_DAMAGED,
            PacketClass.BODY_DAMAGED,
        ),
    ),
    ("Undamaged", (PacketClass.UNDAMAGED,)),
    ("Truncated", (PacketClass.TRUNCATED,)),
    ("Wrapper damaged", (PacketClass.WRAPPER_DAMAGED,)),
    ("Body damaged", (PacketClass.BODY_DAMAGED,)),
    ("Undamaged outsiders", (PacketClass.OUTSIDER_UNDAMAGED,)),
    ("Damaged outsiders", (PacketClass.OUTSIDER_DAMAGED,)),
]


def signal_stats_by_class(
    classified: ClassifiedTrace,
    groups: Sequence[tuple[str, tuple[PacketClass, ...]]] = STANDARD_GROUPS,
    include_empty: bool = False,
) -> list[SignalStats]:
    """Per-class signal summaries in the paper's standard grouping."""
    rows = []
    for name, classes in groups:
        stats = stats_for_rows(name, classified.trace, classified.rows(*classes))
        if stats.packets > 0 or include_empty:
            rows.append(stats)
    return rows
