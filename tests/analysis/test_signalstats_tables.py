"""Signal statistics summaries and table rendering."""

import numpy as np
import pytest

from repro.analysis.classify import CLASS_CODE, ClassifiedTrace, PacketClass
from repro.analysis.metrics import TrialMetrics
from repro.analysis.signalstats import (
    signal_stats_by_class,
    stats_for_rows,
    summarize,
)
from repro.analysis.tables import (
    format_loss_percent,
    render_comparison,
    render_metrics_table,
    render_signal_table,
)
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord


def _classified(spec, *rows) -> ClassifiedTrace:
    """A classified trace of ``(level, silence, quality, class)`` rows."""
    records = [
        PacketRecord.from_bytes(b"x", ModemRxStatus(level, silence, quality, 0))
        for level, silence, quality, _ in rows
    ]
    n = len(rows)
    return ClassifiedTrace(
        trace=ColumnarTrace.from_records(records, "t", spec, n),
        columns={
            "class_codes": np.array(
                [CLASS_CODE[cls] for *_, cls in rows], dtype=np.uint8
            ),
            "sequences": np.full(n, -1, dtype=np.int64),
            "wrapper_damaged": np.zeros(n, dtype=bool),
            "body_bits_damaged": np.zeros(n, dtype=np.int64),
            "truncated_missing": np.zeros(n, dtype=np.int32),
        },
    )


class TestSummarize:
    def test_empty_is_none(self):
        assert summarize([]) is None

    def test_single_value(self):
        s = summarize([7])
        assert (s.minimum, s.maximum, s.mean, s.sd) == (7, 7, 7.0, 0.0)

    def test_known_statistics(self):
        s = summarize([2, 4, 6])
        assert s.mean == pytest.approx(4.0)
        assert s.sd == pytest.approx((8 / 3) ** 0.5)
        assert s.minimum == 2 and s.maximum == 6

    def test_formatted(self):
        assert summarize([2, 4, 6]).formatted().startswith("2 4.00")


class TestGrouping:
    def test_stats_for_rows(self, spec):
        classified = _classified(
            spec,
            (10, 2, 15, PacketClass.UNDAMAGED),
            (99, 9, 9, PacketClass.UNDAMAGED),
            (12, 4, 14, PacketClass.UNDAMAGED),
        )
        stats = stats_for_rows("g", classified.trace, np.array([0, 2]))
        assert stats.packets == 2
        assert stats.level.mean == pytest.approx(11.0)
        assert stats.silence.mean == pytest.approx(3.0)
        assert stats.quality.mean == pytest.approx(14.5)

    def test_standard_groups_drop_empty(self, spec):
        classified = _classified(spec, (29, 3, 15, PacketClass.UNDAMAGED))
        rows = signal_stats_by_class(classified)
        names = [r.group for r in rows]
        assert "All test packets" in names
        assert "Undamaged" in names
        assert "Truncated" not in names  # empty group omitted

    def test_all_test_packets_excludes_outsiders(self, spec):
        classified = _classified(
            spec,
            (29, 3, 15, PacketClass.UNDAMAGED),
            (5, 3, 7, PacketClass.OUTSIDER_DAMAGED),
        )
        rows = {r.group: r for r in signal_stats_by_class(classified)}
        assert rows["All test packets"].packets == 1
        assert rows["Damaged outsiders"].packets == 1


class TestRendering:
    def _metrics(self) -> TrialMetrics:
        return TrialMetrics(
            name="office1",
            packets_sent=102_720,
            packets_received=102_689,
            packets_truncated=1,
            body_bits_received=8 * 10**8,
            wrapper_damaged=0,
            body_damaged_packets=0,
            body_bits_damaged=0,
            worst_body_bits=None,
            outsiders_received=0,
        )

    def test_loss_format_matches_paper_style(self):
        metrics = self._metrics()
        assert format_loss_percent(metrics) == ".03%"
        metrics.packets_received = metrics.packets_sent
        assert format_loss_percent(metrics) == "0%"
        metrics.packets_received = metrics.packets_sent // 2
        assert format_loss_percent(metrics) == "50%"

    def test_metrics_table_contains_row(self):
        table = render_metrics_table([self._metrics()])
        assert "office1" in table
        assert "102689" in table
        assert "8x10^8" in table

    def test_signal_table_renders(self, spec):
        classified = _classified(spec, (10, 2, 15, PacketClass.UNDAMAGED))
        stats = stats_for_rows("All", classified.trace, classified.test_rows)
        table = render_signal_table([stats])
        assert "All" in table
        assert "10.00" in table

    def test_comparison_renderer(self):
        text = render_comparison(
            "Table 2", {"loss": ".03%"}, {"loss": ".04%"}
        )
        assert "paper" in text and ".03%" in text and ".04%" in text
        text = render_comparison("T", {"loss": ".03%"}, {})
        assert "n/a" in text
