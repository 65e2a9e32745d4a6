"""The ``stats`` subcommand: telemetry summarization and rendering."""

from __future__ import annotations

import pytest

from repro.obs.events import JsonlTelemetrySink
from repro.obs.stats import main, render_summary, summarize_telemetry


@pytest.fixture
def telemetry_file(tmp_path):
    path = tmp_path / "run.jsonl"
    with JsonlTelemetrySink(path) as sink:
        sink.emit({"type": "span", "trace": "t", "span": "a", "parent": None,
                   "name": "engine.table2", "pid": 1, "start_unix": 0.0,
                   "attrs": {"kind": "experiment", "seed": 1996,
                             "scale": 0.05, "jobs": 1},
                   "wall_s": 1.25, "cpu_s": 1.0, "rss_delta_kb": 0,
                   "peak_rss_kb": 4096,
                   "counters": {"sim.events_fired": 3,
                                "trace.packets_offered": 500},
                   "status": "ok"})
        sink.emit({"type": "metrics",
                   "metrics": {"counters": {"phy.missed": 2, "zeroed": 0,
                                            "sim.events_fired": 3,
                                            "trace.packets_offered": 500}}})
    return path


class TestSummarize:
    def test_aggregates_events(self, tmp_path):
        """Events fired are read off span counters.  A file from an
        older writer may still hold per-event ``event`` records: they
        count as records and add no events."""
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            for name in ("mac.poll", "mac.poll", "tx.end"):
                sink.emit({"type": "event", "name": name, "dur_us": 50.0})
            sink.emit({"type": "span", "span": "a", "parent": None,
                       "name": "engine.mac", "start_unix": 0.0,
                       "attrs": {"kind": "experiment"}, "wall_s": 0.5,
                       "peak_rss_kb": 0,
                       "counters": {"sim.events_fired": 3}})
        summary = summarize_telemetry(path)
        assert summary.record_count == 4
        assert summary.span_count == 1
        assert summary.experiment_rows() == [("mac", 3, 0)]
        assert not hasattr(summary, "event_count")

    def test_collects_experiment_spans_and_metrics(self, telemetry_file):
        summary = summarize_telemetry(telemetry_file)
        assert summary.record_count == 2
        assert summary.experiment_rows() == [("table2", 3, 500)]
        assert summary.span_wall_s == pytest.approx(1.25)  # root span
        assert summary.peak_rss_kb == 4096
        assert summary.final_metrics["counters"]["phy.missed"] == 2

    def test_only_experiment_spans_are_rows(self, tmp_path):
        """Task, layer and nested spans carry counters too; only
        ``kind="experiment"`` spans are rows, nested ones included."""
        path = tmp_path / "run.jsonl"

        def span(name, span_id, parent, kind, start, packets):
            return {"type": "span", "span": span_id, "parent": parent,
                    "name": name, "start_unix": start,
                    "attrs": {"kind": kind} if kind else {},
                    "wall_s": 0.5, "peak_rss_kb": 0,
                    "counters": {"trace.packets_offered": packets}}

        with JsonlTelemetrySink(path) as sink:
            sink.emit(span("engine.table5", "c", "b", "experiment", 2.0, 40))
            sink.emit(span("Tx5", "b", "a", "task", 1.5, 40))
            sink.emit(span("trace.trial", "d", "b", None, 1.6, 40))
            sink.emit(span("engine.fec", "a", None, "experiment", 1.0, 40))
        summary = summarize_telemetry(path)
        # In start order: the outer run first, its nested harvest next.
        assert summary.experiment_rows() == [("fec", 0, 40), ("table5", 0, 40)]


class TestRender:
    def test_mentions_headline_numbers(self, telemetry_file):
        text = render_summary(summarize_telemetry(telemetry_file))
        assert "table2" in text
        assert "wall=1.25s events=3 packets=500 seed=1996 scale=0.05" in text
        assert "1.25s wall-clock, 3 events fired, 500 packets offered" in text
        assert "records: 2 (spans 1)" in text
        assert "phy.missed" in text
        # zero-valued counters are suppressed in the final section
        assert "zeroed" not in text


class TestMain:
    def test_prints_summary_and_returns_zero(self, telemetry_file, capsys):
        assert main(str(telemetry_file)) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out

    def test_refuses_non_telemetry_file(self, tmp_path):
        path = tmp_path / "not-telemetry.jsonl"
        path.write_text('{"kind": "something-else", "format": 1}\n')
        with pytest.raises(ValueError):
            main(str(path))
