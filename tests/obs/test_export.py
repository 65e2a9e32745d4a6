"""Trace exporters: Perfetto JSON validity, waterfall, heartbeat tail."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.events import JsonlTelemetrySink
from repro.obs.export import (
    follow_heartbeats,
    load_run_records,
    render_waterfall,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import SpanRecorder, derive_trace_id
from repro.parallel.runner import Task, run_tasks
from tests.obs.sinks import ListSink


def _spin(seed: int) -> int:
    return seed * 2


def _traced_records() -> list[dict]:
    records = ListSink()
    recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
    with recorder.span("root", scale=0.5):
        with recorder.span("child"):
            pass
    return records


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        doc = to_chrome_trace(_traced_records())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {"root", "child"}
        for event in spans:
            assert event["ts"] >= 0.0  # normalized to trace start
            assert event["dur"] >= 0.0
            assert event["pid"] == event["tid"] > 0
        child = next(e for e in spans if e["name"] == "child")
        root = next(e for e in spans if e["name"] == "root")
        assert child["args"]["parent"] == root["args"]["span"]

    def test_metadata_names_each_process(self):
        doc = to_chrome_trace(_traced_records())
        metas = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert len(metas) == 1
        assert metas[0]["name"] == "process_name"

    def test_heartbeats_become_counters(self):
        records = _traced_records() + [
            {"type": "heartbeat", "unix": 0.0, "done": 1, "total": 4,
             "packets_per_s": 123.0},
        ]
        doc = to_chrome_trace(records)
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters[0]["args"]["packets_per_s"] == 123.0

    def test_written_file_is_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(_traced_records(), out)
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc

    def test_empty_records_export_cleanly(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace([], out)
        assert json.loads(out.read_text())["traceEvents"] == []


class TestWaterfall:
    def test_tree_is_indented_with_timings(self):
        text = render_waterfall(_traced_records())
        lines = text.splitlines()
        assert "2 spans" in lines[0]
        root_line = next(line for line in lines if "root" in line)
        child_line = next(line for line in lines if "child" in line)
        assert child_line.startswith("  ")
        assert not root_line.startswith(" ")
        assert "s" in root_line and "|" in root_line

    def test_no_spans_message(self):
        assert "no spans" in render_waterfall([])

    def test_error_span_flagged(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError
        assert "[ERROR]" in render_waterfall(records)


class TestRunRecords:
    def test_load_folds_parent_and_shards(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="t"):
            run_tasks(
                [Task(f"t{i}", _spin, {"seed": i}) for i in range(3)],
                jobs=2, label="fan",
            )
        records = load_run_records(path)
        spans = [r for r in records if r.get("type") == "span"]
        # run_tasks span in the parent + one task span per shard record
        assert {r["name"] for r in spans} == {
            "parallel.run_tasks", "t0", "t1", "t2"
        }


class TestFollow:
    def test_rejects_gzip(self, tmp_path):
        with pytest.raises(ValueError, match="gzip"):
            follow_heartbeats(tmp_path / "run.jsonl.gz")

    def test_prints_heartbeats_until_final_metrics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "heartbeat", "label": "fan", "done": 1,
                       "total": 2, "packets_per_s": 10.0, "rss_kb": 1024})
            sink.emit({"type": "heartbeat", "label": "fan", "done": 2,
                       "total": 2, "packets_per_s": 11.0, "rss_kb": 1024})
            sink.emit({"type": "metrics", "metrics": {}})
        printed: list[str] = []
        code = follow_heartbeats(path, poll_s=0.01, _print=printed.append)
        assert code == 0
        assert len(printed) == 2
        assert "1/2" in printed[0] and "2/2" in printed[1]

    def test_idle_timeout_returns(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "event", "name": "a"})
        code = follow_heartbeats(path, poll_s=0.01, idle_timeout_s=0.05)
        assert code == 0
