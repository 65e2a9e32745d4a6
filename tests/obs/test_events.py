"""Telemetry sink round-trips and what a simulator writes to it."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.events import (
    JsonlTelemetrySink,
    TELEMETRY_FORMAT,
    TELEMETRY_KIND,
    git_revision,
    iter_telemetry,
    read_telemetry,
    read_telemetry_header,
)
from repro.simkit.simulator import Simulator


class TestSinkRoundTrip:
    def test_header_then_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "event", "name": "a"})
            sink.emit({"type": "span", "name": "t"})
            assert sink.records_written == 2
        header, records = read_telemetry(path)
        assert header["kind"] == TELEMETRY_KIND
        assert header["format"] == TELEMETRY_FORMAT
        assert [r["type"] for r in records] == ["event", "span"]

    def test_gzip_by_suffix(self, tmp_path):
        path = tmp_path / "run.jsonl.gz"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "event", "name": "a"})
        with open(path, "rb") as raw:
            assert raw.read(2) == b"\x1f\x8b"  # gzip magic
        _, records = read_telemetry(path)
        assert records[0]["name"] == "a"

    def test_aborted_run_leaves_valid_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTelemetrySink(path)
        sink.close()  # no records ever emitted
        header, records = read_telemetry(path)
        assert header["kind"] == TELEMETRY_KIND
        assert records == []

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTelemetrySink(tmp_path / "run.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"type": "event"})

    def test_iter_telemetry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "event", "name": "x"})
        assert [r["name"] for r in iter_telemetry(path)] == ["x"]


class TestReaderValidation:
    def test_rejects_foreign_kind(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"format": 1, "kind": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a telemetry file"):
            read_telemetry(path)

    def test_rejects_future_format(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": TELEMETRY_FORMAT + 1,
                        "kind": TELEMETRY_KIND}) + "\n"
        )
        with pytest.raises(ValueError, match="format"):
            read_telemetry(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_telemetry(path)


class TestSimulatorTracing:
    def test_simulator_counts_events_without_records(self, tmp_path):
        """A fired event is one counter increment: the telemetry holds
        no per-event record, only the span's counter delta."""
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path)):
            with obs.trace_span("sim.run"):
                sim = Simulator(seed=1)
                sim.schedule(1.0, lambda: None, name="tick")
                sim.schedule(2.0, lambda: None, name="tock")
                sim.run()
        _, records = read_telemetry(path)
        (span,) = records
        assert span["type"] == "span"
        assert span["counters"] == {"sim.events_fired": 2}

    def test_counter_handle_is_taken_when_built(self):
        """A simulator built outside a session holds the no-op counter,
        even when it runs inside one."""
        idle = Simulator(seed=1)
        with obs.session() as state:
            idle.schedule(1.0, lambda: None)
            idle.run()
            assert idle.events_fired == 1
            assert state.metrics.counters_snapshot() == {}

    def test_simulator_metrics_when_enabled(self):
        with obs.session() as state:
            sim = Simulator(seed=1)
            sim.schedule(1.0, lambda: None, name="tick")
            sim.run()
            counters = state.metrics.counters_snapshot()
        assert counters["sim.events_fired"] == 1


class TestGitRevision:
    def test_returns_short_hash_in_this_repo(self):
        rev = git_revision()
        # This test runs inside the repository, so a hash is expected;
        # tolerate None for source exports without .git.
        if rev is not None:
            assert 6 <= len(rev) <= 16
            int(rev, 16)  # hex

    def test_header_records_revision_once_per_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTelemetrySink(path) as sink:
            sink.emit({"type": "event", "name": "a"})
        assert read_telemetry_header(path)["git_rev"] == git_revision()
        _, records = read_telemetry(path)
        assert all("git_rev" not in record for record in records)
