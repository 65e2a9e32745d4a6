"""Span trees: deterministic ids, nesting, status, and the helpers."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.events import read_telemetry
from repro.obs.spans import (
    NULL_TRACE_SPAN,
    SpanContext,
    SpanRecorder,
    VOLATILE_SPAN_FIELDS,
    derive_span_id,
    derive_trace_id,
    span_structure,
    span_tree,
)
from tests.obs.sinks import ListSink


class TestDeterministicIds:
    def test_trace_id_pure_function_of_labels(self):
        assert derive_trace_id("report", "1996") == derive_trace_id(
            "report", "1996"
        )
        assert derive_trace_id("report") != derive_trace_id("table2")

    def test_span_id_pure_function_of_path(self):
        trace = derive_trace_id("t")
        first = derive_span_id(trace, None, "work", 0)
        assert first == derive_span_id(trace, None, "work", 0)
        assert first != derive_span_id(trace, None, "work", 1)
        assert first != derive_span_id(trace, first, "work", 0)

    def test_ids_are_16_hex_chars(self):
        assert len(derive_trace_id("x")) == 16
        int(derive_trace_id("x"), 16)  # parses as hex


class TestRecorder:
    def test_nesting_links_parent_ids(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with recorder.span("outer") as outer:
            with recorder.span("inner"):
                pass
        outer_rec, = [r for r in records if r["name"] == "outer"]
        inner_rec, = [r for r in records if r["name"] == "inner"]
        assert inner_rec["parent"] == outer_rec["span"]
        assert outer_rec["parent"] is None
        assert outer is not None

    def test_same_named_siblings_get_distinct_ordinals(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with recorder.span("parent"):
            with recorder.span("child"):
                pass
            with recorder.span("child"):
                pass
        children = [r for r in records if r["name"] == "child"]
        assert len({r["span"] for r in children}) == 2

    def test_rerun_produces_identical_ids(self):
        def run() -> list[dict]:
            records = ListSink()
            recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
            with recorder.span("a"):
                with recorder.span("b"):
                    pass
                with recorder.span("b"):
                    pass
            return records

        assert span_structure(run()) == span_structure(run())

    def test_error_status_and_exception_name(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        record, = records
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_records_carry_cost_fields(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with recorder.span("work", size=3):
            pass
        record, = records
        assert record["wall_s"] >= 0.0
        assert record["cpu_s"] >= 0.0
        assert "rss_delta_kb" in record
        assert record["peak_rss_kb"] >= 0
        assert record["counters"] == {}  # no registry, no counters
        assert record["attrs"]["size"] == 3
        assert record["pid"] > 0

    def test_set_attr_while_live(self):
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with recorder.span("work") as span:
            span.set_attr("rows", 42)
        assert records[0]["attrs"]["rows"] == 42

    def test_adopt_parents_under_remote_span(self):
        remote_trace = derive_trace_id("remote")
        remote_span = derive_span_id(remote_trace, None, "run_tasks", 0)
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("local"))
        with recorder.adopt(SpanContext(remote_trace, remote_span)):
            with recorder.span("task"):
                pass
        record, = records
        assert record["trace"] == remote_trace
        assert record["parent"] == remote_span
        # outside the adoption the local trace id is restored
        assert recorder.trace_id == derive_trace_id("local")

    def test_spans_emit_to_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="t") as state:
            with state.spans.span("work"):
                pass
        _, records = read_telemetry(path)
        spans = [r for r in records if r["type"] == "span"]
        assert [r["name"] for r in spans] == ["work"]


class TestRuntimeHook:
    def test_trace_span_noop_when_disabled(self):
        assert obs.STATE.spans is None
        span = obs.trace_span("anything")
        assert span is NULL_TRACE_SPAN
        with span:  # does nothing, raises nothing
            span.set_attr("k", "v")

    def test_trace_span_records_when_enabled(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="t"):
            with obs.trace_span("work"):
                pass
        _, records = read_telemetry(path)
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["name"] == "work"

    def test_configure_trace_id_verbatim(self):
        with obs.session(trace_id="feedfacedeadbeef") as state:
            assert state.spans.trace_id == "feedfacedeadbeef"

    def test_reset_clears_recorder(self):
        obs.configure()
        assert obs.STATE.spans is not None
        obs.reset()
        assert obs.STATE.spans is None


class TestHelpers:
    def _records(self) -> list[dict]:
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=derive_trace_id("t"))
        with recorder.span("root"):
            with recorder.span("child"):
                pass
        return records

    def test_span_structure_strips_volatiles(self):
        structure = span_structure(self._records())
        assert len(structure) == 2
        flat = " ".join(str(t) for t in structure)
        for field in VOLATILE_SPAN_FIELDS:
            assert field not in flat

    def test_span_tree_roots_and_children(self):
        records = self._records()
        roots, children = span_tree(records)
        assert [r["name"] for r in roots] == ["root"]
        kids = children[roots[0]["span"]]
        assert [r["name"] for r in kids] == ["child"]

    def test_span_tree_orphans_become_roots(self):
        records = self._records()
        child = next(r for r in records if r["name"] == "child")
        roots, _ = span_tree([child])  # parent record absent (other shard)
        assert roots == [child]


class TestCounters:
    def test_counter_deltas_over_each_span(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path)) as state:
            state.metrics.counter("before").inc(5)
            with obs.trace_span("outer"):
                state.metrics.counter("a").inc(2)
                with obs.trace_span("inner"):
                    state.metrics.counter("a").inc()
                    state.metrics.counter("rng.calls", stream="x").inc()
                state.metrics.counter("zero")  # registered, never counted
        _, records = read_telemetry(path)
        inner, outer = [r for r in records if r["type"] == "span"]
        assert inner["counters"] == {"a": 1, "rng.calls{stream=x}": 1}
        assert outer["counters"] == {"a": 3, "rng.calls{stream=x}": 1}

    def test_counters_are_not_volatile_but_peak_rss_is(self):
        assert "counters" not in VOLATILE_SPAN_FIELDS
        assert "peak_rss_kb" in VOLATILE_SPAN_FIELDS


class TestDetached:
    def test_interleaved_spans_parent_explicitly(self):
        trace = derive_trace_id("t")
        records = ListSink()
        recorder = SpanRecorder(sink=records, trace_id=trace)
        root = recorder.detached("serve.run")
        first = recorder.detached("serve.session", parent=root.span_id)
        second = recorder.detached("serve.session", parent=root.span_id)
        with recorder.span("stacked"):  # detached spans never stack
            pass
        first.finish(records=3)
        second.finish("error")
        root.finish(sessions=2)
        by_name: dict[str, list[dict]] = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        (stacked,) = by_name["stacked"]
        assert stacked["parent"] is None
        (run,) = by_name["serve.run"]
        assert run["span"] == derive_span_id(trace, None, "serve.run", 0)
        assert run["attrs"] == {"sessions": 2}
        a, b = by_name["serve.session"]
        assert [a["span"], b["span"]] == [
            derive_span_id(trace, run["span"], "serve.session", index)
            for index in (0, 1)
        ]
        assert a["parent"] == b["parent"] == run["span"]
        assert (a["status"], a["attrs"]) == ("ok", {"records": 3})
        assert b["status"] == "error"
        for record in records:
            assert {"wall_s", "cpu_s", "peak_rss_kb", "counters"} <= set(record)

    def test_null_span_without_recorder(self):
        assert obs.STATE.spans is None
        span = obs.detached_span("serve.run")
        assert span is NULL_TRACE_SPAN
        assert span.span_id is None
        span.finish("error", records=1)  # does nothing, raises nothing
