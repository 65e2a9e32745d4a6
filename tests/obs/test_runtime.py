"""Lifecycle of the process-wide observability state."""

from __future__ import annotations

from repro import obs
from repro.obs import runtime
from repro.obs.metrics import NULL_COUNTER
from repro.obs.spans import NULL_TRACE_SPAN


class TestDefaults:
    def test_disabled_by_default(self):
        assert runtime.STATE.enabled is False
        assert runtime.STATE.rng_accounting is False
        assert runtime.STATE.spans is None
        assert runtime.STATE.tracer is None
        assert runtime.STATE.sink is None
        assert runtime.STATE.metrics.enabled is False

    def test_disabled_helpers_are_noops(self):
        assert obs.metrics().counter("x") is NULL_COUNTER
        assert obs.trace_span("trace.trial") is NULL_TRACE_SPAN


class TestConfigure:
    def test_mutates_state_in_place(self):
        before = runtime.STATE
        state = obs.configure()
        assert state is before  # modules may cache the STATE reference
        assert state.enabled is True
        assert state.rng_accounting is True
        assert state.metrics.enabled is True
        assert state.spans is not None

    def test_flags_respected(self):
        state = obs.configure(rng_accounting=False)
        assert state.enabled is True
        assert state.rng_accounting is False
        # perfbench/serve_child.py's exact call: ``profiling`` is still
        # accepted (and ignored), spans stay off, metrics stay on.
        state = obs.configure(telemetry_path=None, profiling=False, spans=False)
        assert state.enabled is True
        assert state.metrics.enabled is True
        assert state.spans is None
        assert state.sink is None
        assert obs.trace_span("trace.trial") is NULL_TRACE_SPAN

    def test_telemetry_path_opens_sink_and_tracer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        state = obs.configure(telemetry_path=str(path))
        assert state.sink is not None
        assert state.tracer is not None
        assert state.tracer.sink is state.sink
        assert path.exists()  # header written eagerly

    def test_reconfigure_closes_previous_sink(self, tmp_path):
        first = obs.configure(telemetry_path=str(tmp_path / "a.jsonl"))
        first_sink = first.sink
        obs.configure(telemetry_path=str(tmp_path / "b.jsonl"))
        assert first_sink._stream is None  # closed

    def test_reset_restores_defaults(self):
        obs.configure()
        obs.reset()
        assert runtime.STATE.enabled is False
        assert runtime.STATE.metrics.enabled is False


class TestSession:
    def test_session_scopes_enablement(self):
        with obs.session() as state:
            assert state.enabled
            state.metrics.counter("x").inc()
        assert runtime.STATE.enabled is False

    def test_session_closes_sink_on_exit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path)) as state:
            sink = state.sink
            sink.emit({"type": "event", "name": "a"})
        assert sink._stream is None
        header, records = obs.read_telemetry(path)
        assert len(records) == 1


class TestEnsureMetrics:
    def test_creates_temporary_session_when_idle(self):
        with obs.ensure_metrics() as state:
            assert state.enabled
        assert runtime.STATE.enabled is False

    def test_reuses_active_session(self, tmp_path):
        with obs.session(telemetry_path=str(tmp_path / "run.jsonl")) as outer:
            with obs.ensure_metrics() as inner:
                assert inner is outer
                assert inner.sink is outer.sink
            # The outer session survives the nested ensure_metrics.
            assert runtime.STATE.enabled is True
            assert runtime.STATE.sink is outer.sink


class TestSpanHelper:
    def test_span_times_when_enabled(self):
        with obs.session() as state:
            with obs.trace_span("trace.trial", mode="fast"):
                pass
            (record,) = state.spans.finished
            assert record["name"] == "trace.trial"
            assert record["attrs"] == {"mode": "fast"}
            assert record["wall_s"] >= 0.0
