"""The process-wide observability state and its lifecycle.

Instrumented modules consult one module-level :data:`STATE` object.  By
default it is *disabled*: ``STATE.enabled`` is ``False``,
``STATE.metrics`` is a registry that hands out no-op instruments and
``STATE.spans`` is ``None``.  Hot paths therefore pay at most one
attribute load and a branch per instrumentation point::

    from repro.obs import runtime as _obs
    ...
    state = _obs.STATE
    if state.enabled:
        state.metrics.counter("phy.missed").inc()

The CLI (``--telemetry`` / ``--metrics``) and tests turn instrumentation
on with :func:`configure` or the :func:`session` context manager, and
restore the disabled default with :func:`reset`.  The state object is
deliberately mutated in place (never replaced) so modules may cache a
reference to ``STATE`` itself — but must not cache its attributes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import EventTracer, JsonlTelemetrySink
from repro.obs.metrics import Metrics
from repro.obs.spans import NULL_TRACE_SPAN, SpanRecorder, derive_trace_id


class ObsState:
    """Mutable holder of the active observability session."""

    __slots__ = ("metrics", "tracer", "sink", "enabled", "rng_accounting",
                 "spans")

    def __init__(self) -> None:
        self.metrics = Metrics(enabled=False)
        self.tracer: Optional[EventTracer] = None
        self.sink: Optional[JsonlTelemetrySink] = None
        self.enabled = False
        self.rng_accounting = False
        self.spans: Optional[SpanRecorder] = None


STATE = ObsState()


def configure(
    *,
    telemetry_path: Optional[str] = None,
    profiling: bool = True,
    rng_accounting: bool = True,
    trace_sample_every: int = 1,
    spans: bool = True,
    trace_label: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> ObsState:
    """Enable instrumentation process-wide.

    ``telemetry_path`` additionally opens a JSONL sink and attaches an
    event tracer that simulators created *after* this call pick up.
    ``spans`` (default on) attaches a :class:`SpanRecorder` whose trace
    id derives from ``trace_label`` (or is taken verbatim from
    ``trace_id`` — how pool workers join the parent's trace).
    Returns :data:`STATE` (mutated in place).

    ``profiling`` is accepted and ignored, only because
    ``perfbench/serve_child.py`` passes ``profiling=False``; time is
    attributed by trace spans alone.
    """
    reset()
    STATE.metrics = Metrics(enabled=True)
    STATE.enabled = True
    STATE.rng_accounting = rng_accounting
    if telemetry_path is not None:
        STATE.sink = JsonlTelemetrySink(telemetry_path)
        STATE.tracer = EventTracer(STATE.sink, sample_every=trace_sample_every)
    if spans:
        STATE.spans = SpanRecorder(
            sink=STATE.sink,
            trace_id=(
                trace_id
                if trace_id is not None
                else derive_trace_id(trace_label or "session")
            ),
        )
    return STATE


def detach_inherited_session() -> None:
    """Disable a session inherited through ``fork`` without closing it.

    A forked worker process shares the parent's telemetry sink object
    (and its buffered, not-yet-flushed bytes).  Closing it from the
    child would flush that buffer a second time into the shared file
    descriptor, corrupting the parent's telemetry.  Workers therefore
    *detach* — null the references and restore disabled defaults — and
    then configure their own session (see :mod:`repro.parallel`).
    """
    STATE.metrics = Metrics(enabled=False)
    STATE.tracer = None
    STATE.sink = None
    STATE.enabled = False
    STATE.rng_accounting = False
    STATE.spans = None


def reset() -> None:
    """Close any sink and restore the disabled defaults."""
    if STATE.sink is not None:
        STATE.sink.close()
    STATE.metrics = Metrics(enabled=False)
    STATE.tracer = None
    STATE.sink = None
    STATE.enabled = False
    STATE.rng_accounting = False
    STATE.spans = None


@contextmanager
def session(**kwargs) -> Iterator[ObsState]:
    """``configure(**kwargs)`` for the duration of a with-block."""
    state = configure(**kwargs)
    try:
        yield state
    finally:
        reset()


@contextmanager
def ensure_metrics() -> Iterator[ObsState]:
    """Yield an enabled state, reusing an active session if one exists.

    Used by callers (the report builder) that want metrics regardless of
    whether the CLI already opened a session; only tears down what it
    set up.
    """
    if STATE.enabled:
        yield STATE
        return
    configure(telemetry_path=None)
    try:
        yield STATE
    finally:
        reset()


def metrics() -> Metrics:
    """The active metrics registry (a null registry when disabled)."""
    return STATE.metrics


def trace_span(name: str, **attrs):
    """Open a hierarchical trace span on the active recorder.

    No-op (a shared null context manager) when no session is active —
    one attribute load plus a branch, same cost discipline as the
    metric hooks.  Records one tree node per call: trace/span/parent
    ids, wall/CPU time, RSS delta, and the given attributes.  A span
    costs tens of microseconds, so spans sit at layer boundaries (a
    trial, a batch decode, a task), never on per-packet paths.
    """
    recorder = STATE.spans
    if recorder is None:
        return NULL_TRACE_SPAN
    return recorder.span(name, **attrs)
