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

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import JsonlTelemetrySink
from repro.obs.metrics import Metrics
from repro.obs.resources import rss_kb
from repro.obs.spans import NULL_TRACE_SPAN, SpanRecorder, derive_trace_id


class ObsState:
    """Mutable holder of the active observability session."""

    __slots__ = ("metrics", "sink", "enabled", "spans")

    def __init__(self) -> None:
        self.metrics = Metrics(enabled=False)
        self.sink: Optional[JsonlTelemetrySink] = None
        self.enabled = False
        self.spans: Optional[SpanRecorder] = None


STATE = ObsState()


def configure(
    *,
    telemetry_path: Optional[str] = None,
    profiling: bool = True,
    spans: bool = True,
    trace_label: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> ObsState:
    """Enable instrumentation process-wide.

    Metrics are on, and ``telemetry_path`` additionally opens a JSONL
    sink for span, heartbeat and metrics records.  Objects that hold
    counter handles (the simulator, channel, stations, MACs, modems and
    error models) take them from the registry active when they are
    built, so one built before this call counts nothing.
    ``spans`` (default on) attaches a :class:`SpanRecorder` over the
    session's registry, whose trace id derives from ``trace_label`` (or
    is taken verbatim from ``trace_id`` — how pool workers join the
    parent's trace).
    Returns :data:`STATE` (mutated in place).

    ``profiling`` is accepted and ignored, only because
    ``perfbench/serve_child.py`` passes ``profiling=False``; time is
    attributed by trace spans alone.
    """
    reset()
    STATE.metrics = Metrics(enabled=True)
    STATE.enabled = True
    if telemetry_path is not None:
        STATE.sink = JsonlTelemetrySink(telemetry_path)
    if spans:
        STATE.spans = SpanRecorder(
            sink=STATE.sink,
            trace_id=(
                trace_id
                if trace_id is not None
                else derive_trace_id(trace_label or "session")
            ),
            metrics=STATE.metrics,
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
    STATE.sink = None
    STATE.enabled = False
    STATE.spans = None


def reset() -> None:
    """Close any sink and restore the disabled defaults."""
    if STATE.sink is not None:
        STATE.sink.close()
    STATE.metrics = Metrics(enabled=False)
    STATE.sink = None
    STATE.enabled = False
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


def detached_span(name: str, parent: Optional[str] = None, **attrs):
    """Start a span off the stack, under the explicit ``parent`` id.

    For spans whose lifetimes interleave (see
    :meth:`SpanRecorder.detached`); end it with ``finish(status,
    **attrs)``.  The shared null span when no recorder is active, whose
    ``span_id`` is None.
    """
    recorder = STATE.spans
    if recorder is None:
        return NULL_TRACE_SPAN
    return recorder.detached(name, parent, **attrs)


def emit_heartbeat(
    label: str,
    done: int,
    total: int,
    packets_offered: int,
    packets_per_s: float,
    **extra,
) -> None:
    """Write one ``type: heartbeat`` record to the session sink.

    Flushed at once, so ``timeline --follow`` sees it live.  ``extra``
    carries a source's own fields (the server's sessions and queue
    depth).  A no-op when no sink is open.
    """
    sink = STATE.sink
    if sink is None:
        return
    sink.emit({
        "type": "heartbeat",
        "label": label,
        "done": done,
        "total": total,
        "packets_offered": packets_offered,
        "packets_per_s": round(packets_per_s, 1),
        **extra,
        "rss_kb": rss_kb(),
        "unix": time.time(),
    })
    sink.flush()
