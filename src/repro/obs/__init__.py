"""Instrumentation bus: metrics, run telemetry, and trace spans.

The paper's contribution rests on *instrumented* measurement — a driver
modified to log every received bit plus per-packet status.  This package
gives the reproduction the same property about itself: a metrics
registry with hierarchical names (``phy.bits_flipped``,
``link.drops{reason=...}``), structured JSONL run telemetry, and one
run record: trace spans at layer boundaries (``trace.trial``,
``fec.decode_batch``, experiment and task spans), each carrying its
wall/CPU time, peak RSS and the counter deltas over its extent — all
near-zero cost when disabled (the default).

Quick use::

    from repro import obs

    with obs.session(telemetry_path="run.jsonl") as state:
        ...  # run experiments; layers record into state.metrics
        print(obs.render_snapshot(state.metrics.snapshot()))

See docs/OBSERVABILITY.md for the metric namespace and file schema.
"""

from repro.obs.events import (
    JsonlTelemetrySink,
    TELEMETRY_FORMAT,
    TELEMETRY_KIND,
    git_revision,
    iter_telemetry,
    read_telemetry,
    read_telemetry_header,
)
from repro.obs.metrics import (
    Counter,
    Metrics,
    render_snapshot,
    scoped_name,
)
from repro.obs.runtime import (
    STATE,
    ObsState,
    configure,
    detached_span,
    emit_heartbeat,
    ensure_metrics,
    metrics,
    reset,
    session,
    trace_span,
)
from repro.obs.spans import (
    SpanContext,
    SpanRecorder,
    derive_span_id,
    derive_trace_id,
    span_structure,
    span_tree,
)
from repro.obs.stats import TelemetrySummary, render_summary, summarize_telemetry

__all__ = [
    "Counter",
    "JsonlTelemetrySink",
    "Metrics",
    "ObsState",
    "STATE",
    "SpanContext",
    "SpanRecorder",
    "TELEMETRY_FORMAT",
    "TELEMETRY_KIND",
    "TelemetrySummary",
    "configure",
    "derive_span_id",
    "derive_trace_id",
    "detached_span",
    "emit_heartbeat",
    "ensure_metrics",
    "git_revision",
    "iter_telemetry",
    "metrics",
    "read_telemetry",
    "read_telemetry_header",
    "render_snapshot",
    "render_summary",
    "reset",
    "scoped_name",
    "session",
    "span_structure",
    "span_tree",
    "summarize_telemetry",
    "trace_span",
]
