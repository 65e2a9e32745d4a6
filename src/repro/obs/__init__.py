"""Instrumentation bus: metrics, run telemetry, and trace spans.

The paper's contribution rests on *instrumented* measurement — a driver
modified to log every received bit plus per-packet status.  This package
gives the reproduction the same property about itself: a metrics
registry with hierarchical names (``phy.bits_flipped``,
``link.drops{reason=...}``), structured JSONL run telemetry, per-run
manifests, and one timing mechanism: trace spans at layer boundaries
(``trace.trial``, ``fec.decode_batch``, experiment and task spans) —
all near-zero cost when disabled (the default).

Quick use::

    from repro import obs

    with obs.session(telemetry_path="run.jsonl") as state:
        ...  # run experiments; layers record into state.metrics
        print(obs.render_snapshot(state.metrics.snapshot()))

See docs/OBSERVABILITY.md for the metric namespace and file schema.
"""

from repro.obs.events import (
    EventTracer,
    JsonlTelemetrySink,
    TELEMETRY_FORMAT,
    TELEMETRY_KIND,
    iter_telemetry,
    read_telemetry,
    read_telemetry_header,
)
from repro.obs.manifest import RunManifest, build_manifest, git_revision
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    render_snapshot,
    scoped_name,
)
from repro.obs.resources import ResourceMonitor, ResourceSample, sample
from repro.obs.runtime import (
    STATE,
    ObsState,
    configure,
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
    "EventTracer",
    "Gauge",
    "Histogram",
    "JsonlTelemetrySink",
    "Metrics",
    "ObsState",
    "ResourceMonitor",
    "ResourceSample",
    "RunManifest",
    "STATE",
    "SpanContext",
    "SpanRecorder",
    "TELEMETRY_FORMAT",
    "TELEMETRY_KIND",
    "TelemetrySummary",
    "build_manifest",
    "configure",
    "derive_span_id",
    "derive_trace_id",
    "ensure_metrics",
    "git_revision",
    "iter_telemetry",
    "metrics",
    "read_telemetry",
    "read_telemetry_header",
    "render_snapshot",
    "render_summary",
    "reset",
    "sample",
    "scoped_name",
    "session",
    "span_structure",
    "span_tree",
    "summarize_telemetry",
    "trace_span",
]
