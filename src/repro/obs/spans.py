"""Hierarchical span tracing: real trace trees over the telemetry stream.

The metrics registry answers "how much, in total"; spans answer *where
time went* — as a tree.  A :class:`SpanRecorder` maintains the active
span stack for its process and emits one ``type: span`` record per
finished span into the JSONL telemetry stream, carrying:

* identity — ``trace`` / ``span`` / ``parent`` ids that stitch records
  from any number of processes into one tree;
* cost — wall-clock seconds, CPU seconds (``time.process_time`` delta),
  and the RSS delta and process peak RSS from one
  :mod:`repro.obs.resources` read at each boundary;
* work — ``counters``, the nonzero counter deltas of the session's
  metrics registry over the span (``trace.packets_offered``,
  ``sim.events_fired``, ``link.drops{reason=...}``, ...), worker states
  merged inside the span included;
* context — the span name, the emitting ``pid``, free-form ``attrs``,
  and an ``ok``/``error`` status.

The span is the run's only record: the report footer, ``stats`` and
``--progress`` heartbeats all read finished spans.

**Deterministic identity.**  Ids are not random: a trace id is a pure
function of its label (:func:`derive_trace_id`), and a span id is a pure
function of ``(trace id, parent id, name, sibling index)``.  Two runs of
the same campaign therefore produce the same tree ids, and — because the
parallel runner hands each worker task the *parent's* span context — a
``jobs=N`` run produces the identical span tree to ``jobs=1``, counters
included, differing only in the volatile fields (timings, pids, RSS).
:func:`span_structure` strips the volatile fields so that identity can
be asserted byte for byte.

**Cross-process propagation.**  The worker side of a pool boundary
receives a :class:`SpanContext` (two strings, trivially picklable) and
enters it with :meth:`SpanRecorder.adopt`; spans opened inside the
adoption parent themselves under the remote span, so engine →
``run_tasks`` → worker → trial spans form one connected trace across
the telemetry shard family.

See docs/OBSERVABILITY.md for the record schema and
:mod:`repro.obs.export` for the Perfetto / waterfall renderers.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Iterable, Iterator, Optional

from repro.obs.resources import rss_and_peak_kb, rss_kb

#: Fields of a span record that legitimately differ between two runs of
#: the same campaign (or between ``jobs=1`` and ``jobs=N``).
VOLATILE_SPAN_FIELDS = frozenset(
    {"pid", "start_unix", "wall_s", "cpu_s", "rss_delta_kb", "peak_rss_kb"}
)


def _digest(*parts: str) -> str:
    """A 16-hex-char stable hash of the given strings."""
    payload = "\x1f".join(parts).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def derive_trace_id(*labels: str) -> str:
    """A deterministic trace id from run labels (command, seed, ...).

    Pure function of the labels — stable across processes and runs, so
    a re-run of the same campaign stitches into an identically-named
    trace and tests can pin ids.

    >>> derive_trace_id("report", "1996") == derive_trace_id("report", "1996")
    True
    >>> derive_trace_id("report", "1996") != derive_trace_id("report", "7")
    True
    """
    return _digest("trace", *labels)


def derive_span_id(
    trace_id: str, parent_id: Optional[str], name: str, index: int
) -> str:
    """A deterministic span id: a pure function of the span's path.

    ``index`` is the span's ordinal among same-named siblings, so
    repeated child names stay distinct while the id never depends on
    wall clock, pid, or worker rank.
    """
    return _digest("span", trace_id, parent_id or "", name, str(index))


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a live span (picklable, two strings)."""

    trace_id: str
    span_id: str


class _NullTraceSpan:
    """Shared no-op span for disabled sessions (stateless)."""

    __slots__ = ()
    record = None  # a real span's finished record; none here

    def __enter__(self) -> "_NullTraceSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value) -> None:
        pass

    @property
    def span_id(self) -> None:
        return None

    def finish(self, status: str = "ok", **attrs) -> None:
        pass


NULL_TRACE_SPAN = _NullTraceSpan()


class _ActiveSpan:
    """One live span: a context manager that emits its record on exit."""

    __slots__ = ("_recorder", "record", "_start_perf", "_start_cpu",
                 "_start_rss", "_start_counters")

    def __init__(self, recorder: "SpanRecorder", record: dict) -> None:
        self._recorder = recorder
        self.record = record

    @property
    def span_id(self) -> str:
        return self.record["span"]

    def set_attr(self, key: str, value) -> None:
        """Attach/overwrite one attribute while the span is live."""
        self.record["attrs"][key] = value

    def __enter__(self) -> "_ActiveSpan":
        metrics = self._recorder.metrics
        self._start_counters = (
            metrics.counters_snapshot() if metrics is not None else {}
        )
        self._start_cpu = process_time()
        self._start_rss = rss_kb()
        self._start_perf = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record["attrs"]["error"] = exc_type.__name__
        self.finish("ok" if exc_type is None else "error")
        return False

    def finish(self, status: str = "ok", **attrs) -> None:
        """Close the span: stamp its cost and counters, then emit it.

        A ``with`` block calls this on exit; a detached span (see
        :meth:`SpanRecorder.detached`) calls it directly, with the
        attributes only known at its end.
        """
        wall_s = perf_counter() - self._start_perf
        cpu_s = process_time() - self._start_cpu
        rss, peak = rss_and_peak_kb()
        record = self.record
        record["attrs"].update(attrs)
        record["wall_s"] = wall_s
        record["cpu_s"] = cpu_s
        record["rss_delta_kb"] = rss - self._start_rss
        record["peak_rss_kb"] = peak
        counters: dict[str, int] = {}
        metrics = self._recorder.metrics
        if metrics is not None:
            before = self._start_counters
            for key, value in metrics.counters_snapshot().items():
                delta = value - before.get(key, 0)
                if delta:
                    counters[key] = delta
        record["counters"] = counters
        record["status"] = status
        self._recorder._finish(self)


class SpanRecorder:
    """The per-process span stack, id assigner, and record emitter.

    One per observability session (``obs.STATE.spans``).  Finished span
    records are emitted to ``sink`` when one is open, and kept nowhere
    else: a recorder's memory does not grow with the spans it has run
    (the runner hands a task's span back through the live span's
    ``record``).  ``metrics`` is the session's registry,
    whose counter deltas every span records; without one, ``counters``
    stays empty.  The recorder is process-local; cross-process
    stitching works by carrying a :class:`SpanContext` over the
    boundary and entering it with :meth:`adopt` on the far side.
    """

    def __init__(self, sink=None, trace_id: Optional[str] = None,
                 metrics=None) -> None:
        self.sink = sink
        self.trace_id = (
            trace_id if trace_id is not None else derive_trace_id("session")
        )
        self.metrics = metrics
        self._stack: list[str] = []  # span ids, innermost last
        # (parent id, name) -> next sibling ordinal; keyed per parent so
        # ordinals agree between a serial run and a pool run where each
        # worker sees only its own children of a shared remote parent.
        self._child_index: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def current(self) -> Optional[SpanContext]:
        """The innermost live span's portable context (None at root)."""
        if not self._stack:
            return None
        return SpanContext(self.trace_id, self._stack[-1])

    def _open(self, name: str, parent: Optional[str], attrs: dict) -> _ActiveSpan:
        key = (parent or "", name)
        index = self._child_index.get(key, 0)
        self._child_index[key] = index + 1
        record = {
            "type": "span",
            "trace": self.trace_id,
            "span": derive_span_id(self.trace_id, parent, name, index),
            "parent": parent,
            "name": name,
            "pid": os.getpid(),
            "start_unix": time.time(),
            "attrs": attrs,
        }
        return _ActiveSpan(self, record)

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a child span of the current span (a context manager)."""
        span = self._open(name, self._stack[-1] if self._stack else None, attrs)
        self._stack.append(span.span_id)
        return span

    def detached(
        self, name: str, parent: Optional[str] = None, **attrs
    ) -> _ActiveSpan:
        """Start a span under an explicit ``parent`` id, off the stack.

        For spans whose lifetimes interleave (the serving tier's
        concurrent sessions): the id derives like any other span's, but
        the span never becomes the current one, and the caller ends it
        with ``finish()``.  Its counters are the process's deltas over
        its extent, so overlapping spans' work is included.
        """
        return self._open(name, parent, attrs).__enter__()

    def _finish(self, span: _ActiveSpan) -> None:
        # Pop down to (and including) this span — tolerates a caller
        # leaking an inner span by exiting an outer one first.  A
        # detached span was never pushed.
        span_id = span.span_id
        if span_id in self._stack:
            while self._stack.pop() != span_id:
                pass
        if self.sink is not None:
            self.sink.emit(span.record)

    @contextmanager
    def adopt(self, context: SpanContext) -> Iterator[None]:
        """Enter a remote span context so new spans parent under it.

        Used on the worker side of a pool boundary: the parent process
        captures ``recorder.current()`` and ships it with the task; the
        worker adopts it for the task's duration, so the worker's spans
        stitch under the parent's tree (same trace id, linked parent
        ids).
        """
        saved_trace_id = self.trace_id
        self.trace_id = context.trace_id
        self._stack.append(context.span_id)
        try:
            yield
        finally:
            # Pop back to the adopted frame (tolerating leaked inners).
            while self._stack:
                if self._stack.pop() == context.span_id:
                    break
            self.trace_id = saved_trace_id


# ----------------------------------------------------------------------
# Record-set helpers (used by stats, export, and the merge tests)
# ----------------------------------------------------------------------
def span_structure(records: Iterable[dict]) -> list[tuple]:
    """The volatile-free shape of a span set, canonically ordered.

    Returns sorted ``(trace, span, parent, name)`` tuples — everything
    that identifies the tree, nothing that varies run to run (pids,
    timings, resource deltas).  Two runs of the same campaign — and a
    ``jobs=1`` vs a ``jobs=N`` run — must produce equal structures.
    """
    return sorted(
        (r["trace"], r["span"], r.get("parent"), r["name"])
        for r in records
        if r.get("type") == "span"
    )


def span_tree(
    records: Iterable[dict],
) -> tuple[list[dict], dict[str, list[dict]]]:
    """Index spans into ``(roots, children-by-parent-id)``.

    Roots are spans whose parent is absent from the record set (not
    just ``None`` — a shard read on its own has orphans whose parents
    live in the parent file).  Children are ordered by start time then
    span id, so rendering is deterministic.
    """
    spans = [r for r in records if r.get("type") == "span"]
    by_id = {r["span"]: r for r in spans}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is None or parent not in by_id:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)
    order = lambda r: (r.get("start_unix", 0.0), r["span"])  # noqa: E731
    roots.sort(key=order)
    for siblings in children.values():
        siblings.sort(key=order)
    return roots, children
