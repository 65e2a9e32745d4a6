"""Per-layer attribution for the benchmark: spans around layer calls.

The benchmark wraps the public functions and methods of each ``repro``
layer (the layer is the module's package name) from outside the
program: no code under ``src/`` knows it is being traced.  Each wrapped
call records one span ``[name, start, end, parent, thread, counts,
id]`` in memory; counter hooks add their increments to the innermost
open span, so every count belongs to a point in time and can be summed
over any measurement window.  Spans are written out only when a run
ends.

Module-level functions are rebound in *every* ``repro`` module that
imported them by name (``fleet.py`` and ``throughput.py`` bind
``classify_trace`` at import time, so patching the defining module
alone would miss those callers).
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter

#: Layers reported by the traced run, in report order.
LAYERS = (
    "experiments",
    "scenario",
    "trace",
    "phy",
    "interference",
    "framing",
    "analysis",
    "fec",
    "simkit",
    "serve",
    "parallel",
)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _records_fed(args, kwargs, result):
    return {"analysis.records": len(args[1])}


def _columnar_fed(args, kwargs, result):
    trace = args[1]
    start = args[2] if len(args) > 2 else kwargs.get("start", 0)
    stop = args[3] if len(args) > 3 else kwargs.get("stop")
    total = trace.packets_received
    stop = total if stop is None else min(stop, total)
    return {"analysis.records": max(0, stop - start)}


def _fate_counts(args, kwargs, result):
    damaged = result.truncated_at_byte is not None or len(result.flipped_bits) > 0
    return {"phy.packets": 1, "phy.damaged": int(damaged)}


def _event_counts(args, kwargs, result):
    if result is None:
        return None
    return {"simkit.events": 1, "simkit.events." + (result.name or "?"): 1}


def _evaluate_rate_counts(args, kwargs, result):
    return {
        "fec.replayed": result.packets,
        "fec.recovered": result.packets_recovered,
    }


#: Server-process targets (module, qualified name, span name or None
#: for a counter-only hook, counter hook or None).  The client side of
#: ``ingest`` has its own table below.
PROGRAM_TARGETS = (
    ("repro.experiments.engine", "ExperimentEngine.run", "experiments.engine",
     lambda a, k, r: {"experiments.runs": 1}),
    ("repro.parallel.runner", "run_tasks", "parallel.run_tasks", None),
    ("repro.scenario.compiler", "compile_scenario", "scenario.compile",
     lambda a, k, r: {"scenario.compiles": 1}),
    ("repro.trace.trial", "run_fast_trial", "trace.trial", None),
    ("repro.trace.trial", "run_mac_trial", "trace.trial", None),
    ("repro.trace.records", "LazyRecordList._materialize", "trace.materialize",
     lambda a, k, r: {"trace.records_materialized": len(a[0])}),
    ("repro.trace.persist", "save_trace", "trace.save",
     lambda a, k, r: {"trace.saves": 1, "trace.bytes": _file_bytes(a[1])}),
    ("repro.trace.persist", "load_trace", "trace.load",
     lambda a, k, r: {"trace.loads": 1, "trace.bytes": _file_bytes(a[0])}),
    ("repro.phy.errormodel", "WaveLanErrorModel.sample_bulk", "phy.sample_bulk",
     lambda a, k, r: {"phy.packets": len(a[1])}),
    ("repro.phy.errormodel", "WaveLanErrorModel.detail_bulk", "phy.detail_bulk",
     lambda a, k, r: {"phy.damaged": len(r["quality"])}),
    ("repro.phy.errormodel", "WaveLanErrorModel.sample_packet",
     "phy.sample_packet", _fate_counts),
    ("repro.phy.modem", "WaveLanModem.receive", "phy.receive", None),
    ("repro.phy.agc", "AgcModel.readings_bulk", "phy.readings_bulk", None),
    ("repro.interference.base", "bulk_schedule", "interference.schedule",
     lambda a, k, r: {"interference.schedules": 1}),
    ("repro.interference.frontend", "AmateurRadioTransmitter.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.frontend", "MicrowaveOven.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.narrowband", "NarrowbandPhonePair.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.narrowband", "AmpsCellPhone.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.spreadspectrum", "SpreadSpectrumPhonePair.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.wavelan", "CompetingWaveLanTransmitter.sample_bulk",
     "interference.sample_bulk", None),
    ("repro.interference.frontend", "AmateurRadioTransmitter.sample_packet",
     "interference.sample_packet", None),
    ("repro.interference.frontend", "MicrowaveOven.sample_packet",
     "interference.sample_packet", None),
    ("repro.interference.narrowband", "NarrowbandPhonePair.sample_packet",
     "interference.sample_packet", None),
    ("repro.interference.narrowband", "AmpsCellPhone.sample_packet",
     "interference.sample_packet", None),
    ("repro.interference.spreadspectrum",
     "SpreadSpectrumPhonePair.sample_packet", "interference.sample_packet",
     None),
    ("repro.interference.wavelan", "CompetingWaveLanTransmitter.sample_packet",
     "interference.sample_packet", None),
    ("repro.framing.testpacket", "TestPacketFactory.build_bulk",
     "framing.build_bulk", lambda a, k, r: {"framing.frames": len(a[1])}),
    ("repro.analysis.classify", "classify_trace", "analysis.classify", None),
    ("repro.analysis.classify", "IncrementalClassifier.feed_records",
     "analysis.feed", _records_fed),
    ("repro.analysis.classify", "IncrementalClassifier.feed_columnar",
     "analysis.feed", _columnar_fed),
    ("repro.analysis.matching", "TraceMatcher.match_bytes", "analysis.match_bytes",
     lambda a, k, r: {"analysis.slow_path": 1}),
    ("repro.analysis.matching", "TraceMatcher.match_records_arrays",
     "analysis.match_records", None),
    ("repro.analysis.matching", "TraceMatcher.match_matrix_arrays",
     "analysis.match_matrix", None),
    ("repro.analysis.syndrome", "extract_syndrome", "analysis.syndrome", None),
    ("repro.analysis.metrics", "metrics_from_classified", "analysis.metrics",
     None),
    ("repro.fec.rcpc", "RcpcCodec.encode", "fec.encode", None),
    ("repro.fec.rcpc", "RcpcCodec.decode", "fec.decode",
     lambda a, k, r: {"fec.blocks": 1, "fec.decode_calls": 1}),
    ("repro.fec.rcpc", "RcpcCodec.decode_batch", "fec.decode_batch",
     lambda a, k, r: {"fec.blocks": len(r), "fec.decode_calls": 1}),
    ("repro.fec.interleave", "BlockInterleaver.scramble", "fec.interleave", None),
    ("repro.fec.interleave", "BlockInterleaver.unscramble", "fec.interleave",
     None),
    ("repro.fec.adaptive", "AdaptiveFecController.observe_bulk", "fec.adaptive",
     None),
    ("repro.experiments.throughput", "_fec_recovers", None,
     lambda a, k, r: {"fec.replayed": 1, "fec.recovered": int(r)}),
    ("repro.experiments.fec_eval", "_evaluate_rate", None,
     _evaluate_rate_counts),
    ("repro.simkit.simulator", "Simulator.run", "simkit.run", None),
    ("repro.simkit.simulator", "Simulator.run_until", "simkit.run", None),
    ("repro.simkit.event", "EventQueue.pop", None, _event_counts),
    ("repro.serve.server", "_batch_feed", "serve.classify",
     lambda a, k, r: {"serve.chunks": len(a[0])}),
    ("repro.serve.protocol", "write_frame", "serve.write_frame", None),
    ("repro.serve.server", "TraceAnalysisServer._count_overflow", None,
     lambda a, k, r: {"serve.ring_overflows": 1}),
    ("repro.parallel.handoff", "load_ring_slot", "parallel.ring_read", None),
    ("repro.parallel.handoff", "RingTransport.lease", "parallel.ring_lease",
     None),
)

#: The ``ingest`` client process: its send path only.
CLIENT_TARGETS = (
    ("repro.serve.protocol", "write_frame", "serve.client_send", None),
    ("repro.parallel.handoff", "RingClient.write", "parallel.ring_write", None),
)


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: list = []
        self.loose = Counter()  # counts raised outside any open span
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.loose = Counter()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @staticmethod
    def _bump(span, increments) -> None:
        if span[5] is None:
            span[5] = Counter()
        span[5].update(increments)

    def _add(self, increments) -> None:
        stack = self._stack()
        if stack:
            self._bump(stack[-1], increments)
        else:
            self.loose.update(increments)

    def _span_wrapper(self, name, fn, count):
        tracer = self
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1][6] if stack else -1,
                      get_ident(), None, next(tracer._ids)]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                increments = count(args, kwargs, result)
                if increments:
                    tracer._bump(record, increments)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, count):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            increments = count(args, kwargs, result)
            if increments:
                tracer._add(increments)
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self, targets) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, qualname, span, count in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = (
                self._span_wrapper(span, fn, count)
                if span is not None
                else self._count_wrapper(fn, count)
            )
            if owner_name:
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._restore.append((owner, attr, raw))
                continue
            # A module function: rebind it wherever it was imported.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if (
                    namespace is None
                    or not getattr(other, "__name__", "").startswith("repro")
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is fn:
                        setattr(other, key, wrapped)
                        self._restore.append((other, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def export(self) -> dict:
        """The recorded spans (JSON-safe), for writing out at run end."""
        spans = [
            [name, start, end, parent, thread, dict(counts) if counts else None,
             ident]
            for name, start, end, parent, thread, counts, ident in self.spans
        ]
        return {"spans": spans, "loose": dict(self.loose)}


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(start, end, windows):
    for w_start, w_end in windows:
        lo, hi = max(start, w_start), min(end, w_end)
        if hi > lo:
            yield lo, hi


#: Span-name groups reported as one busy time (union of their spans).
GROUPS = {
    "analysis.match": (
        "analysis.match_bytes",
        "analysis.match_records",
        "analysis.match_matrix",
    ),
    "analysis.syndrome": ("analysis.syndrome",),
    "trace.save": ("trace.save",),
    "trace.load": ("trace.load",),
    "scenario.compile": ("scenario.compile",),
    "serve.classify": ("serve.classify",),
    "serve.client_send": ("serve.client_send", "parallel.ring_write"),
    "parallel.handoff": (
        "parallel.ring_read",
        "parallel.ring_write",
        "parallel.ring_lease",
    ),
}


def summarize(sources, windows) -> dict:
    """Per-layer figures over ``windows`` from one or more span sources.

    ``sources`` are :meth:`Tracer.export` documents, one per traced
    process; all share the host's monotonic clock.  A span belongs to
    the window its start falls in.  Returns ``layers`` (per layer:
    calls into it, busy seconds = union of its spans, self seconds =
    span time minus child spans), ``groups`` (busy seconds per
    :data:`GROUPS` entry), ``self_by_name``, ``counts``, the union of
    every span (``attributed_s``) and the window total ``wall_s``.
    """
    wall = sum(end - start for start, end in windows)
    calls = Counter()
    self_s = Counter()
    self_by_name = Counter()
    counts = Counter()
    layer_intervals: dict = {}
    name_intervals: dict = {}
    all_intervals: dict = {}

    def in_window(start):
        return any(w_start <= start <= w_end for w_start, w_end in windows)

    for source_index, source in enumerate(sources):
        spans = source["spans"]
        by_id = {span[6]: span for span in spans}
        child_time = Counter()
        for span in spans:
            if span[3] in by_id:
                child_time[span[3]] += span[2] - span[1]
        for name, start, end, parent, thread, span_counts, ident in spans:
            if not in_window(start):
                continue
            layer = name.split(".", 1)[0]
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[0].split(".", 1)[0] != layer:
                calls[layer] += 1
            own = (end - start) - child_time[ident]
            self_s[layer] += own
            self_by_name[name] += own
            key = (source_index, thread)
            pieces = list(_clip(start, end, windows))
            layer_intervals.setdefault((layer, key), []).extend(pieces)
            name_intervals.setdefault((name, key), []).extend(pieces)
            all_intervals.setdefault(key, []).extend(pieces)
            if span_counts:
                counts.update(span_counts)
        counts.update(source.get("loose") or {})

    busy = Counter()
    for (layer, _key), pieces in layer_intervals.items():
        busy[layer] += _union(pieces)
    groups = Counter()
    for group, members in GROUPS.items():
        by_key: dict = {}
        for (name, key), pieces in name_intervals.items():
            if name in members:
                by_key.setdefault(key, []).extend(pieces)
        groups[group] = sum(_union(pieces) for pieces in by_key.values())
    attributed = _union(
        piece for pieces in all_intervals.values() for piece in pieces
    )
    return {
        "wall_s": wall,
        "layers": {
            layer: {
                "calls": calls[layer],
                "busy_s": busy[layer],
                "self_s": self_s[layer],
            }
            for layer in sorted(set(calls) | set(LAYERS))
        },
        "groups": dict(groups),
        "self_by_name": dict(self_by_name),
        "counts": dict(counts),
        "attributed_s": attributed,
    }
