"""Metric instruments and the hierarchical registry.

The registry hands out three instrument kinds, all addressed by a
dot-hierarchical name plus optional labels::

    registry.counter("phy.bits_flipped").inc(3)
    registry.counter("link.drops", reason="mac_collision").inc()
    registry.gauge("sim.queue_depth").set(17)
    registry.histogram("sim.event_handler_s").record(elapsed_s)

Names follow the layer namespace documented in docs/OBSERVABILITY.md
(``sim.*``, ``phy.*``, ``mac.*``, ``link.*``, ``trace.*``, ``match.*``,
``fec.*``, ``rng.*``).  Time is attributed by trace spans
(:mod:`repro.obs.spans`), not by metric instruments.  Labels are folded into the storage
key as ``name{k=v,...}`` with keys sorted, so snapshots are plain
string-keyed dictionaries.

A registry created with ``enabled=False`` returns shared *null*
instruments whose mutators are no-ops — the disabled mode the hot paths
rely on.  Instrument handles are cheap to re-fetch (one dict lookup) but
callers on per-event paths should fetch once and hold the handle.
"""

from __future__ import annotations

import math
from typing import Optional


def scoped_name(name: str, labels: Optional[dict] = None) -> str:
    """Fold ``labels`` into a flat storage key: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary statistics (count/total/min/max/stddev).

    Keeps running moments rather than samples, so recording is O(1) and
    the memory footprint is constant regardless of event volume.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_sumsq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._sumsq = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._sumsq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def state(self) -> dict:
        """Exact internal moments — the mergeable representation.

        Unlike :meth:`summary` (which reports derived statistics), this
        keeps the raw sum of squares so two histograms can be folded
        together without precision loss.
        """
        return {
            "count": self.count,
            "total": self.total,
            "sumsq": self._sumsq,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one."""
        if not state["count"]:
            return
        self.count += state["count"]
        self.total += state["total"]
        self._sumsq += state["sumsq"]
        if state["min"] < self.minimum:
            self.minimum = state["min"]
        if state["max"] > self.maximum:
            self.maximum = state["max"]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        variance = self._sumsq / self.count - self.mean**2
        return math.sqrt(max(0.0, variance))

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": None, "max": None,
                    "mean": 0.0, "stddev": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "stddev": self.stddev,
        }


# ----------------------------------------------------------------------
# Null instruments: what a disabled registry hands out.  All mutators
# are no-ops; reads report zero/empty.  Shared singletons, stateless.
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class Metrics:
    """The instrument registry.

    One instance per observability session; the process-wide default
    lives in :mod:`repro.obs.runtime` and is disabled until the CLI (or
    a test) configures a session.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        key = scoped_name(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        key = scoped_name(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        key = scoped_name(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instrument values as plain JSON-serializable dictionaries."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def counters_snapshot(self) -> dict[str, int]:
        """Just the counters — the cheap slice every span diffs over its
        extent.  Iterates a copy: the serving tier's classifier thread
        may register a counter while the event loop closes a span."""
        return {k: c.value for k, c in self._counters.copy().items()}

    # ------------------------------------------------------------------
    # Mergeable state: how worker-process registries fold back into the
    # parent's after a parallel run (see repro.parallel).
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Every instrument's exact internal state, JSON/pickle-safe.

        Counters and gauges export their values; histograms export raw
        moments (:meth:`Histogram.state`), so a merge is
        exact — no reconstruction from derived statistics.
        """
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {k: h.state() for k, h in self._histograms.items()},
        }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` dictionary into this registry.

        Counters add, histogram moments add (min/max take the
        extremum), gauges take the incoming value (last write wins, so
        merge in a deterministic order).  No-op on a disabled registry.
        """
        if not self.enabled:
            return
        for key, value in state.get("counters", {}).items():
            self._plain(self._counters, key, Counter).value += value
        for key, value in state.get("gauges", {}).items():
            self._plain(self._gauges, key, Gauge).value = value
        for key, hist_state in state.get("histograms", {}).items():
            self._plain(self._histograms, key, Histogram).merge_state(
                hist_state
            )

    @staticmethod
    def _plain(table: dict, key: str, kind: type):
        """Fetch-or-create by pre-scoped key (labels already folded in)."""
        instrument = table.get(key)
        if instrument is None:
            instrument = table[key] = kind()
        return instrument

    def reset(self) -> None:
        """Forget every instrument (values and registrations)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def render_snapshot(snapshot: dict) -> str:
    """Human-readable multi-section rendering of :meth:`Metrics.snapshot`."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        for key, value in counters.items():
            lines.append(f"  {key:<{width}}  {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        for key, value in gauges.items():
            lines.append(f"  {key:<{width}}  {value:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(k) for k in histograms)
        for key, summary in histograms.items():
            if summary["count"] == 0:
                lines.append(f"  {key:<{width}}  (empty)")
                continue
            lines.append(
                f"  {key:<{width}}  n={summary['count']} "
                f"mean={summary['mean']:.3g} min={summary['min']:.3g} "
                f"max={summary['max']:.3g} total={summary['total']:.3g}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
