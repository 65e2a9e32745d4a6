"""Counters and the hierarchical registry.

The counter is the registry's one instrument, addressed by a
dot-hierarchical name plus optional labels::

    registry.counter("phy.bits_flipped").inc(3)
    registry.counter("link.drops", reason="mac_collision").inc()

Names follow the layer namespace documented in docs/OBSERVABILITY.md
(``sim.*``, ``phy.*``, ``mac.*``, ``link.*``, ``trace.*``, ``match.*``,
``fec.*``).  Time is attributed by trace spans
(:mod:`repro.obs.spans`), which also carry each counter's delta over
their extent.  Labels are folded into the storage key as
``name{k=v,...}`` with keys sorted, so snapshots are plain string-keyed
dictionaries.

A registry created with ``enabled=False`` returns the shared no-op
:data:`NULL_COUNTER` — the disabled mode the hot paths rely on.
Objects on per-event paths hold their handles instead of looking them
up per event: :meth:`Metrics.handle` for one counter and
:meth:`Metrics.family` for one counter name keyed by a label's value.
Both register a counter the first time it is incremented, so holding a
handle adds no key to the registry.
"""

from __future__ import annotations

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


class _NullCounter(Counter):
    """What a disabled registry hands out: ``inc`` is a no-op and the
    value stays zero.  One shared, stateless singleton."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


NULL_COUNTER = _NullCounter()


class LazyCounter:
    """A held handle on one counter that registers it on its first ``inc``."""

    __slots__ = ("_metrics", "_name", "_labels", "_counter")

    def __init__(self, metrics: "Metrics", name: str, labels: dict) -> None:
        self._metrics = metrics
        self._name = name
        self._labels = labels
        self._counter: Optional[Counter] = None

    def inc(self, amount: int = 1) -> None:
        counter = self._counter
        if counter is None:
            counter = self._counter = self._metrics.counter(
                self._name, **self._labels
            )
        counter.value += amount


#: What :meth:`Metrics.handle` returns.
CounterHandle = Counter | LazyCounter


class CounterFamily(dict):
    """Held handles on one counter name, keyed by one label's value.

    ``family[value]`` is the counter ``name{label=value}``, fetched from
    the registry the first time that value is looked up (and so, on the
    per-event paths that hold families, the first time it is counted).
    A family of a disabled registry hands out :data:`NULL_COUNTER`.
    """

    __slots__ = ("_metrics", "_name", "_label")

    def __init__(self, metrics: "Metrics", name: str, label: str) -> None:
        super().__init__()
        self._metrics = metrics
        self._name = name
        self._label = label

    def __missing__(self, value: str) -> Counter:
        counter = self[value] = self._metrics.counter(
            self._name, **{self._label: value}
        )
        return counter


class Metrics:
    """The counter registry.

    One instance per observability session; the process-wide default
    lives in :mod:`repro.obs.runtime` and is disabled until the CLI (or
    a test) configures a session.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        key = scoped_name(name, labels) if labels else name
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def handle(self, name: str, **labels: str) -> CounterHandle:
        """A handle to hold on ``name{labels}``, registered on its first
        ``inc`` (:data:`NULL_COUNTER` when disabled)."""
        if not self.enabled:
            return NULL_COUNTER
        return LazyCounter(self, name, labels)

    def family(self, name: str, label: str) -> CounterFamily:
        """Handles to hold on ``name{label=...}``, keyed by the label's
        value and fetched on first use."""
        return CounterFamily(self, name, label)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every counter's value, sorted by key, as ``{"counters": {...}}``
        (the ``metrics`` telemetry record's payload)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
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
        """Every counter's value, JSON/pickle-safe: ``{"counters": {...}}``."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
        }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` dictionary into this registry:
        counters add, so the merge is exact in any order.  No-op on a
        disabled registry.
        """
        if not self.enabled:
            return
        for key, value in state.get("counters", {}).items():
            self._plain(key).value += value

    def _plain(self, key: str) -> Counter:
        """Fetch-or-create by storage key (labels already folded in)."""
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def reset(self) -> None:
        """Forget every counter (values and registrations)."""
        self._counters.clear()


def render_snapshot(snapshot: dict) -> str:
    """Human-readable rendering of :meth:`Metrics.snapshot`."""
    counters = snapshot.get("counters", {})
    if not counters:
        return "(no metrics recorded)"
    width = max(len(k) for k in counters)
    lines = ["counters:"]
    for key, value in counters.items():
        lines.append(f"  {key:<{width}}  {value}")
    return "\n".join(lines)
