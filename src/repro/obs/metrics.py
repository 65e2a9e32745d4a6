"""Counters and the hierarchical registry.

The counter is the registry's one instrument, addressed by a
dot-hierarchical name plus optional labels::

    registry.counter("phy.bits_flipped").inc(3)
    registry.counter("link.drops", reason="mac_collision").inc()

Names follow the layer namespace documented in docs/OBSERVABILITY.md
(``sim.*``, ``phy.*``, ``mac.*``, ``link.*``, ``trace.*``, ``match.*``,
``fec.*``, ``rng.*``).  Time is attributed by trace spans
(:mod:`repro.obs.spans`), which also carry each counter's delta over
their extent.  Labels are folded into the storage key as
``name{k=v,...}`` with keys sorted, so snapshots are plain string-keyed
dictionaries.

A registry created with ``enabled=False`` returns the shared no-op
:data:`NULL_COUNTER` — the disabled mode the hot paths rely on.
Handles are cheap to re-fetch (one dict lookup) but callers on
per-event paths should fetch once and hold the handle.
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


class Metrics:
    """The counter registry.

    One instance per observability session; the process-wide default
    lives in :mod:`repro.obs.runtime` and is disabled until the CLI (or
    a test) configures a session.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        # (name, *labels.items()) -> the labelled counter in _counters:
        # per-delivery hooks skip re-folding the sorted storage key.
        self._labelled: dict[tuple, Counter] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        if labels:
            handle = (name, *labels.items())
            instrument = self._labelled.get(handle)
            if instrument is None:
                instrument = self._labelled[handle] = self._plain(
                    scoped_name(name, labels)
                )
            return instrument
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

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
        self._labelled.clear()


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
