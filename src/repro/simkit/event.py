"""Event records and the time-ordered event queue."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=False)
class Event:
    """A single scheduled callback.

    Events compare by ``(time, priority, sequence)``, so two events at the
    same instant fire in deterministic order: lower priority value first,
    then insertion order.  ``cancelled`` events stay in the heap but are
    skipped by the queue when popped (lazy deletion).
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], Any]
    name: str = ""
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        self.cancelled = True

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or getattr(self.action, "__name__", "action")
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} p={self.priority} {label}{state}>"


class EventQueue:
    """A binary-heap event list with lazy cancellation.

    The queue assigns each pushed event a monotonically increasing
    sequence number, which both breaks ties deterministically and gives
    FIFO semantics among same-time, same-priority events.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        event = Event(
            time=time,
            priority=priority,
            sequence=next(self._counter),
            action=action,
            name=name,
        )
        heapq.heappush(self._heap, (event.sort_key(), event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (lazy removal)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            __, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest live event without popping it."""
        while self._heap and self._heap[0][1].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][1].time
