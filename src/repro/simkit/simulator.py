"""The discrete-event simulation kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs import runtime as _obs
from repro.simkit.event import Event, EventQueue
from repro.simkit.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """Event-list simulator with a float clock in seconds.

    The kernel owns the clock, the event queue, and the random-stream
    registry.  Components schedule callbacks with :meth:`schedule` /
    :meth:`schedule_at`, and the experiment driver advances time with
    :meth:`run` or :meth:`run_until`.

    Observability: each fired event increments the active registry's
    ``sim.events_fired`` counter, whose handle is fetched once when the
    simulator is built (the no-op ``NULL_COUNTER`` outside a session).
    Time is attributed by the trace spans around a run, never per event.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self._fired = 0
        self._running = False
        self._stop_requested = False
        self._fired_counter = _obs.STATE.metrics.counter("sim.events_fired")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, action, priority, name)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: now={self.now}, requested={time}"
            )
        return self.queue.push(time, action, priority, name)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self.queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.now = event.time
        self._fired += 1
        event.action()
        self._fired_counter.inc()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events fired by this call.
        """
        fired = 0
        self._running = True
        self._stop_requested = False
        try:
            while not self._stop_requested:
                if max_events is not None and fired >= max_events:
                    break
                if not self.step():
                    break
                fired += 1
        finally:
            self._running = False
        return fired

    def run_until(self, end_time: float) -> int:
        """Run events with time <= ``end_time``; leave later events queued.

        The clock is advanced to ``end_time`` even if the queue drains
        earlier, so consecutive ``run_until`` calls compose naturally.
        """
        fired = 0
        self._running = True
        self._stop_requested = False
        try:
            while not self._stop_requested:
                next_time = self.queue.peek_time()
                if next_time is None or next_time > end_time:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        if self.now < end_time:
            self.now = end_time
        return fired

    def stop(self) -> None:
        """Request that the currently executing run loop exit."""
        self._stop_requested = True

    @property
    def events_fired(self) -> int:
        """Total events executed over the simulator's lifetime.

        Also added to the session's ``sim.events_fired`` counter when
        one is enabled.
        """
        return self._fired
