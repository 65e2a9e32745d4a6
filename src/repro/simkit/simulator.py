"""The discrete-event simulation kernel."""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Any, Callable, Optional

from repro.obs import runtime as _obs
from repro.obs.events import EventTracer
from repro.obs.metrics import Metrics
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

    Observability: the kernel mirrors its event accounting into the
    active metrics registry (``sim.events_fired``, ``sim.queue_depth``,
    ``sim.event_queued_s``, ``sim.event_handler_s``) and, when an event
    tracer is attached, emits one telemetry record per fired event.
    Both default to the process-wide state in :mod:`repro.obs.runtime`
    and cost one branch per event when disabled.
    """

    def __init__(
        self,
        seed: int = 0,
        metrics: Optional[Metrics] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.metrics = metrics if metrics is not None else _obs.STATE.metrics
        self.tracer = tracer if tracer is not None else _obs.STATE.tracer
        self._fired = 0
        self._running = False
        self._stop_requested = False
        # Instrument handles are fetched once; on a disabled registry
        # they are shared no-ops.
        self._fired_counter = self.metrics.counter("sim.events_fired")
        self._queued_histogram = self.metrics.histogram("sim.event_queued_s")
        self._handler_histogram = self.metrics.histogram("sim.event_handler_s")
        self._depth_gauge = self.metrics.gauge("sim.queue_depth")

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
        event = self.queue.push(time, action, priority, name)
        event.created = self.now
        return event

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
        metrics = self.metrics
        tracer = self.tracer
        if tracer is None and not metrics.enabled:
            event.action()
            return True
        start = perf_counter()
        event.action()
        elapsed = perf_counter() - start
        if metrics.enabled:
            self._fired_counter.inc()
            self._queued_histogram.record(event.time - event.created)
            self._handler_histogram.record(elapsed)
            self._depth_gauge.set(len(self.queue))
        if tracer is not None:
            tracer.event_fired(
                name=event.name,
                sim_time=event.time,
                created_time=event.created,
                duration_s=elapsed,
                queue_depth=len(self.queue),
            )
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

        Also mirrored into the ``sim.events_fired`` counter of the
        attached metrics registry when one is enabled.
        """
        return self._fired

    @property
    def _events_fired(self) -> int:
        """Deprecated alias of :attr:`events_fired`.

        The counter used to be a bare underscore attribute; external
        readers should use the public property or the
        ``sim.events_fired`` metric.
        """
        warnings.warn(
            "Simulator._events_fired is deprecated; use the events_fired "
            "property or the sim.events_fired metrics counter",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._fired
