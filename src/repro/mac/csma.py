"""CSMA/CA (WaveLAN) and CSMA/CD (wired-Ethernet baseline) MACs.

The two protocols differ in what they treat as a collision:

* **CSMA/CD** (wired Ethernet): a station that becomes ready while the
  medium is busy transmits *as soon as the medium is free* — the
  optimistic assumption that it's the only waiter — and relies on
  collision *detection* to recover when that's wrong.
* **CSMA/CA** (WaveLAN): collisions can't be sensed on radio, so "any
  stations which become ready to transmit while the medium is busy will
  delay for a random interval when the medium becomes free" — a busy
  medium *is* a collision, and the random delay avoids the synchronized
  pile-up.

Both run against the abstract :class:`Medium` interface provided by
:class:`repro.link.channel.RadioChannel` (or the test doubles in the
unit tests).  Neither busy-polls: CSMA/CA sleeps out a backoff, and a
CSMA/CD waiter sleeps until a transmission leaves the air, then jumps
its jittered poll clock to the first poll after that moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from repro.mac.backoff import BackoffPolicy
from repro.obs import runtime as _obs
from repro.simkit.simulator import Simulator


class Medium(Protocol):
    """What a MAC needs from the shared medium.

    Carrier can only turn idle when a transmission leaves the air, so a
    waiting MAC registers with :meth:`notify_on_change` instead of
    sensing again and again.
    """

    def carrier_busy(self, station_id: int) -> bool:
        """Does ``station_id`` currently sense carrier (above threshold)?"""

    def begin_transmission(self, station_id: int, frame: bytes) -> float:
        """Start transmitting; returns the airtime duration in seconds."""

    def collision_detected(self, station_id: int) -> bool:
        """CSMA/CD only: is another transmission overlapping ours?"""

    def abort_transmission(self, station_id: int) -> None:
        """CSMA/CD only: stop our in-flight transmission (jam + abort)."""

    def notify_on_change(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, when a transmission next completes or
        is aborted (a callback registered during a wake waits for the
        change after that)."""


@dataclass
class MacStats:
    """Counters the experiments read out.

    ``collisions`` counts CSMA/CA "busy medium at ready time" events —
    the quantity Figure 3's collision-rate curve is built from
    ("Recall that WaveLAN considers 'medium busy' a collision").
    """

    attempts: int = 0
    transmissions: int = 0
    collisions: int = 0
    drops: int = 0

    @property
    def collision_free_fraction(self) -> float:
        """Fraction of attempts that went out without sensing a collision."""
        if self.attempts == 0:
            return 0.0
        return 1.0 - self.collisions / self.attempts


class _MacCounters:
    """One MAC's ``mac.*`` handles, each registered on first use."""

    __slots__ = ("attempts", "collisions", "drops", "backoff_slots", "transmissions")

    def __init__(self, protocol: str) -> None:
        metrics = _obs.STATE.metrics
        self.attempts = metrics.handle("mac.attempts", protocol=protocol)
        self.collisions = metrics.handle("mac.collisions", protocol=protocol)
        self.drops = metrics.handle("mac.drops", reason="backoff_exhausted")
        self.backoff_slots = metrics.handle("mac.backoff_slots", protocol=protocol)
        self.transmissions = metrics.handle("mac.transmissions", protocol=protocol)


@dataclass
class CsmaCaMac:
    """The WaveLAN MAC: carrier sense, collision avoidance, backoff."""

    sim: Simulator
    medium: Medium
    station_id: int
    rng: np.random.Generator
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    # Gap the station leaves after the medium goes idle before sampling
    # carrier again (models the hardware's interframe spacing).
    interframe_gap_s: float = 40e-6
    # Uniform jitter added to each gap.  Real stations' clocks drift;
    # without this, two stations sending equal-length frames phase-lock
    # and sample carrier only in each other's gaps — a simulation
    # artifact, not a radio behaviour.
    interframe_jitter_s: float = 30e-6
    on_sent: Optional[Callable[[bytes], None]] = None
    on_dropped: Optional[Callable[[bytes], None]] = None
    stats: MacStats = field(default_factory=MacStats)

    _busy: bool = field(default=False, init=False)
    _queue: list[bytes] = field(default_factory=list, init=False)
    _counters: _MacCounters = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._counters = _MacCounters("csma_ca")

    def _gap(self) -> float:
        return self.interframe_gap_s + self.rng.uniform(0.0, self.interframe_jitter_s)

    @property
    def queue_length(self) -> int:
        """Frames waiting (including the one being worked on)."""
        return len(self._queue)

    def enqueue(self, frame: bytes) -> None:
        """Hand a frame to the MAC for transmission."""
        self._queue.append(frame)
        if not self._busy:
            self._busy = True
            self.sim.schedule(0.0, self._attempt_head, name="mac.attempt")

    def _attempt_head(self, attempt: int = 0) -> None:
        if not self._queue:
            self._busy = False
            return
        frame = self._queue[0]
        self.stats.attempts += 1
        counters = self._counters
        counters.attempts.inc()
        if self.medium.carrier_busy(self.station_id):
            # Busy medium == collision under CSMA/CA.
            self.stats.collisions += 1
            counters.collisions.inc()
            next_attempt = attempt + 1
            if self.backoff.exhausted(next_attempt):
                self.stats.drops += 1
                counters.drops.inc()
                self._queue.pop(0)
                if self.on_dropped is not None:
                    self.on_dropped(frame)
                self.sim.schedule(0.0, self._attempt_head, name="mac.next")
                return
            # Draw order (gap, then backoff) must match the original
            # single-expression form to keep the rng stream stable.
            gap = self._gap()
            backoff_delay = self.backoff.delay(next_attempt, self.rng)
            counters.backoff_slots.inc(
                round(backoff_delay / self.backoff.slot_time_s)
            )
            self.sim.schedule(
                gap + backoff_delay,
                lambda: self._attempt_head(next_attempt),
                name="mac.retry",
            )
            return
        # Medium free: transmit now.
        duration = self.medium.begin_transmission(self.station_id, frame)
        self.stats.transmissions += 1
        counters.transmissions.inc()
        self._queue.pop(0)
        if self.on_sent is not None:
            self.on_sent(frame)
        self.sim.schedule(
            duration + self._gap(), self._attempt_head, name="mac.done"
        )


@dataclass
class CsmaCdMac:
    """Wired-Ethernet-style CSMA/CD, the ablation baseline.

    Optimistic: a waiter transmits the moment the medium frees up; a
    detected collision aborts the transmission and triggers backoff.
    (The radio channel reports ``collision_detected`` truthfully, which
    on a real radio would be impossible — that is the point the
    ablation benchmark makes.)

    A station that senses carrier polls it on a jittered clock: each
    poll is ``poll_interval_s * (0.5 + u)`` after the last, ``u`` drawn
    from ``rng``.  Rather than fire those polls while the carrier is
    busy, the station records when it started waiting and sleeps until
    the medium reports a change (:meth:`Medium.notify_on_change`).  It
    then advances the same poll clock past the change, drawing ``rng``
    value for value as the polls would have, and schedules one
    ``mac.poll`` at the first poll time after it.  Every MAC decision,
    and every draw of ``rng``, is the busy-polling station's, at the
    same float times.  Only the carrier-jitter draws of the skipped
    polls are gone, which changes nothing as long as jitter alone can
    never push a sensed reading below the receive threshold (nor an
    unsensed one above it).  The X3 geometry is far from that edge:
    its weakest sender pair reads 31.6 levels against a threshold of
    3, with a jitter sd of 0.35.
    """

    sim: Simulator
    medium: Medium
    station_id: int
    rng: np.random.Generator
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    poll_interval_s: float = 20e-6
    # Ethernet-style interframe spacing between back-to-back frames;
    # also guarantees the next attempt fires strictly after our own
    # completion event (floating-point addition is not associative).
    interframe_gap_s: float = 10e-6
    on_sent: Optional[Callable[[bytes], None]] = None
    on_dropped: Optional[Callable[[bytes], None]] = None
    stats: MacStats = field(default_factory=MacStats)

    _busy: bool = field(default=False, init=False)
    _queue: list[bytes] = field(default_factory=list, init=False)
    _counters: _MacCounters = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._counters = _MacCounters("csma_cd")

    def enqueue(self, frame: bytes) -> None:
        self._queue.append(frame)
        if not self._busy:
            self._busy = True
            self.sim.schedule(0.0, self._attempt_head, name="mac.attempt")

    def _attempt_head(self, attempt: int = 0) -> None:
        if not self._queue:
            self._busy = False
            return
        if self.medium.carrier_busy(self.station_id):
            # Optimistically wait until free, then fire immediately.
            since = self.sim.now
            self.medium.notify_on_change(lambda: self._wake(since, attempt))
            return
        frame = self._queue[0]
        self.stats.attempts += 1
        self._counters.attempts.inc()
        duration = self.medium.begin_transmission(self.station_id, frame)
        # Collision window: check shortly after the transmission starts.
        self.sim.schedule(
            self.poll_interval_s,
            lambda: self._after_start(frame, duration, attempt),
            name="mac.cd-check",
        )

    def _wake(self, since: float, attempt: int) -> None:
        """Schedule the first poll after now on the clock started at ``since``.

        The poll clock is jittered so independent stations' polls do
        not lock into one lattice (their clocks drift in reality).
        Every poll before now would have read busy, so only its draw
        matters: ``t = t + interval * (0.5 + u)`` from ``since`` until
        ``t`` passes now, the float sums a polling station's
        ``schedule`` calls made.
        """
        now = self.sim.now
        interval = self.poll_interval_s
        rng = self.rng
        t = since
        # Each step is at most 1.5 poll intervals, so this many draws
        # always stay short of now: draw them in one call and add them
        # in order (``cumsum`` is sequential, float for float).
        certain = int((now - t) / (1.5 * interval)) - 1
        if certain > 0:
            steps = interval * (0.5 + rng.random(certain))
            steps[0] += t
            t = float(np.cumsum(steps)[-1])
        while t <= now:
            t = t + interval * (0.5 + rng.random())
        self.sim.schedule_at(t, lambda: self._attempt_head(attempt), name="mac.poll")

    def _after_start(self, frame: bytes, duration: float, attempt: int) -> None:
        counters = self._counters
        if self.medium.collision_detected(self.station_id):
            self.medium.abort_transmission(self.station_id)
            self.stats.collisions += 1
            counters.collisions.inc()
            next_attempt = attempt + 1
            if self.backoff.exhausted(next_attempt):
                self.stats.drops += 1
                counters.drops.inc()
                self._queue.pop(0)
                if self.on_dropped is not None:
                    self.on_dropped(frame)
                self.sim.schedule(0.0, self._attempt_head, name="mac.next")
                return
            delay = self.backoff.delay(next_attempt, self.rng)
            counters.backoff_slots.inc(round(delay / self.backoff.slot_time_s))
            self.sim.schedule(
                delay, lambda: self._attempt_head(next_attempt), name="mac.retry"
            )
            return
        # No collision: let the transmission complete.
        self.stats.transmissions += 1
        counters.transmissions.inc()
        self._queue.pop(0)
        if self.on_sent is not None:
            self.on_sent(frame)
        remaining = max(0.0, duration - self.poll_interval_s)
        # Jittered interframe spacing (clock drift) — without it,
        # saturated blind-CD stations phase-lock into a permanent
        # every-frame collision.
        gap = self.interframe_gap_s * (0.5 + 2.0 * self.rng.random())
        self.sim.schedule(
            remaining + gap, self._attempt_head, name="mac.done"
        )
