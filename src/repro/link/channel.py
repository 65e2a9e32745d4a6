"""The shared radio channel.

Implements the :class:`repro.mac.csma.Medium` protocol for the MACs and
the delivery pipeline for receivers:

* **carrier sense** — a station senses carrier when any other ongoing
  transmission's mean level at its position is at or above its receive
  threshold ("raising the threshold ... hide[s] carrier sense from the
  Ethernet chip", paper Section 5.3); a MAC that found the carrier busy
  asks to be woken when a transmission next leaves the air;
* **delivery** — when a transmission completes, every other station's
  modem pipeline is offered the frame, with co-channel overlap folded in
  as interference samples;
* **capture** — overlap does not equal loss: "we conjecture ... a
  'capture effect' inherent in its multipath-resistant receiver design"
  (Section 7.4).  A desired signal several levels above the sum of
  overlapping energy survives with mild damage; weaker ones are stomped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.environment.propagation import PropagationModel
from repro.interference.base import InterferenceSource
from repro.link.station import LinkStation, ReceivedFrame
from repro.obs import runtime as _obs
from repro.phy.errormodel import InterferenceSample
from repro.phy.modem import DropReason, RxDisposition
from repro.simkit.event import Event
from repro.simkit.simulator import Simulator
from repro.units import level_to_dbm

DATA_RATE_BPS = 2_000_000.0

# Capture-effect calibration: margins are desired-minus-interference in
# level units.  Above CAPTURE_SAFE the overlap is harmless; below
# CAPTURE_FAIL the packet is effectively stomped; in between, damage
# probability interpolates.
CAPTURE_SAFE_MARGIN = 10.0
CAPTURE_FAIL_MARGIN = 0.0


def _logistic(x: float) -> float:
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


@dataclass
class ActiveTransmission:
    """A frame currently on the air."""

    station_id: int
    frame: bytes
    start: float
    end: float
    completion: Event
    aborted: bool = False
    overlapped: bool = False
    overlaps: list["ActiveTransmission"] = field(default_factory=list)


@dataclass
class ChannelStats:
    """Aggregate channel-level accounting for experiments."""

    transmissions: int = 0
    aborted: int = 0
    deliveries: int = 0
    misses: int = 0
    threshold_filtered: int = 0
    quality_filtered: int = 0
    controller_rejected: int = 0


class RadioChannel:
    """The single shared 900 MHz channel all WaveLAN units occupy.

    Stations never move during a run, so the channel computes each
    ordered (sender id, receiver id) pair's ``propagation.mean_level``
    once, when the later of the two stations is added, and keeps it in
    :attr:`mean_levels` (a station's pair with itself included).  It
    also keeps each station's ``rx.{id}`` and ``carrier.{id}`` random
    streams, and holds its ``link.*`` counter handles (see
    :meth:`repro.obs.metrics.Metrics.handle`).
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        data_rate_bps: float = DATA_RATE_BPS,
        interference_sources: Sequence[InterferenceSource] = (),
        collision_detection_enabled: bool = True,
        carrier_detect_delay_s: float = 15e-6,
    ) -> None:
        self.sim = sim
        self.propagation = propagation
        self.data_rate_bps = data_rate_bps
        self.interference_sources = list(interference_sources)
        # On a real radio, a transmitter cannot hear a collision ("it is
        # difficult to detect collisions in this radio environment") —
        # the MAC ablation disables detection to model that.
        self.collision_detection_enabled = collision_detection_enabled
        # A transmission is not sensed until the receiver's front end
        # has had time to acquire it (propagation + PLL settling); this
        # finite window is what makes post-busy pile-ups possible.
        self.carrier_detect_delay_s = carrier_detect_delay_s
        self.stations: dict[int, LinkStation] = {}
        self.mean_levels: dict[tuple[int, int], float] = {}
        self.active: dict[int, ActiveTransmission] = {}
        self.stats = ChannelStats()
        self._waiters: list[Callable[[], None]] = []
        self._rx_rng: dict[int, np.random.Generator] = {}
        self._carrier_rng: dict[int, np.random.Generator] = {}
        metrics = _obs.STATE.metrics
        self._transmissions = metrics.handle("link.transmissions")
        self._deliveries = metrics.handle("link.deliveries")
        self._drops = metrics.family("link.drops", "reason")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_station(self, station: LinkStation) -> None:
        station_id = station.station_id
        if station_id in self.stations:
            raise ValueError(f"duplicate station id {station_id}")
        self.stations[station_id] = station
        mean_level = self.propagation.mean_level
        for other_id, other in self.stations.items():
            # The station's own pair too: a receiver's earlier frame can
            # be among the overlaps of the frame it receives.
            self.mean_levels[station_id, other_id] = mean_level(
                station.position, other.position
            )
            self.mean_levels[other_id, station_id] = mean_level(
                other.position, station.position
            )
        self._rx_rng[station_id] = self.sim.rng.stream(f"rx.{station_id}")
        self._carrier_rng[station_id] = self.sim.rng.stream(f"carrier.{station_id}")

    def airtime(self, frame: bytes) -> float:
        """Seconds needed to transmit ``frame`` at the channel data rate."""
        return len(frame) * 8.0 / self.data_rate_bps

    # ------------------------------------------------------------------
    # Medium protocol (MAC side)
    # ------------------------------------------------------------------
    def carrier_busy(self, station_id: int) -> bool:
        """Does ``station_id`` sense carrier right now?

        Carrier from each ongoing transmission is compared, with the
        per-sample AGC jitter, against the sensing station's receive
        threshold.
        """
        listener = self.stations[station_id]
        rng = self._carrier_rng[station_id]
        for tx in self.active.values():
            if tx.station_id == station_id or tx.aborted:
                continue
            if self.sim.now - tx.start < self.carrier_detect_delay_s:
                continue  # too new: not yet acquired by the listener
            level = self.mean_levels[tx.station_id, station_id]
            reading = level + rng.normal(0.0, listener.modem.agc.reading_jitter_sd)
            if reading >= listener.receive_threshold:
                return True
        return False

    def begin_transmission(self, station_id: int, frame: bytes) -> float:
        if station_id in self.active:
            raise RuntimeError(f"station {station_id} is already transmitting")
        duration = self.airtime(frame)
        start = self.sim.now
        tx = ActiveTransmission(
            station_id=station_id,
            frame=frame,
            start=start,
            end=start + duration,
            completion=None,  # type: ignore[arg-type] -- set just below
        )
        # Record overlap both ways for collision detection / capture;
        # references survive the other transmission's completion.
        for other in self.active.values():
            other.overlapped = True
            tx.overlapped = True
            other.overlaps.append(tx)
            tx.overlaps.append(other)
        tx.completion = self.sim.schedule(
            duration, lambda: self._complete(tx), name=f"tx.end.{station_id}"
        )
        self.active[station_id] = tx
        self.stats.transmissions += 1
        self._transmissions.inc()
        return duration

    def collision_detected(self, station_id: int) -> bool:
        if not self.collision_detection_enabled:
            return False
        tx = self.active.get(station_id)
        return bool(tx and tx.overlapped)

    def abort_transmission(self, station_id: int) -> None:
        tx = self.active.pop(station_id, None)
        if tx is None:
            return
        tx.aborted = True
        self.sim.cancel(tx.completion)
        self.stats.aborted += 1
        self._drops[DropReason.MAC_COLLISION.value].inc()
        self._wake_waiters()

    def notify_on_change(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once, when a transmission next leaves the air.

        A transmission leaves the air when it completes (after its
        deliveries) or is aborted; only then can a busy carrier turn
        idle.  Waiters are one-shot: a callback registered while the
        waiters of one change run waits for the next change.
        """
        self._waiters.append(callback)

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _overlap_samples(
        self, tx: ActiveTransmission, receiver: LinkStation, signal_level: float
    ) -> list[InterferenceSample]:
        """Convert co-channel overlap into interference samples."""
        samples: list[InterferenceSample] = []
        for other in tx.overlaps:
            if other.station_id == tx.station_id or other.aborted:
                continue
            overlap_s = min(tx.end, other.end) - max(tx.start, other.start)
            if overlap_s <= 0.0:
                continue
            overlap_fraction = overlap_s / (tx.end - tx.start)
            interference_level = self.mean_levels[
                other.station_id, receiver.station_id
            ]
            margin = signal_level - interference_level
            # Stomp strength rises as the desired signal's advantage
            # shrinks below the capture-safe margin; above it the
            # receiver's capture makes overlap essentially harmless.
            stomp = _logistic((CAPTURE_SAFE_MARGIN / 2.0 - margin) / 1.5)
            covers_start = other.start <= tx.start
            samples.append(
                InterferenceSample(
                    source_name=f"overlap:{other.station_id}",
                    signal_sample_dbm=level_to_dbm(interference_level),
                    silence_sample_dbm=(
                        level_to_dbm(interference_level)
                        if other.end >= tx.end
                        else None
                    ),
                    jam_ber=2.0e-3 * stomp * overlap_fraction,
                    miss_probability=stomp if covers_start else 0.15 * stomp,
                    truncate_probability=(
                        0.0 if covers_start else stomp * overlap_fraction
                    ),
                    clock_stress=2.0 * stomp,
                    bursty=True,
                )
            )
        return samples

    def _external_samples(
        self, receiver: LinkStation, signal_level: float, rng: np.random.Generator
    ) -> list[InterferenceSample]:
        return [
            source.sample_packet(receiver.position, signal_level, rng)
            for source in self.interference_sources
        ]

    def _complete(self, tx: ActiveTransmission) -> None:
        self.active.pop(tx.station_id, None)
        for receiver in self.stations.values():
            if receiver.station_id == tx.station_id:
                continue
            if receiver.station_id in self.active:
                # Half duplex: a station that is itself transmitting
                # cannot receive.
                self._drops[DropReason.HALF_DUPLEX.value].inc()
                continue
            self._deliver(tx, receiver)
        self._wake_waiters()

    def _deliver(self, tx: ActiveTransmission, receiver: LinkStation) -> None:
        rng = self._rx_rng[receiver.station_id]
        signal_level = self.mean_levels[tx.station_id, receiver.station_id]
        samples = self._overlap_samples(tx, receiver, signal_level)
        samples.extend(self._external_samples(receiver, signal_level, rng))
        ambient = self.propagation.ambient.sample_level(rng)
        reception = receiver.modem.receive(
            tx.frame, signal_level, ambient, rng, samples
        )
        if reception.disposition is not RxDisposition.DELIVERED:
            if reception.disposition is RxDisposition.MISSED:
                self.stats.misses += 1
            elif reception.disposition is RxDisposition.THRESHOLD_FILTERED:
                self.stats.threshold_filtered += 1
            else:
                self.stats.quality_filtered += 1
            reason = DropReason.from_disposition(reception.disposition)
            self._drops[reason.value].inc()
            return
        result = receiver.controller.receive(reception.data)
        if not result.delivered:
            self.stats.controller_rejected += 1
            self._drops[DropReason.CONTROLLER_REJECTED.value].inc()
            return
        self.stats.deliveries += 1
        self._deliveries.inc()
        receiver.deliver(
            ReceivedFrame(
                data=reception.data,
                status=reception.status,
                time=self.sim.now,
                crc_ok=result.crc_ok,
            )
        )
