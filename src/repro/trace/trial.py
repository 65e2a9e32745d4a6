"""Trial runners.

Two paths produce the same artifact (a :class:`~repro.trace.records.TrialTrace`):

* :func:`run_fast_trial` — contention-free point-to-point trials.  The
  per-packet work is fully vectorized — interference sources contribute
  whole-trial column schedules (:func:`repro.interference.base.bulk_schedule`)
  that fold into the error model's bulk fates — and only damaged
  packets are materialized individually, making both the paper's
  half-million-packet office trials (Table 2) and the interference
  tables (10-14) tractable in seconds.
* :func:`run_mac_trial` — the full event-driven simulation (MACs,
  carrier sense, overlapping transmissions); used by the
  receive-threshold and competing-transmitter experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.framing.testpacket import FRAME_BYTES, TestPacketFactory, TestPacketSpec
from repro.interference.base import InterferenceSource, bulk_schedule
from repro.link.channel import RadioChannel
from repro.link.station import LinkStation
from repro.mac.csma import CsmaCaMac
from repro.obs import runtime as _obs
from repro.phy.modem import (
    DropReason,
    ModemConfig,
    ModemRxStatus,
    RxDisposition,
    WaveLanModem,
)
from repro.simkit.rng import RngRegistry
from repro.simkit.simulator import Simulator
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.records import LazyRecordList, PacketRecord, TrialTrace
from repro.trace.sender import BurstSender
from repro.units import AGC_MAX_READING, QUALITY_MAX


@dataclass
class TrialConfig:
    """A point-to-point measurement trial.

    Either give explicit ``tx_position``/``rx_position`` with a
    ``propagation`` model, or set ``mean_level`` directly (several paper
    tables are defined by their observed level, not their geometry).
    """

    name: str
    packets: int
    seed: int = 0
    spec: TestPacketSpec = field(default_factory=TestPacketSpec.default)
    propagation: PropagationModel = field(default_factory=PropagationModel)
    tx_position: Point = Point(0.0, 0.0)
    rx_position: Point = Point(7.0, 0.0)
    mean_level: Optional[float] = None
    modem_config: ModemConfig = field(default_factory=ModemConfig)
    interference: Sequence[InterferenceSource] = ()
    outsiders: Optional[OutsiderTraffic] = None
    # Receiver antenna branches (1 disables diversity; the X8 ablation).
    antenna_branches: int = 2

    def resolved_mean_level(self) -> float:
        if self.mean_level is not None:
            return self.mean_level
        return self.propagation.mean_level(self.tx_position, self.rx_position)


@dataclass
class TrialDispositions:
    """Ground-truth accounting of what happened to each sent packet.

    The *analysis* stage never sees this — it re-derives loss from the
    trace — but tests and calibration checks do.

    For a single-sender MAC trial every offered packet lands in exactly
    one bucket, so the dispositions conserve::

        packets == delivered + missed + threshold_filtered
                 + quality_filtered + controller_rejected
                 + mac_dropped + not_transmitted

    (see docs/TRACE_FORMAT.md).  Trials with extra transmitting
    stations fold their frames into the same channel counters, so the
    identity only binds the simple configuration.
    """

    delivered: int = 0
    missed: int = 0
    threshold_filtered: int = 0
    quality_filtered: int = 0
    outsiders_delivered: int = 0
    outsiders_lost: int = 0
    # MAC-path only: receiver's Ethernet controller rejected the frame.
    controller_rejected: int = 0
    # MAC-path only: the MAC gave up after exhausting backoff.
    mac_dropped: int = 0
    # MAC-path only: packets the horizon cut off before they ever made
    # it onto the air — still in the sender's queue or backoff, mid
    # transmission, or never generated by the burst source.  Earlier
    # versions silently dropped these from the accounting.
    not_transmitted: int = 0


@dataclass
class TrialOutput:
    """A trial's trace plus its ground-truth dispositions."""

    trace: TrialTrace
    dispositions: TrialDispositions


def _clamp_array(values: np.ndarray, maximum: int) -> np.ndarray:
    return np.clip(np.rint(values), 0, maximum).astype(np.int16)


def run_fast_trial(config: TrialConfig) -> TrialOutput:
    """Run a contention-free trial and return its trace.

    The trial runs under one ``trace.trial`` trace span, the layer name
    perfbench reports, so ``repro timeline`` attributes trial time the
    same way.
    """
    with _obs.trace_span("trace.trial", trial=config.name, mode="fast"):
        rng_registry = RngRegistry(config.seed).fork(config.name)
        factory = TestPacketFactory(config.spec)
        modem = WaveLanModem(config=config.modem_config)
        modem.antenna.branches = config.antenna_branches
        mean_level = config.resolved_mean_level()
        dispositions = TrialDispositions()
        trace = TrialTrace(
            name=config.name, spec=config.spec, packets_sent=config.packets
        )

        _run_bulk(config, factory, modem, mean_level, rng_registry, trace, dispositions)

        if config.outsiders is not None:
            _inject_outsiders(config, modem, rng_registry, trace, dispositions)

        _record_fast_trial_metrics(config, dispositions)

    return TrialOutput(trace=trace, dispositions=dispositions)


def _record_fast_trial_metrics(
    config: TrialConfig, dispositions: TrialDispositions
) -> None:
    """Account one completed fast trial in the metrics registry.

    The fast path bypasses the MAC and channel objects, so the MAC/link
    accounting those layers would have produced is synthesized here:
    every frame of a contention-free point-to-point trial is one
    collision-free MAC transmission offered to the link.
    """
    state = _obs.STATE
    if not state.enabled:
        return
    metrics = state.metrics
    metrics.counter("trace.trials", mode="fast").inc()
    metrics.counter("trace.packets_offered").inc(config.packets)
    metrics.counter("trace.packets_delivered").inc(dispositions.delivered)
    metrics.counter("mac.attempts", protocol="contention_free").inc(
        config.packets
    )
    metrics.counter("mac.transmissions", protocol="contention_free").inc(
        config.packets
    )
    metrics.counter("link.transmissions").inc(config.packets)
    metrics.counter("link.deliveries").inc(dispositions.delivered)
    for reason, count in (
        (DropReason.BOF_MISSED, dispositions.missed),
        (DropReason.BELOW_RECEIVE_THRESHOLD, dispositions.threshold_filtered),
        (DropReason.QUALITY_FILTERED, dispositions.quality_filtered),
    ):
        if count:
            metrics.counter("link.drops", reason=reason.value).inc(count)


def _run_bulk(
    config: TrialConfig,
    factory: TestPacketFactory,
    modem: WaveLanModem,
    mean_level: float,
    rng_registry: RngRegistry,
    trace: TrialTrace,
    dispositions: TrialDispositions,
) -> None:
    """The vectorized trial path (clean and interference-coupled).

    Whole-trial arrays decide every packet's fate; the Python loop only
    routes dispositions and materializes the damaged minority.
    """
    rng = rng_registry.stream("channel")
    n = config.packets
    error_model = modem.error_model
    stress_params = error_model.params.stress

    levels, antennas = modem.antenna.select_bulk(mean_level, n, rng)
    schedules = [
        bulk_schedule(source, config.rx_position, mean_level, n, rng)
        for source in config.interference
    ]
    flags = error_model.sample_bulk(levels, FRAME_BYTES, schedules, rng)
    missed = flags["missed"]

    jitter_sd = modem.agc.reading_jitter_sd
    if schedules:
        # Interference power folds into both AGC registers (mW sum, as
        # the scalar AgcModel readings do).
        signal_cont = modem.agc.readings_bulk(
            levels, [s.signal_sample_dbm for s in schedules], rng
        )
        ambient_draws = config.propagation.ambient.sample(rng, n)
        silence_cont = modem.agc.readings_bulk(
            ambient_draws, [s.silence_sample_dbm for s in schedules], rng
        )
    else:
        signal_cont = levels + rng.normal(0.0, jitter_sd, size=n)
        ambient_draws = config.propagation.ambient.sample(rng, n)
        silence_cont = ambient_draws + rng.normal(0.0, jitter_sd, size=n)
    signal_readings = _clamp_array(signal_cont, AGC_MAX_READING)
    silence_readings = _clamp_array(silence_cont, AGC_MAX_READING)
    quality_clean = _clamp_array(
        15.0
        - flags["stress"]
        - (rng.random(n) < stress_params.baseline_dip_probability),
        QUALITY_MAX,
    )

    threshold = config.modem_config.receive_threshold
    quality_threshold = config.modem_config.quality_threshold
    interesting = flags["needs_detail"]

    # Disposition routing, fully vectorized.  Candidates are packets
    # that survived the miss draw and the receive threshold — exactly
    # the set the scalar loop would have expanded detail for.
    candidates = ~missed & (signal_readings >= threshold)
    dispositions.missed += int(np.count_nonzero(missed))
    dispositions.threshold_filtered += int(np.count_nonzero(~missed)) - int(
        np.count_nonzero(candidates)
    )

    quality = quality_clean.copy()
    detail_rows = np.nonzero(candidates & interesting)[0]
    detail: Optional[dict[str, np.ndarray]] = None
    if detail_rows.size:
        detail = error_model.detail_bulk(
            stress=flags["stress"][detail_rows],
            truncated=flags["truncated"][detail_rows],
            hit=flags["hit"][detail_rows],
            residual_bits=flags["residual_bits"][detail_rows],
            frame_bytes=FRAME_BYTES,
            rng=rng,
            jam=[
                (totals[detail_rows], schedule.bursty)
                for totals, schedule in zip(flags["jam_totals"], schedules)
            ],
        )
        quality[detail_rows] = detail["quality"]

    deliver = candidates & (quality >= quality_threshold)
    dispositions.quality_filtered += int(np.count_nonzero(candidates)) - int(
        np.count_nonzero(deliver)
    )
    deliver_rows = np.nonzero(deliver)[0]
    dispositions.delivered += int(deliver_rows.size)

    def build_damaged_payloads() -> dict[int, bytes]:
        """Materialize the delivered slice of the damaged minority:
        pristine frames in one bulk build, all bit flips in one
        scattered xor, then the truncation cut per row.  Deferred with
        the record builder below — counters and dispositions never need
        the bytes."""
        damaged_payloads: dict[int, bytes] = {}
        if detail is None:
            return damaged_payloads
        deliver_local = np.nonzero(deliver[detail_rows])[0]
        if deliver_local.size:
            frames = factory.build_bulk(detail_rows[deliver_local])
            flip_counts = np.diff(detail["flip_offsets"])
            selected = np.zeros(detail_rows.size, dtype=bool)
            selected[deliver_local] = True
            flat_keep = np.repeat(selected, flip_counts)
            positions = detail["flip_positions"][flat_keep]
            source_row = np.repeat(
                np.arange(detail_rows.size), flip_counts
            )[flat_keep]
            frame_row = (np.cumsum(selected) - 1)[source_row]
            np.bitwise_xor.at(
                frames,
                (frame_row, positions >> 3),
                (np.uint8(0x80) >> (positions & 7).astype(np.uint8)),
            )
            cuts = detail["truncated_at"][deliver_local].tolist()
            for i, row in enumerate(detail_rows[deliver_local].tolist()):
                cut = cuts[i]
                damaged_payloads[row] = (
                    frames[i].tobytes() if cut < 0 else frames[i, :cut].tobytes()
                )
        return damaged_payloads

    # Record construction is deferred: the delivered columns (small
    # dtypes) plus the damaged payloads fully determine the records, so
    # consumers that never touch individual records — columnar writers,
    # ``packets_received`` — skip the per-packet object cost entirely.
    sequences = deliver_rows
    sig_col = signal_readings[deliver_rows]
    sil_col = silence_readings[deliver_rows]
    ant_col = antennas[deliver_rows]
    qual_col = quality[deliver_rows]

    def build_records() -> list[PacketRecord]:
        damaged_payloads = build_damaged_payloads()
        out: list[PacketRecord] = []
        append = out.append
        sigs = sig_col.tolist()
        sils = sil_col.tolist()
        ants = ant_col.tolist()
        quals = qual_col.tolist()
        for i, sequence in enumerate(sequences.tolist()):
            status = ModemRxStatus(
                signal_level=sigs[i],
                silence_level=sils[i],
                signal_quality=quals[i],
                antenna=ants[i],
            )
            payload = damaged_payloads.get(sequence)
            if payload is None:
                append(
                    PacketRecord.pristine(
                        factory, sequence, status, time=float(sequence)
                    )
                )
            else:
                append(
                    PacketRecord.from_bytes(payload, status, time=float(sequence))
                )
        return out

    trace.records = LazyRecordList(build_records, int(deliver_rows.size))


def _inject_outsiders(
    config: TrialConfig,
    modem: WaveLanModem,
    rng_registry: RngRegistry,
    trace: TrialTrace,
    dispositions: TrialDispositions,
) -> None:
    outsiders = config.outsiders
    rng = rng_registry.stream("outsiders")
    count = outsiders.frame_count(config.packets, rng)
    ambient = config.propagation.ambient
    step = config.packets / max(count, 1)
    for i in range(count):
        frame = outsiders.build_frame(rng)
        level = outsiders.sample_level(rng)
        samples = [
            source.sample_packet(config.rx_position, level, rng)
            for source in config.interference
        ]
        ambient_level = float(ambient.sample(rng, 1)[0])
        reception = modem.receive(frame, level, ambient_level, rng, samples)
        if reception.disposition is RxDisposition.DELIVERED:
            dispositions.outsiders_delivered += 1
            # Interleave at a pseudo-time inside the trial.  Test
            # packets sit at integer times, so nudge any outsider that
            # lands on one (possible whenever count > config.packets,
            # where step < 1 and midpoints can be whole numbers): the
            # nudge is under half the gap to the next outsider and under
            # one, so times stay strictly increasing and non-integer —
            # deterministic, collision-free ordering after the sort.
            position = (i + 0.5) * step
            if position.is_integer():
                position += 0.5 * min(step, 1.0)
            trace.records.append(
                PacketRecord.from_bytes(reception.data, reception.status, position)
            )
        else:
            dispositions.outsiders_lost += 1
    trace.records.sort(key=lambda record: record.time)


def run_mac_trial(
    config: TrialConfig,
    extra_stations: Sequence[tuple[LinkStation, Optional[bytes]]] = (),
    rate_bps: float = 1_400_000.0,
    horizon_s: Optional[float] = None,
) -> tuple[TrialOutput, RadioChannel]:
    """Run a trial through the full MAC/channel event simulation.

    ``extra_stations`` are additional stations; each optional ``bytes``
    payload makes that station a continuous transmitter of that frame
    (the paper's "raise the receive threshold to 35 so they transmit
    continuously" hostile configuration).

    ``horizon_s`` overrides the simulation stop time (default: triple
    the burst's nominal duration plus slack).  Packets the horizon cuts
    off — queued, in backoff, mid-flight, or never generated — are
    accounted as ``not_transmitted``, so the returned dispositions
    conserve the offered count (see :class:`TrialDispositions`).
    Runs under one ``trace.trial`` trace span, like
    :func:`run_fast_trial`.
    """
    with _obs.trace_span("trace.trial", trial=config.name, mode="mac"):
        sim = Simulator(seed=config.seed)
        channel = RadioChannel(
            sim,
            config.propagation,
            interference_sources=list(config.interference),
        )

        sender_station = LinkStation.tracing_station(1, config.tx_position)
        receiver_station = LinkStation.tracing_station(
            2, config.rx_position, modem_config=config.modem_config
        )
        channel.add_station(sender_station)
        channel.add_station(receiver_station)
        for station, payload in extra_stations:
            channel.add_station(station)

        sender_mac = CsmaCaMac(
            sim, channel, sender_station.station_id, sim.rng.stream("mac.sender")
        )
        burst = BurstSender.for_spec(
            sim, config.spec, sender_mac.enqueue, config.packets, rate_bps
        )
        burst.start()

        for station, payload in extra_stations:
            if payload is None:
                continue
            jammer_mac = CsmaCaMac(
                sim,
                channel,
                station.station_id,
                sim.rng.stream(f"mac.jammer.{station.station_id}"),
            )
            _keep_queue_full(sim, jammer_mac, payload)

        # Bound the run: the burst takes count * frame-interval at the
        # offered rate; allow generous slack for backoff, then stop (jammers
        # would otherwise refill forever).
        if horizon_s is None:
            horizon_s = config.packets * (FRAME_BYTES * 8.0 / rate_bps) * 3.0 + 1.0
        sim.run_until(horizon_s)

        trace = TrialTrace(
            name=config.name, spec=config.spec, packets_sent=config.packets
        )
        for received in receiver_station.log:
            trace.records.append(
                PacketRecord.from_bytes(received.data, received.status, received.time)
            )
        # Everything the horizon cut off before it reached the air: test
        # packets the burst never generated, frames still queued or in
        # backoff at the MAC, and a frame mid-transmission on the
        # channel whose completion event never fired.
        in_flight = 1 if sender_station.station_id in channel.active else 0
        not_transmitted = (
            (config.packets - burst.sent) + sender_mac.queue_length + in_flight
        )
        dispositions = TrialDispositions(
            delivered=len(receiver_station.log),
            missed=channel.stats.misses,
            threshold_filtered=channel.stats.threshold_filtered,
            quality_filtered=channel.stats.quality_filtered,
            controller_rejected=channel.stats.controller_rejected,
            mac_dropped=sender_mac.stats.drops,
            not_transmitted=not_transmitted,
        )
        state = _obs.STATE
        if state.enabled:
            state.metrics.counter("trace.trials", mode="mac").inc()
            state.metrics.counter("trace.packets_offered").inc(config.packets)
            state.metrics.counter("trace.packets_delivered").inc(
                dispositions.delivered
            )
    return TrialOutput(trace=trace, dispositions=dispositions), channel


def _keep_queue_full(sim: Simulator, mac: CsmaCaMac, payload: bytes) -> None:
    """Continuously refill a jammer MAC so it never goes idle."""

    def refill() -> None:
        while mac.queue_length < 4:
            mac.enqueue(payload)
        sim.schedule(0.002, refill, name="jammer.refill")

    sim.schedule(0.0, refill, name="jammer.refill")
