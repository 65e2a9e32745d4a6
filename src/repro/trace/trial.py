"""Trial runners.

Two paths produce a trial's trace:

* :func:`run_fast_trial` — contention-free point-to-point trials.  The
  per-packet work is fully vectorized — interference sources contribute
  whole-trial column schedules (:func:`repro.interference.base.bulk_schedule`)
  that fold into the error model's bulk fates — and the trace is
  assembled straight from those columns as a
  :class:`~repro.trace.columnar.ColumnarTrace`, making both the paper's
  half-million-packet office trials (Table 2) and the interference
  tables (10-14) tractable in seconds.
* :func:`run_mac_trial` — the full event-driven simulation (MACs,
  carrier sense, overlapping transmissions); used by the
  receive-threshold and competing-transmitter experiments.  Its
  receiver logs records, columnarized once when the run ends.

Both return the trace as a :class:`~repro.trace.columnar.ColumnarTrace`.
"""

from __future__ import annotations

import ctypes
import functools
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
    RxDisposition,
    WaveLanModem,
)
from repro.simkit.rng import RngRegistry
from repro.simkit.simulator import Simulator
from repro.trace.columnar import ColumnarTrace, start_offsets
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.records import PacketRecord
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

    trace: ColumnarTrace
    dispositions: TrialDispositions


def _clamp_array(values: np.ndarray, maximum: int) -> np.ndarray:
    return np.clip(np.rint(values), 0, maximum).astype(np.int16)


def run_fast_trial(config: TrialConfig) -> TrialOutput:
    """Run a contention-free trial and return its trace.

    The trace is columnar (:class:`ColumnarTrace`), assembled once from
    the trial's columns.  The trial runs under one ``trace.trial`` trace
    span, the layer name perfbench reports, so ``repro timeline``
    attributes trial time the same way.
    """
    with _obs.trace_span("trace.trial", trial=config.name, mode="fast"):
        rng_registry = RngRegistry(config.seed).fork(config.name)
        modem = WaveLanModem(config=config.modem_config)
        modem.antenna.branches = config.antenna_branches
        mean_level = config.resolved_mean_level()
        dispositions = TrialDispositions()

        rows = _run_bulk(config, modem, mean_level, rng_registry, dispositions)
        outsiders = (
            _inject_outsiders(config, modem, rng_registry, dispositions)
            if config.outsiders is not None
            else []
        )
        trace = _assemble(config, TestPacketFactory(config.spec), rows, outsiders)

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
    modem: WaveLanModem,
    mean_level: float,
    rng_registry: RngRegistry,
    dispositions: TrialDispositions,
) -> dict[str, np.ndarray]:
    """The vectorized trial path (clean and interference-coupled).

    Whole-trial arrays decide every packet's fate and route the
    dispositions.  Returns the delivered rows' columns — sequence, the
    four status registers and the received length (short where
    truncation cut the frame) — and the damaged rows' bit flips as
    ``detail_bulk`` grouped them, with each damaged row's index among
    the delivered rows (``flip_owner``, -1 where it was not delivered).
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

    rows = {
        "sequences": deliver_rows,
        "levels": signal_readings[deliver_rows],
        "silences": silence_readings[deliver_rows],
        "qualities": quality[deliver_rows],
        "antennas": antennas[deliver_rows],
        "lengths": np.full(deliver_rows.size, FRAME_BYTES, dtype=np.uint32),
        "flip_owner": np.zeros(0, dtype=np.int64),
        "flip_offsets": np.zeros(1, dtype=np.int64),
        "flip_positions": np.zeros(0, dtype=np.int64),
    }
    if detail is None:
        return rows
    deliver_local = np.nonzero(deliver[detail_rows])[0]
    delivered_at = np.searchsorted(deliver_rows, detail_rows[deliver_local])
    cuts = detail["truncated_at"][deliver_local]
    rows["lengths"][delivered_at[cuts >= 0]] = cuts[cuts >= 0]
    rows["flip_owner"] = np.full(detail_rows.size, -1, dtype=np.int64)
    rows["flip_owner"][deliver_local] = delivered_at
    rows["flip_offsets"] = detail["flip_offsets"]
    rows["flip_positions"] = detail["flip_positions"]
    return rows


def _inject_outsiders(
    config: TrialConfig,
    modem: WaveLanModem,
    rng_registry: RngRegistry,
    dispositions: TrialDispositions,
) -> list[PacketRecord]:
    """The foreign frames the receiver delivered, in time order."""
    outsiders = config.outsiders
    rng = rng_registry.stream("outsiders")
    count = outsiders.frame_count(config.packets, rng)
    ambient = config.propagation.ambient
    step = config.packets / max(count, 1)
    delivered: list[PacketRecord] = []
    for i in range(count):
        frame = outsiders.build_frame(rng)
        level = outsiders.sample_level(rng)
        samples = [
            source.sample_packet(config.rx_position, level, rng)
            for source in config.interference
        ]
        ambient_level = ambient.sample_level(rng)
        reception = modem.receive(frame, level, ambient_level, rng, samples)
        if reception.disposition is RxDisposition.DELIVERED:
            dispositions.outsiders_delivered += 1
            # Interleave at a pseudo-time inside the trial.  Test
            # packets sit at integer times, so nudge any outsider that
            # lands on one (possible whenever count > config.packets,
            # where step < 1 and midpoints can be whole numbers): the
            # nudge is under half the gap to the next outsider and under
            # one, so times stay strictly increasing and non-integer —
            # deterministic, collision-free ordering after the merge.
            position = (i + 0.5) * step
            if position.is_integer():
                position += 0.5 * min(step, 1.0)
            delivered.append(
                PacketRecord.from_bytes(reception.data, reception.status, position)
            )
        else:
            dispositions.outsiders_lost += 1
    return delivered


def _assemble(
    config: TrialConfig,
    factory: TestPacketFactory,
    rows: dict[str, np.ndarray],
    outsiders: list[PacketRecord],
) -> ColumnarTrace:
    """The trial's trace: every column now, its frames unbuilt.

    Delivered outsider rows merge in by time.  Test rows sit at integer
    times and outsiders never do, so a stable sort of the two time
    columns is the merge order.  The payload is :func:`_frames` over
    the trial's frame inputs, which builds any range of rows.
    """
    columns = {
        "times": rows["sequences"].astype(np.float64),
        "levels": rows["levels"],
        "silences": rows["silences"],
        "qualities": rows["qualities"],
        "antennas": rows["antennas"],
        "lengths": rows["lengths"],
    }
    flip_rows = np.repeat(rows["flip_owner"], np.diff(rows["flip_offsets"]))
    delivered = flip_rows >= 0
    inputs = {
        "sequences": rows["sequences"],
        "lengths": rows["lengths"],
        "flip_rows": flip_rows[delivered],
        "flip_positions": rows["flip_positions"][delivered],
    }
    extra = None
    if outsiders:
        extra = ColumnarTrace.from_records(
            outsiders, config.name, config.spec, config.packets
        )
        order = np.argsort(
            np.concatenate([columns["times"], extra.times]), kind="stable"
        )
        columns = {
            key: np.concatenate([column, getattr(extra, key)])[order]
            for key, column in columns.items()
        }
        inputs["outsider_rows"] = np.flatnonzero(
            order >= len(rows["sequences"])
        )
    return ColumnarTrace(
        name=config.name,
        spec=config.spec,
        packets_sent=config.packets,
        offsets=start_offsets(columns["lengths"]),
        payload=functools.partial(_frames, factory, inputs, extra),
        **columns,
    )


def _frames(
    factory: TestPacketFactory,
    rows: dict[str, np.ndarray],
    outsiders: Optional[ColumnarTrace],
    start: int,
    stop: int,
) -> np.ndarray:
    """Rows ``[start, stop)`` of the trial's trace: their frame bytes,
    back to back in time order.

    ``rows`` holds the delivered test rows' ``sequences`` and
    ``lengths``, each delivered bit flip's test row (``flip_rows``,
    nondecreasing) and bit (``flip_positions``), and, when there are
    ``outsiders``, each outsider's row in the merged trace
    (``outsider_rows``, increasing).  The range's test rows are a run
    ``[first, last)`` of the delivered rows, and its outsiders a run of
    the outsider rows.  Pristine frames
    come from one :meth:`TestPacketFactory.build_bulk` of the run's
    sequences, the run's delivered bit flips land in one scattered xor,
    truncation cuts close up in place, and the outsiders' bytes go in
    between the test rows they follow.
    """
    if outsiders is None:
        first, last, inside = start, stop, np.zeros(0, dtype=np.int64)
    else:
        at = rows["outsider_rows"]
        lo, hi = np.searchsorted(at, [start, stop]).tolist()
        first, last = start - lo, stop - hi
        # Test rows of the range before each of its outsiders.
        inside = at[lo:hi] - np.arange(lo, hi) - first
    frames = factory.build_bulk(rows["sequences"][first:last])
    flip_rows = rows["flip_rows"]
    a, b = np.searchsorted(flip_rows, [first, last]).tolist()
    positions = rows["flip_positions"][a:b]
    np.bitwise_xor.at(
        frames,
        (flip_rows[a:b] - first, positions >> 3),
        np.uint8(0x80) >> (positions & 7).astype(np.uint8),
    )
    lengths = rows["lengths"][first:last]
    payload = _close_cuts(frames, lengths)
    if not inside.size:
        return payload
    bounds = [*start_offsets(lengths).tolist(), int(payload.shape[0])]
    begins = outsiders.offsets[lo:hi]
    ends = begins + outsiders.lengths[lo:hi]
    pieces = []
    taken = 0
    for count, begin, end in zip(inside.tolist(), begins.tolist(), ends.tolist()):
        pieces.append(payload[bounds[taken] : bounds[count]])
        pieces.append(outsiders.payload[begin:end])
        taken = count
    pieces.append(payload[bounds[taken] :])
    return np.concatenate(pieces)


def _close_cuts(frames: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``frames``' rows cut to ``lengths``, back to back, in place.

    Every row moves left by the bytes cut before it, so moving the runs
    of rows between cuts first to last never overwrites bytes a later
    run has yet to read; each run is one ``memmove``.  A trial without
    cuts is its frames.
    """
    flat = frames.reshape(-1)
    width = frames.shape[1]
    if (lengths > width).any():
        raise ValueError("a row cannot outgrow its frame")
    cut_rows = np.nonzero(lengths < width)[0]
    if not cut_rows.size:
        return flat
    offsets = start_offsets(lengths).tolist()
    ends = [*(cut_rows + 1).tolist(), len(lengths)]
    starts = [0, *ends[:-1]]
    base = flat.ctypes.data
    for start, end in zip(starts, ends):
        if start == end:
            continue
        source, target = start * width, offsets[start]
        size = offsets[end - 1] + int(lengths[end - 1]) - target
        ctypes.memmove(base + target, base + source, size)
    return flat[: offsets[-1] + int(lengths[-1])]


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

        trace = ColumnarTrace.from_records(
            [
                PacketRecord.from_bytes(received.data, received.status, received.time)
                for received in receiver_station.log
            ],
            config.name,
            config.spec,
            config.packets,
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
