"""Ablation X3 — why WaveLAN runs CSMA/CA instead of CSMA/CD (Section 2).

"In CSMA/CD, a station which becomes ready to transmit while the medium
is busy will make its first transmission attempt as soon as the medium
is free, based on the optimistic assumption that it is the only waiting
station.  If this assumption is wrong, all waiting stations will
quickly learn that when they sense a collision.  Since WaveLAN cannot
sense collisions, they result in packet losses ... CSMA/CA attempts to
avoid collision losses by treating a busy medium as a collision."

Three MAC variants contend on the same saturated three-sender channel:

* ``csma_ca`` — WaveLAN's protocol: random delay after busy medium;
* ``csma_cd_wired`` — the Ethernet baseline with *working* collision
  detection (physically impossible on this radio; included as the
  wired-world reference);
* ``csma_cd_blind`` — CSMA/CD optimism on a radio that cannot detect:
  the synchronized post-busy pile-up turns directly into packet loss.

The receiver-side figure of merit is intact test frames delivered per
frame offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.link.channel import RadioChannel
from repro.link.station import LinkStation
from repro.mac.csma import CsmaCaMac, CsmaCdMac, MacStats
from repro.simkit.simulator import Simulator

VARIANTS = ("csma_ca", "csma_cd_wired", "csma_cd_blind")
SENDERS = 3
FRAMES_PER_SENDER = 120
FRAME_SIZE = 1072


@dataclass
class VariantOutcome:
    variant: str
    frames_offered: int
    frames_intact: int
    collisions: int
    drops: int
    sim_time_s: float

    @property
    def delivery_fraction(self) -> float:
        if self.frames_offered == 0:
            return 0.0
        return self.frames_intact / self.frames_offered

    @property
    def goodput_bps(self) -> float:
        if self.sim_time_s <= 0:
            return 0.0
        return self.frames_intact * FRAME_SIZE * 8 / self.sim_time_s


@dataclass
class MacAblationResult:
    outcomes: list[VariantOutcome] = field(default_factory=list)

    def outcome(self, variant: str) -> VariantOutcome:
        for o in self.outcomes:
            if o.variant == variant:
                return o
        raise KeyError(variant)


def _sender_payload(sender_index: int, frame_index: int) -> bytes:
    """A recognizable per-sender frame (marker + padding)."""
    marker = bytes([0xA0 + sender_index]) * 8 + frame_index.to_bytes(4, "big")
    return marker + bytes(FRAME_SIZE - len(marker))


def _run_variant(variant: str, scale: float, seed: int) -> VariantOutcome:
    sim = Simulator(seed=seed)
    # Everyone in one room: all senders hear each other (no hidden
    # terminals in this ablation) and the receiver hears everyone.
    propagation = PropagationModel.office()
    channel = RadioChannel(
        sim,
        propagation,
        collision_detection_enabled=(variant == "csma_cd_wired"),
    )
    receiver = LinkStation.tracing_station(99, Point(0.0, 0.0))
    channel.add_station(receiver)

    frames_per_sender = max(20, int(FRAMES_PER_SENDER * scale))
    macs = []
    for sender_index in range(SENDERS):
        station = LinkStation.tracing_station(
            sender_index + 1, Point(4.0 + sender_index, 3.0 - sender_index)
        )
        channel.add_station(station)
        rng = sim.rng.stream(f"mac.{sender_index}")
        if variant == "csma_ca":
            mac = CsmaCaMac(sim, channel, station.station_id, rng)
        else:
            mac = CsmaCdMac(sim, channel, station.station_id, rng)
        for frame_index in range(frames_per_sender):
            mac.enqueue(_sender_payload(sender_index, frame_index))
        macs.append(mac)

    sim.run()

    offered = SENDERS * frames_per_sender
    # Intact frames: full length and byte-exact sender payloads.
    sent_payloads = {
        _sender_payload(s, f)
        for s in range(SENDERS)
        for f in range(frames_per_sender)
    }
    intact = sum(1 for f in receiver.log if f.data in sent_payloads)
    stats = MacStats()
    for mac in macs:
        stats.attempts += mac.stats.attempts
        stats.collisions += mac.stats.collisions
        stats.drops += mac.stats.drops
    return VariantOutcome(
        variant=variant,
        frames_offered=offered,
        frames_intact=intact,
        collisions=stats.collisions,
        drops=stats.drops,
        sim_time_s=sim.now,
    )


def _aggregate(ctx: PlanContext, values: list) -> MacAblationResult:
    return MacAblationResult(outcomes=list(values))


def _render(result: MacAblationResult, scale: float) -> None:
    print("Ablation X3: MAC protocol under 3-sender contention "
          f"(scale={scale:g})")
    print(f"{'variant':>14} | {'offered':>7} | {'intact':>6} | "
          f"{'delivery':>8} | {'collisions':>10} | {'goodput':>10}")
    for o in result.outcomes:
        print(f"{o.variant:>14} | {o.frames_offered:7d} | {o.frames_intact:6d} | "
              f"{100 * o.delivery_fraction:7.1f}% | {o.collisions:10d} | "
              f"{o.goodput_bps / 1e6:7.2f} Mb/s")


def _report_lines(report, result: MacAblationResult, scale: float) -> None:
    report.add(
        "X3 MAC", "blind CSMA/CD delivery", "(rationale for CSMA/CA)",
        f"{100 * result.outcome('csma_cd_blind').delivery_fraction:.0f}%",
        result.outcome("csma_cd_blind").delivery_fraction < 0.3,
    )
    report.add(
        "X3 MAC", "CSMA/CA delivery", "near wired",
        f"{100 * result.outcome('csma_ca').delivery_fraction:.0f}%",
        result.outcome("csma_ca").delivery_fraction > 0.85,
    )


def _report_scale(scale: float) -> float:
    # MAC statistics need enough frames to wash out the startup
    # transient (all three senders fire at t=0).
    return max(scale, 0.7)


@experiment(
    name="mac",
    artifact="X3",
    description="X3: CSMA/CA vs CSMA/CD ablation",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=83,
    report_lines=_report_lines,
    report_scale=_report_scale,
    # The wired CSMA/CD reference is not a report line.
    report_extras={"trials": ("csma_cd_blind", "csma_ca")},
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per MAC variant on the saturated channel."""
    return [
        TrialPlan(variant, _run_variant, {"variant": variant, "scale": ctx.scale})
        for variant in VARIANTS
    ]


def run(scale: float = 1.0, seed: int = 83, jobs: int = 1) -> MacAblationResult:
    return ENGINE.run("mac", scale=scale, seed=seed, jobs=jobs)
