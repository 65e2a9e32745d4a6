"""Extension X7 — effective throughput across the error environment.

The paper's motivation (Section 1): "high error rates can significantly
reduce the effective bandwidth available to users, so controlling the
error rate is critical."  The paper measures error *rates*; this
experiment converts them into what an application feels — goodput —
across the signal-level range, under two delivery policies:

* **raw** — a damaged packet is worthless (UDP-style: any body error
  spoils the datagram); goodput counts only undamaged packets;
* **fec 4/5 + interleave** — the Section-8 fix: body errors up to the
  code's strength are repaired; only losses/truncations (and decode
  failures) cost throughput, at 25 % airtime overhead.

The sender offers the paper's host-limited ~1.4 Mb/s of 1024-byte
bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.classify import PacketClass, classify_trace
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RcpcCodec
from repro.fec.replay import DamagePopulation, replay_damage, replay_populations
from repro.framing.testpacket import BODY_BITS
from repro.trace.trial import TrialConfig, run_fast_trial

OFFERED_RATE_BPS = 1_400_000.0
LEVELS = (29.5, 13.8, 11.0, 9.5, 8.0, 7.0, 6.0, 5.0)
PACKETS_PER_LEVEL = 1_000
FEC_RATE = "4/5"
FEC_INFO_BITS = 1_024


@dataclass
class ThroughputPoint:
    level: float
    packets_sent: int
    undamaged: int
    body_damaged: int
    truncated: int
    lost: int
    fec_recovered: int

    @property
    def raw_delivery_fraction(self) -> float:
        return self.undamaged / self.packets_sent

    @property
    def raw_goodput_bps(self) -> float:
        """Undamaged body bits delivered per offered-airtime second."""
        return OFFERED_RATE_BPS * self.raw_delivery_fraction

    @property
    def fec_delivery_fraction(self) -> float:
        """Fraction of packets delivering their (smaller) FEC payload."""
        return (self.undamaged + self.fec_recovered) / self.packets_sent

    def fec_goodput_bps(self, overhead_fraction: float) -> float:
        """Offered rate × delivery × (1 / (1 + overhead))."""
        return (
            OFFERED_RATE_BPS
            * self.fec_delivery_fraction
            / (1.0 + overhead_fraction)
        )


@dataclass
class ThroughputResult:
    points: list[ThroughputPoint] = field(default_factory=list)
    fec_overhead: float = 0.25

    def point(self, level: float) -> ThroughputPoint:
        for p in self.points:
            if p.level == level:
                return p
        raise KeyError(level)

    def crossover_level(self) -> float:
        """Highest level at which FEC out-performs raw goodput.

        Above it, FEC is "useless overhead" (Section 8); below it, the
        redundancy pays for itself.
        """
        best = 0.0
        for p in self.points:
            raw = OFFERED_RATE_BPS * p.raw_delivery_fraction
            fec = p.fec_goodput_bps(self.fec_overhead)
            if fec > raw:
                best = max(best, p.level)
        return best


def _coded_positions(syndrome, coded_bits: int) -> np.ndarray:
    """The syndrome's body-bit positions scaled onto a coded block."""
    scale = coded_bits / BODY_BITS
    return np.unique((syndrome.body_bit_positions * scale).astype(np.int64))


def _fec_recovers(syndrome, codec, interleaver, info, transmitted) -> bool:
    """Whether FEC repairs one syndrome (one row of :func:`_aggregate`'s
    batched replay)."""
    positions = _coded_positions(syndrome, len(transmitted))
    errors = replay_damage(codec, info, transmitted, [positions], interleaver)
    return bool(errors[0] == 0)


def _run_level(
    level: float, packets: int, seed: int
) -> tuple[ThroughputPoint, np.ndarray, list[np.ndarray]]:
    """One operating point: trial and classification.

    Returns the point, whose ``fec_recovered`` :func:`_aggregate` fills
    in, and the level's replay inputs: its FEC information block and
    every damaged packet's coded-bit positions.
    """
    info = (
        np.random.default_rng(seed)
        .integers(0, 2, FEC_INFO_BITS)
        .astype(np.uint8)
    )
    output = run_fast_trial(
        TrialConfig(
            name=f"tp-{level}", packets=packets, seed=seed,
            mean_level=level,
        )
    )
    classified = classify_trace(output.trace)
    coded_bits = RcpcCodec(FEC_RATE).coded_length(FEC_INFO_BITS)
    positions = [
        _coded_positions(syndrome, coded_bits)
        for syndrome in classified.syndromes_of(PacketClass.BODY_DAMAGED)
    ]
    point = ThroughputPoint(
        level=level,
        packets_sent=packets,
        undamaged=len(classified.rows(PacketClass.UNDAMAGED)),
        body_damaged=len(classified.rows(PacketClass.BODY_DAMAGED)),
        truncated=len(classified.rows(PacketClass.TRUNCATED)),
        lost=packets - len(classified.test_rows),
        fec_recovered=0,
    )
    return point, info, positions


def _aggregate(ctx: PlanContext, values: list) -> ThroughputResult:
    """Every level's damaged packets replay in one batched decode, each
    level against its own information block, folded in plan order."""
    codec = RcpcCodec(FEC_RATE)
    interleaver = BlockInterleaver(32, 64)
    errors = replay_populations([
        DamagePopulation(codec, info, codec.encode(info), positions, interleaver)
        for _, info, positions in values
    ])
    return ThroughputResult(
        points=[
            replace(point, fec_recovered=int((level_errors == 0).sum()))
            for (point, _, _), level_errors in zip(values, errors)
        ],
        fec_overhead=codec.overhead,
    )


def _report_lines(report, result: ThroughputResult, scale: float) -> None:
    report.add(
        "X7 throughput", "FEC/raw crossover level", "inside error region (<8)",
        f"{result.crossover_level():.1f}",
        4.0 <= result.crossover_level() <= 8.0,
    )


@experiment(
    name="throughput",
    artifact="X7",
    description="X7: goodput across the error environment",
    aggregate=_aggregate,
    render=lambda result, scale: _render(result, scale),
    default_scale=1.0,
    default_seed=99,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per signal level."""
    packets = max(300, int(PACKETS_PER_LEVEL * ctx.scale))
    return [
        TrialPlan(
            f"level-{level:g}",
            _run_level,
            {"level": level, "packets": packets},
        )
        for level in LEVELS
    ]


def run(scale: float = 1.0, seed: int = 99, jobs: int = 1) -> ThroughputResult:
    return ENGINE.run("throughput", scale=scale, seed=seed, jobs=jobs)


def _render(result: ThroughputResult, scale: float) -> None:
    print("Extension X7: effective throughput across the error environment "
          f"(offered {OFFERED_RATE_BPS / 1e6:.1f} Mb/s)")
    print(f"{'level':>6} | {'loss%':>6} | {'dmg%':>6} | {'raw Mb/s':>8} | "
          f"{'fec {0} Mb/s':>12}".format(FEC_RATE))
    for p in result.points:
        raw = OFFERED_RATE_BPS * p.raw_delivery_fraction / 1e6
        fec = p.fec_goodput_bps(result.fec_overhead) / 1e6
        marker = "  << FEC wins" if fec > raw else ""
        print(f"{p.level:6.1f} | {100 * p.lost / p.packets_sent:6.2f} | "
              f"{100 * p.body_damaged / p.packets_sent:6.2f} | "
              f"{raw:8.3f} | {fec:10.3f}{marker}")
    print(f"\nFEC/raw goodput crossover at level ~{result.crossover_level():.1f} "
          "— above it FEC is 'useless overhead in most situations' "
          "(Section 8); below it the redundancy pays.")
