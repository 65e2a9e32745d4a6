"""Ablation X4 — burst vs i.i.d. errors and what they do to FEC.

DESIGN.md calls out the error process' burstiness as a load-bearing
design choice: the paper's syndromes are bursty (multi-bit corruption
in single packets at Tx5; contiguous jam windows under the SS phone),
and burstiness is precisely what decides whether convolutional codes
need interleaving.  This ablation runs the RCPC family over a
Gilbert–Elliott channel and an i.i.d. channel *matched to the same
average BER*, with and without interleaving.

Expected shape: on the i.i.d. channel interleaving is irrelevant and
each rate has a sharp BER threshold; on the burst channel the raw codes
collapse well below their i.i.d. thresholds and interleaving restores
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.phy.gilbert import GilbertElliott

INFO_BITS = 1_024
PACKETS = 40
MEAN_BURST_BITS = 12.0
MEAN_BERS = (1e-3, 3e-3, 1e-2)


@dataclass
class BurstOutcome:
    mean_ber: float
    rate_name: str
    channel: str  # "iid" or "burst"
    interleaved: bool
    packets: int
    packets_recovered: int

    @property
    def recovery_fraction(self) -> float:
        return self.packets_recovered / self.packets if self.packets else 0.0


@dataclass
class BurstAblationResult:
    outcomes: list[BurstOutcome] = field(default_factory=list)

    def outcome(
        self, mean_ber: float, rate: str, channel: str, interleaved: bool
    ) -> BurstOutcome:
        for o in self.outcomes:
            if (
                o.mean_ber == mean_ber
                and o.rate_name == rate
                and o.channel == channel
                and o.interleaved == interleaved
            ):
                return o
        raise KeyError((mean_ber, rate, channel, interleaved))


def _error_positions(
    channel: str, mean_ber: float, n_bits: int, rng: np.random.Generator
) -> np.ndarray:
    if channel == "burst":
        process = GilbertElliott.calibrated_to_syndromes(
            mean_burst_bits=MEAN_BURST_BITS, mean_ber=mean_ber
        )
        return process.error_positions(n_bits, rng)
    count = rng.binomial(n_bits, mean_ber)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(n_bits, size=count, replace=False)).astype(np.int64)


def _run_ber(mean_ber: float, packets: int, seed: int) -> list[BurstOutcome]:
    """Every rate × channel × interleaving cell at one mean BER."""
    outcomes = []
    rng = np.random.default_rng(seed)
    interleaver = BlockInterleaver(32, 64)
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)
    for rate_name in RATE_ORDER:
        codec = RcpcCodec(rate_name)
        transmitted = codec.encode(info)
        for channel in ("iid", "burst"):
            for interleaved in (False, True):
                recovered = 0
                for _ in range(packets):
                    positions = _error_positions(
                        channel, mean_ber, len(transmitted), rng
                    )
                    stream = (
                        interleaver.scramble(transmitted)
                        if interleaved
                        else transmitted
                    ).copy()
                    stream[positions] ^= 1
                    if interleaved:
                        stream = interleaver.unscramble(stream)
                    if np.array_equal(codec.decode(stream), info):
                        recovered += 1
                outcomes.append(
                    BurstOutcome(
                        mean_ber=mean_ber,
                        rate_name=rate_name,
                        channel=channel,
                        interleaved=interleaved,
                        packets=packets,
                        packets_recovered=recovered,
                    )
                )
    return outcomes


def _aggregate(ctx: PlanContext, values: list) -> BurstAblationResult:
    result = BurstAblationResult()
    for outcomes in values:
        result.outcomes.extend(outcomes)
    return result


def _render(result: BurstAblationResult, scale: float) -> None:
    print("Ablation X4: burst (Gilbert-Elliott) vs i.i.d. errors, "
          f"matched mean BER (burst length ~{MEAN_BURST_BITS:.0f} bits)")
    print(f"{'BER':>8} | {'rate':>4} | {'iid':>6} | {'iid+ilv':>7} | "
          f"{'burst':>6} | {'burst+ilv':>9}")
    for mean_ber in MEAN_BERS:
        for rate in RATE_ORDER:
            cells = [
                result.outcome(mean_ber, rate, "iid", False),
                result.outcome(mean_ber, rate, "iid", True),
                result.outcome(mean_ber, rate, "burst", False),
                result.outcome(mean_ber, rate, "burst", True),
            ]
            print(f"{mean_ber:8.0e} | {rate:>4} | "
                  + " | ".join(f"{100 * c.recovery_fraction:5.0f}%" for c in cells))


@experiment(
    name="burst",
    artifact="X4",
    description="X4: burst vs i.i.d. error ablation",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=91,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per mean-BER operating point."""
    packets = max(10, int(PACKETS * ctx.scale))
    return [
        TrialPlan(
            f"ber-{mean_ber:.0e}",
            _run_ber,
            {"mean_ber": mean_ber, "packets": packets},
        )
        for mean_ber in MEAN_BERS
    ]


def run(scale: float = 1.0, seed: int = 91, jobs: int = 1) -> BurstAblationResult:
    return ENGINE.run("burst", scale=scale, seed=seed, jobs=jobs)
