"""Extension X5 — the cellular WaveLAN of Section 8, simulated.

"A WaveLAN-like device including multiple spreading sequences for
sharp cell boundaries and transmitter power control to reduce
unnecessary interference seems plausible, and would allow the
construction of [a] truly cellular network.  While it is difficult to
construct large sequence families which simultaneously have low
self-correlation and low cross-correlation, ... the current WaveLAN
seems to have processing gain to spare."

Three parts:

1. **The sequence-family trade-off, quantified** — exhaustive search of
   the 11-chip space: family size vs (self-sidelobe, cross-peak)
   bounds (:mod:`repro.phy.sequences`).
2. **Two simultaneously active cells.**  Cell B's transmitter runs
   continuously while cell A's pair communicates.  Variants:
   ``same code`` (today's WaveLAN — full co-channel interference),
   ``cdma`` (distinct codes: interference attenuated by the family's
   cross-code rejection), and ``cdma + power control`` (cell B also
   turns its power down to the minimum its own link needs).
3. The isolation metric the paper cares about: cell A's packet loss
   and damage rate with cell B active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import TrialMetrics, analyze_trial
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.interference.base import EmitterGeometry, InterferenceSource
from repro.phy.errormodel import InterferenceSample
from repro.phy.sequences import SequenceFamily, build_family, family_size_tradeoff
from repro.trace.trial import TrialConfig, run_fast_trial
from repro.units import level_to_dbm

# Geometry: two cells in adjacent rooms; cell A's pair is 8 ft apart,
# cell B's transmitter sits 20 ft from cell A's receiver.
CELL_A_TX = Point(8.0, 0.0)
CELL_A_RX = Point(0.0, 0.0)
CELL_B_TX = Point(-20.0, 0.0)
CELL_B_RX = Point(-26.0, 0.0)  # cell B's own receiver, 6 ft from its TX

PACKETS = 1_440

# Power control: cell B reduces emitted power until its own receiver
# still sees this level (comfortably above the Figure-2 error region).
POWER_CONTROL_TARGET_LEVEL = 16.0

# The 63-chip hypothetical: a Gold-style family of length-63 m-sequences
# has cross peaks around 17, i.e. 20*log10(63/17) ~ 11.4 dB of rejection
# — what "processing gain to spare" could buy with longer codes.
HYPOTHETICAL_63_REJECTION_LEVELS = 5.7

VARIANTS = (
    "same code",
    "cdma (11 chips)",
    "cdma (63-chip hypothetical)",
    "power control only",
    "cdma + power control",
)


def _logistic(x: float) -> float:
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


@dataclass
class CodeDivisionInterferer:
    """A continuously transmitting neighbour cell.

    Its effect on the victim's despreader depends on the *effective*
    interference level: the raw received level minus the cross-code
    rejection (zero when both cells share one code).  Effect curves
    mirror the co-channel overlap model in :mod:`repro.link.channel`.
    """

    position: Point
    emitted_level_at_1ft: float
    rejection_levels: float = 0.0
    duty: float = 1.0
    name: str = "neighbour-cell"

    def received_level(self, rx: Point) -> float:
        return EmitterGeometry(self.position, self.emitted_level_at_1ft).level_at(rx)

    def sample_packet(
        self,
        rx_position: Point,
        signal_level: float,
        rng: np.random.Generator,
    ) -> InterferenceSample:
        raw_level = self.received_level(rx_position)
        active = rng.random() < self.duty
        dbm = level_to_dbm(raw_level) if active else None
        effective = raw_level - self.rejection_levels
        margin = signal_level - effective
        stomp = _logistic((5.0 - margin) / 2.5)
        if not active:
            return InterferenceSample(source_name=self.name, silence_sample_dbm=None)
        return InterferenceSample(
            source_name=self.name,
            signal_sample_dbm=dbm,
            silence_sample_dbm=dbm,
            jam_ber=2.0e-3 * stomp,
            miss_probability=0.6 * stomp,
            truncate_probability=0.4 * stomp,
            clock_stress=2.0 * stomp,
            bursty=True,
        )


InterferenceSource.register(CodeDivisionInterferer)


@dataclass
class VariantOutcome:
    variant: str
    metrics: TrialMetrics
    neighbour_emitted_level_1ft: float
    rejection_levels: float

    @property
    def damaged_fraction(self) -> float:
        received = max(1, self.metrics.packets_received)
        return (
            self.metrics.body_damaged_packets + self.metrics.packets_truncated
        ) / received


@dataclass
class CdmaResult:
    family: SequenceFamily
    tradeoff: dict[tuple[int, int], int]
    outcomes: list[VariantOutcome] = field(default_factory=list)

    def outcome(self, variant: str) -> VariantOutcome:
        for o in self.outcomes:
            if o.variant == variant:
                return o
        raise KeyError(variant)


def _power_controlled_level(propagation: PropagationModel) -> float:
    """Cell B's emitted level (at 1 ft) after power control.

    Reduce until its own 6 ft link still reads the target level.
    """
    full = 45.3  # same emitted power scale as a stock WaveLAN
    own_link = EmitterGeometry(CELL_B_TX, full).level_at(CELL_B_RX)
    surplus = own_link - POWER_CONTROL_TARGET_LEVEL
    return full - max(0.0, surplus)


def _run_variant(variant: str, packets: int, seed: int) -> VariantOutcome:
    """Cell A's link quality under one neighbour-cell variant.

    The sequence family is deterministic (an exhaustive search, no
    randomness), so each worker rebuilds it rather than pickling it.
    """
    propagation = PropagationModel.office()
    full_power = 45.3
    if variant == "same code" or variant == "power control only":
        rejection = 0.0
    elif variant == "cdma (63-chip hypothetical)":
        rejection = HYPOTHETICAL_63_REJECTION_LEVELS
    else:
        family = build_family(max_self_sidelobe=2, max_cross_peak=7)
        rejection = family.rejection_levels()
    emitted = (
        _power_controlled_level(propagation)
        if variant in ("power control only", "cdma + power control")
        else full_power
    )
    interferer = CodeDivisionInterferer(
        position=CELL_B_TX,
        emitted_level_at_1ft=emitted,
        rejection_levels=rejection,
    )
    output = run_fast_trial(
        TrialConfig(
            name=variant,
            packets=packets,
            seed=seed,
            propagation=propagation,
            tx_position=CELL_A_TX,
            rx_position=CELL_A_RX,
            interference=[interferer],
        )
    )
    return VariantOutcome(
        variant=variant,
        metrics=analyze_trial(output.trace),
        neighbour_emitted_level_1ft=emitted,
        rejection_levels=rejection,
    )


def _aggregate(ctx: PlanContext, values: list) -> CdmaResult:
    family = build_family(max_self_sidelobe=2, max_cross_peak=7)
    return CdmaResult(
        family=family,
        tradeoff=family_size_tradeoff(),
        outcomes=list(values),
    )


@experiment(
    name="cdma",
    artifact="X5",
    description="X5: cellular WaveLAN (CDMA + power control)",
    aggregate=_aggregate,
    render=lambda result, scale: _render(result, scale),
    default_scale=1.0,
    default_seed=95,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per neighbour-cell variant."""
    packets = max(400, int(PACKETS * ctx.scale))
    return [
        TrialPlan(variant, _run_variant, {"variant": variant, "packets": packets})
        for variant in VARIANTS
    ]


def run(scale: float = 1.0, seed: int = 95, jobs: int = 1) -> CdmaResult:
    return ENGINE.run("cdma", scale=scale, seed=seed, jobs=jobs)


def _render(result: CdmaResult, scale: float) -> None:
    print("Extension X5: the Section-8 cellular WaveLAN")
    print("\nSequence-family trade-off (family size at (self, cross) bounds):")
    print("        cross<=3  cross<=5  cross<=7  cross<=9")
    for self_bound in (1, 2, 3, 4):
        row = [result.tradeoff[(self_bound, c)] for c in (3, 5, 7, 9)]
        print(f"  self<={self_bound}: " + "  ".join(f"{v:7d}" for v in row))
    print(f"\nChosen family: {result.family.size} sequences, cross peak "
          f"{result.family.max_cross_peak}/11 -> rejection "
          f"{result.family.rejection_db():.1f} dB "
          f"({result.family.rejection_levels():.1f} levels)")
    print("\nCell A under a continuously active neighbour cell:")
    print(f"{'variant':>28} | {'loss':>6} | {'trunc+dmg':>9} | "
          f"{'neighbour power':>15}")
    for o in result.outcomes:
        print(f"{o.variant:>28} | {o.metrics.packet_loss_percent:5.1f}% | "
              f"{100 * o.damaged_fraction:8.1f}% | "
              f"{o.neighbour_emitted_level_1ft:8.1f} @1ft")
    print("\nVerdict: at 11 chips, code diversity alone buys only ~4 dB — "
          "not enough against a full-power neighbour; even a 63-chip "
          "family falls short.  Power control is the decisive mechanism, "
          "and codes+power together give the paper's 'sharp cell "
          "boundaries'.  This sharpens Section 8's caveat that large "
          "low-cross-correlation families are hard to build.")
