"""Extension X1 — would variable FEC have recovered the observed errors?

Section 8: "the errors we did observe might be recoverable through a
variable FEC mechanism."  This experiment closes the loop the paper
left as future work:

1. Re-run the two damage-heavy scenarios — the multi-room Tx5 location
   (attenuation bursts) and the "AT&T handset" spread-spectrum-phone
   trial (jam windows) — and harvest the *error syndromes* the analysis
   pipeline extracts.
2. Replay each syndrome against each RCPC rate: encode a packet body,
   apply the syndrome's bit positions scaled to the coded length, and
   count residual errors after Viterbi decoding — with and without
   block interleaving.
3. Drive the adaptive controller with the trials' per-packet signal
   metrics and report the rate schedule it would have chosen and the
   redundancy it would have spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.analysis.classify import ClassifiedTrace, PacketClass
from repro.analysis.syndrome import ErrorSyndrome
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.fec.adaptive import AdaptiveFecController
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.replay import DamagePopulation, replay_populations
from repro.framing.testpacket import BODY_BITS


@dataclass
class RateOutcome:
    """FEC performance of one rate over one scenario's syndromes."""

    scenario: str
    rate_name: str
    interleaved: bool
    packets: int
    packets_recovered: int
    residual_bit_errors: int
    overhead_fraction: float
    # Burst-aware receiver variants: "none" (plain hard decision),
    # "erase" (AGC-flagged jam window decoded as erasures), "soft"
    # (jam window down-weighted to 0.25 confidence).
    marking: str = "none"

    @property
    def recovery_fraction(self) -> Optional[float]:
        """Share of the packets recovered; None for an empty population,
        which is no evidence either way."""
        if self.packets == 0:
            return None
        return self.packets_recovered / self.packets


@dataclass
class AdaptiveOutcome:
    """What the adaptive controller would have spent on one scenario."""

    scenario: str
    packets: int
    rate_counts: dict[str, int]
    mean_overhead: float


@dataclass
class FecEvalResult:
    outcomes: list[RateOutcome] = field(default_factory=list)
    adaptive: list[AdaptiveOutcome] = field(default_factory=list)

    def outcome(
        self,
        scenario: str,
        rate: str,
        interleaved: bool,
        marking: str = "none",
    ) -> RateOutcome:
        for o in self.outcomes:
            if (
                o.scenario == scenario
                and o.rate_name == rate
                and o.interleaved == interleaved
                and o.marking == marking
            ):
                return o
        raise KeyError((scenario, rate, interleaved, marking))


def _window_syndrome(
    syndrome: ErrorSyndrome, coded_bits: int, rng: np.random.Generator
) -> np.ndarray:
    """Replay a coded-chunk-sized window of the syndrome's timeline.

    The coded block occupies ``coded_bits`` of airtime somewhere inside
    the 8192-bit body; the window's error positions transfer verbatim,
    preserving the burst structure and local density exactly (scaling
    positions would compress bursts and inflate density).
    """
    if syndrome.body_bits_damaged == 0:
        return np.empty(0, dtype=np.int64)
    span = min(coded_bits, BODY_BITS)
    offset = int(rng.integers(0, BODY_BITS - span + 1))
    positions = syndrome.body_bit_positions
    in_window = positions[(positions >= offset) & (positions < offset + span)]
    return (in_window - offset).astype(np.int64)


# How far beyond the observed burst span the receiver's AGC-derived
# window estimate extends (wire bits).
WINDOW_PAD_BITS = 48
SOFT_WEIGHT = 0.25


def _damage_population(
    syndromes: list[ErrorSyndrome],
    rate_name: str,
    interleaved: bool,
    marking: str,
    info_bits: int = 1024,
    rng_seed: int = 7,
) -> DamagePopulation:
    """One variant's replay: the syndromes' damage against one code rate.

    ``info_bits`` is the per-packet information-block size; using the
    first kilobit of the body keeps the Viterbi work tractable while
    exercising the same error densities.  ``marking`` selects the
    burst-aware receiver variant: the modem's AGC knows which span an
    interference burst covered, so the decoder can treat that window as
    erasures ("erase") or down-weight it ("soft").
    """
    codec = RcpcCodec(rate_name)
    rng = np.random.default_rng(rng_seed)
    info = rng.integers(0, 2, info_bits).astype(np.uint8)
    transmitted = codec.encode(info)
    coded_bits = len(transmitted)

    # One damage row per syndrome and, for a burst-aware receiver, the
    # wire-order window its AGC flags around that row's damage.
    positions = [_window_syndrome(s, coded_bits, rng) for s in syndromes]
    windows = None
    if marking != "none":
        windows = [
            (
                max(0, int(p.min()) - WINDOW_PAD_BITS),
                min(coded_bits, int(p.max()) + WINDOW_PAD_BITS),
            )
            if len(p)
            else None
            for p in positions
        ]
    return DamagePopulation(
        codec,
        info,
        transmitted,
        positions,
        BlockInterleaver(rows=32, columns=64) if interleaved else None,
        windows,
        soft_weight=SOFT_WEIGHT if marking == "soft" else None,
    )


def _evaluate_rate(
    scenario: str,
    rate_name: str,
    interleaved: bool,
    marking: str,
    errors_per_packet: np.ndarray,
) -> RateOutcome:
    """One variant's outcome from its replayed rows' residual errors."""
    return RateOutcome(
        scenario=scenario,
        rate_name=rate_name,
        interleaved=interleaved,
        packets=len(errors_per_packet),
        packets_recovered=int((errors_per_packet == 0).sum()),
        residual_bit_errors=int(errors_per_packet.sum()),
        overhead_fraction=RcpcCodec(rate_name).overhead,
        marking=marking,
    )


#: The replay variants of every scenario, in report order: each rate
#: without and with interleaving, then the burst-aware receivers at the
#: strongest rate (the modem's AGC flags the jam window, the decoder
#: exploits it).
VARIANTS = (
    *(
        (rate_name, interleaved, "none")
        for rate_name in RATE_ORDER
        for interleaved in (False, True)
    ),
    ("1/2", True, "erase"),
    ("1/2", True, "soft"),
)


def _collect_syndromes(classified, limit: int) -> list[ErrorSyndrome]:
    return classified.syndromes_of(PacketClass.BODY_DAMAGED)[:limit]


def _adaptive_schedule(scenario: str, classified) -> AdaptiveOutcome:
    controller = AdaptiveFecController()
    trace, rows = classified.trace, classified.test_rows
    rates = controller.observe_bulk(
        trace.levels[rows].astype(np.float64),
        trace.silences[rows].astype(np.float64),
        trace.qualities[rows].astype(np.float64),
    )
    counts: dict[str, int] = {name: 0 for name in RATE_ORDER}
    overhead = {name: RcpcCodec(name).overhead for name in RATE_ORDER}
    overhead_total = 0.0
    for rate_name in rates:
        counts[rate_name] += 1
        overhead_total += overhead[rate_name]
    return AdaptiveOutcome(
        scenario=scenario,
        packets=len(rates),
        rate_counts=counts,
        mean_overhead=overhead_total / max(1, len(rates)),
    )


def _harvest_tx5(scale: float, seed: int) -> ClassifiedTrace:
    """Attenuation bursts: the multi-room Tx5 location, run alone."""
    result = ENGINE.run(
        "table5", scale=scale, seed=seed, extras={"trials": ("Tx5",)}
    )
    return result.tx5_classified


def _harvest_ss_handset(scale: float, seed: int) -> ClassifiedTrace:
    """SS-phone jam windows: the "AT&T handset" Table-11 trial, run alone."""
    result = ENGINE.run(
        "table11", scale=scale, seed=seed, extras={"trials": ("AT&T handset",)}
    )
    return result.classified["AT&T handset"]


@dataclass(frozen=True)
class DamageSource:
    """One damage-heavy scenario the FEC evaluation replays.

    ``scenario`` names the registered topology the source experiment
    compiles (tagged on the plan, so the engine validates it against
    the scenario registry at plan-build time); ``harvest`` re-runs the
    one source trial and returns its classified trace to mine for
    syndromes.  The trial's seed keys on its label, so it is the same
    trial the full source experiment runs.
    """

    scenario: str
    harvest: Callable[[float, int], ClassifiedTrace]


#: Name -> damage source.  Adding a new damage-heavy trial means adding
#: one entry here — the plans and the dispatch both read it.
DAMAGE_SOURCES: dict[str, DamageSource] = {
    "Tx5 attenuation": DamageSource("paper/multiroom", _harvest_tx5),
    "SS-phone handset": DamageSource(
        "paper/table11-att-handset", _harvest_ss_handset
    ),
}


def _run_scenario(
    scenario: str,
    scale: float,
    seed: int,
    syndrome_limit: int,
    variants: tuple,
) -> tuple[list[RateOutcome], AdaptiveOutcome]:
    """One damage scenario end to end, picklable.

    Re-runs the source trial (serially, in-process), harvests its
    syndromes, replays them against each requested
    rate/interleaving/marking combination in one batched decode, and
    drives the adaptive controller — so nothing but small outcome
    dataclasses crosses a pool boundary.
    """
    classified = DAMAGE_SOURCES[scenario].harvest(scale, seed)
    syndromes = _collect_syndromes(classified, syndrome_limit)
    # Every variant depunctures onto the same mother-code trellis, so
    # all of them replay in one decode.  Each variant draws its own
    # block and windows from a fixed seed, so a subset replays exactly
    # as it does among all ten.
    errors = replay_populations(
        [_damage_population(syndromes, *variant) for variant in variants]
    )
    outcomes = [
        _evaluate_rate(scenario, *variant, errors_per_packet)
        for variant, errors_per_packet in zip(variants, errors)
    ]
    return outcomes, _adaptive_schedule(scenario, classified)


def _aggregate(ctx: PlanContext, values: list) -> FecEvalResult:
    result = FecEvalResult()
    for outcomes, adaptive in values:
        result.outcomes.extend(outcomes)
        result.adaptive.append(adaptive)
    return result


def _render(result: FecEvalResult, scale: float) -> None:
    print("Extension X1: RCPC recoverability of observed error syndromes")
    print(f"{'scenario':>18} | {'rate':>4} | {'ilv':>3} | {'pkts':>5} | "
          f"{'recovered':>9} | {'residual':>8} | {'overhead':>8}")
    for o in result.outcomes:
        label = o.rate_name + {"none": "", "erase": "+E", "soft": "+S"}[o.marking]
        fraction = o.recovery_fraction
        recovered = "n/a" if fraction is None else f"{100 * fraction:.1f}%"
        print(f"{o.scenario:>18} | {label:>6} | "
              f"{'yes' if o.interleaved else 'no':>3} | {o.packets:5d} | "
              f"{recovered:>9} | {o.residual_bit_errors:8d} | "
              f"{100 * o.overhead_fraction:7.1f}%")
    print("\nAdaptive controller schedules:")
    for a in result.adaptive:
        print(f"  {a.scenario}: {a.rate_counts} "
              f"mean overhead {100 * a.mean_overhead:.1f}%")


def _add_recovery_line(report, quantity: str, paper: str,
                       outcome: RateOutcome, floor: float) -> None:
    """One X1 line; an empty population is no data, never in band."""
    fraction = outcome.recovery_fraction
    if fraction is None:
        report.add("X1 variable FEC", quantity, paper, "no data (n=0)", False)
        return
    report.add(
        "X1 variable FEC", quantity, paper,
        f"{100 * fraction:.0f}% recovered", fraction > floor,
    )


def _report_lines(report, result: FecEvalResult, scale: float) -> None:
    _add_recovery_line(
        report, "Tx5 @ 4/5+ilv", "'trivial to correct'",
        result.outcome("Tx5 attenuation", "4/5", interleaved=True), 0.9,
    )
    _add_recovery_line(
        report, "SS phone @ 1/2", "'might be recoverable'",
        result.outcome("SS-phone handset", "1/2", interleaved=True), 0.8,
    )


@experiment(
    name="fec",
    artifact="X1",
    description="X1: variable FEC on observed syndromes",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=81,
    report_lines=_report_lines,
    # The report's two lines read these two variants and nothing else.
    report_extras={
        "syndrome_limit": 25,
        "variants": (("4/5", True, "none"), ("1/2", True, "none")),
    },
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per damage scenario.

    ``extras={"variants": [...]}`` replays a subset of :data:`VARIANTS`
    (kept in ``VARIANTS`` order); an unknown variant fails here, before
    anything runs.  The engine's ``trials`` extra selects scenarios.
    """
    syndrome_limit = ctx.extra("syndrome_limit", 60)
    requested = [tuple(variant) for variant in ctx.extra("variants", VARIANTS)]
    unknown = [variant for variant in requested if variant not in VARIANTS]
    if unknown:
        raise ValueError(
            f"unknown FEC replay variant(s) {unknown}; "
            f"valid variants: {list(VARIANTS)}"
        )
    variants = tuple(variant for variant in VARIANTS if variant in requested)
    return [
        TrialPlan(
            scenario,
            _run_scenario,
            {
                "scenario": scenario,
                "scale": ctx.scale,
                "syndrome_limit": syndrome_limit,
                "variants": variants,
            },
            scenario=source.scenario,
        )
        for scenario, source in DAMAGE_SOURCES.items()
    ]


def run(scale: float = 1.0, seed: int = 81, syndrome_limit: int = 60,
        jobs: int = 1) -> FecEvalResult:
    return ENGINE.run(
        "fec", scale=scale, seed=seed, jobs=jobs,
        extras={"syndrome_limit": syndrome_limit},
    )
