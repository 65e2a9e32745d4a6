"""Table 3 and Figure 2 — packet error conditions versus signal metrics
(Section 5.2).

Several lecture-hall trials at varying distance/orientation are
aggregated; each received packet is classified, and the signal metrics
are summarized per damage class.  Paper findings to preserve:

* undamaged packets run as low as level 5, damaged ones as high as 12,
  but "the main body of damaged packets has signal levels below 8,
  whereas it is well above 8 for undamaged packets" (Table 3);
* a signal level of roughly 10 suffices for reliable reception; below 8
  lies the shaded "error region" of Figure 2;
* outsiders are distinguished most sharply by their *signal quality*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import ClassifiedTrace, PacketClass
from repro.analysis.signalstats import SignalStats, signal_stats_by_class
from repro.analysis.tables import render_signal_table
from repro.environment.geometry import Point
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, trial_plan
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.trial import TrialConfig

# The aggregated trials: distances spanning strong to error-region, with
# "slight variations of receiver position, orientation, and obstacles"
# (modelled as small distance perturbations).  8634 packets total in the
# paper; ~12 sub-trials of ~720.
SUBTRIAL_DISTANCES_FT = [10, 20, 30, 40, 48, 55, 62, 68, 72, 76, 80, 84, 90, 100, 110]
PACKETS_PER_SUBTRIAL = 576

# Figure 2's reliability boundaries (levels).
ERROR_REGION_CEILING = 8.0
RELIABLE_FLOOR = 10.0

#: The registered lecture-hall topology the sub-trials perturb.
SCENARIO = "paper/lecture-hall"

PAPER_TABLE_3 = {
    "All test packets": dict(packets=8634, level_mean=14.15),
    "Undamaged": dict(packets=7942, level_mean=14.74),
    "Truncated": dict(packets=107, level_mean=6.20),
    "Wrapper damaged": dict(packets=9, level_mean=7.56),
    "Body damaged": dict(packets=576, level_mean=7.52),
}


@dataclass
class LevelBin:
    """Figure-2 series: error rates within one signal-level bin."""

    level: int
    sent: int
    received: int
    damaged: int

    @property
    def loss_fraction(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def damage_fraction(self) -> float:
        return self.damaged / self.received if self.received else 0.0


@dataclass
class ErrorVsLevelResult:
    classified: ClassifiedTrace | None = None
    table3: list[SignalStats] = field(default_factory=list)
    level_bins: list[LevelBin] = field(default_factory=list)

    def group(self, name: str) -> SignalStats:
        for row in self.table3:
            if row.group == name:
                return row
        raise KeyError(name)


def _aggregate(ctx: PlanContext, values: list) -> ErrorVsLevelResult:
    sent_by_level: dict[int, int] = {}
    received_by_level: dict[int, int] = {}
    damaged_by_level: dict[int, int] = {}
    for outcome in values:
        # Figure-2 bins use the *predicted* mean level of the sub-trial
        # for the sent count and observed readings for received packets.
        level = int(round(outcome.level))
        classified = outcome.classified
        received = len(classified.test_rows)
        damaged = received - len(classified.rows(PacketClass.UNDAMAGED))
        sent_by_level[level] = (
            sent_by_level.get(level, 0) + classified.trace.packets_sent
        )
        received_by_level[level] = received_by_level.get(level, 0) + received
        damaged_by_level[level] = damaged_by_level.get(level, 0) + damaged
    # Table 3 aggregates the sub-trials' verdicts; each packet was
    # classified once, against its own burst.
    classified = ClassifiedTrace.concat(
        [outcome.classified for outcome in values], name="distance-aggregate"
    )
    result = ErrorVsLevelResult(classified=classified)
    result.table3 = signal_stats_by_class(classified)
    for level in sorted(sent_by_level):
        result.level_bins.append(
            LevelBin(
                level=level,
                sent=sent_by_level[level],
                received=received_by_level.get(level, 0),
                damaged=damaged_by_level.get(level, 0),
            )
        )
    return result


def _render(result: ErrorVsLevelResult, scale: float) -> None:
    print("Table 3: Packet error conditions versus signal metrics "
          f"(scale={scale:g})")
    print(render_signal_table(result.table3))
    print("\nFigure 2: error rates by (sub-trial mean) signal level — "
          f"error region below level {ERROR_REGION_CEILING:.0f}")
    print(f"{'level':>6} | {'sent':>6} | {'recv':>6} | {'loss%':>6} | {'dmg%':>6}")
    for b in result.level_bins:
        marker = "  << error region" if b.level < ERROR_REGION_CEILING else ""
        print(f"{b.level:6d} | {b.sent:6d} | {b.received:6d} | "
              f"{100 * b.loss_fraction:6.2f} | {100 * b.damage_fraction:6.2f}"
              f"{marker}")


def _report_lines(report, result: ErrorVsLevelResult, scale: float) -> None:
    damaged_mean = result.group("Body damaged").level.mean
    undamaged_mean = result.group("Undamaged").level.mean
    report.add(
        "T3/F2 error region", "body-damaged level mean", "7.52",
        f"{damaged_mean:.2f}", 5.5 < damaged_mean < 9.0,
    )
    report.add(
        "T3/F2 error region", "undamaged - damaged gap", ">= ~7 levels",
        f"{undamaged_mean - damaged_mean:.1f}",
        undamaged_mean - damaged_mean > 2.0,
    )


@experiment(
    name="table3",
    artifact="Table 3 + Figure 2",
    description="Table 3 + Figure 2: errors vs signal metrics",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=52,
    aliases=("figure2",),
    traceable=True,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per sub-trial distance."""
    packets = max(200, int(PACKETS_PER_SUBTRIAL * ctx.scale))
    plans = []
    for index, distance in enumerate(SUBTRIAL_DISTANCES_FT):
        label = f"subtrial-{distance:g}ft"
        # Every sub-trial's config is named "distance-aggregate" (the
        # name forks its RNG streams), so its file takes the label.
        config = TrialConfig(
            name="distance-aggregate",
            packets=packets,
            tx_position=Point(float(distance), 0.35 * (index % 3 - 1)),
            rx_position=Point(0.0, 0.0),
            outsiders=OutsiderTraffic(
                mean_level=4.6, level_sd=1.6, rate_per_test_packet=0.11
            )
            if index % 3 == 0
            else None,
        )
        plans.append(trial_plan(label, TrialSpec(
            scenario=SCENARIO,
            config=config,
            reads=("level", "classified"),
            trace_name=label,
        )))
    return plans


def run(scale: float = 1.0, seed: int = 52, jobs: int = 1) -> ErrorVsLevelResult:
    return ENGINE.run("table3", scale=scale, seed=seed, jobs=jobs)
