"""Tables 8 and 9 — human-body attenuation (Section 6.3).

A 56 ft path through two concrete walls, with and without "a person
bending over as if to examine the laptop screen closely" in the way.
Paper findings: the body costs ~6 signal levels (12.55 → 6.73) and
induces packet loss, a few truncations, and body damage in ~15 % of
received packets — while the no-body control is error free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import ClassifiedTrace
from repro.analysis.signalstats import SignalStats
from repro.analysis.tables import render_metrics_table, render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, TrialTable, trial_plan

#: Trial name -> registered topology (with/without the person in the way).
TRIAL_SCENARIOS = {"No body": "paper/no-body", "Body": "paper/body"}

PAPER_PACKETS = 1_440

PAPER_LEVEL_MEANS = {"No body": 12.55, "Body": 6.73}
PAPER_BODY_DAMAGED = 224  # of 1442 received


@dataclass
class BodyResult(TrialTable):
    body_breakdown: list[SignalStats] = field(default_factory=list)
    body_classified: ClassifiedTrace | None = None

    @property
    def body_cost_levels(self) -> float:
        return self.level_mean("No body") - self.level_mean("Body")


def _aggregate(ctx: PlanContext, values: list) -> BodyResult:
    result = BodyResult()
    for outcome in values:
        result.add(outcome)
        if outcome.classified is not None:
            result.body_classified = outcome.classified
            result.body_breakdown = outcome.breakdown
    return result


def _render(result: BodyResult, scale: float) -> None:
    print(f"Table 8: Effects of human body on packet loss and errors "
          f"(scale={scale:g})")
    print(render_metrics_table(result.metrics_rows))
    print("\nTable 9: Effect of human body on signal measurements")
    print(render_signal_table(result.signal_rows, label="Trial"))
    print("\nBody trial breakdown by packet class:")
    print(render_signal_table(result.body_breakdown))
    print(f"\nBody cost: {result.body_cost_levels:.1f} levels "
          f"(paper: ~{PAPER_LEVEL_MEANS['No body'] - PAPER_LEVEL_MEANS['Body']:.1f})")


def _report_lines(report, result: BodyResult, scale: float) -> None:
    report.add(
        "T8-9 body", "body cost", "~5.8 levels",
        f"{result.body_cost_levels:.1f}",
        4.5 < result.body_cost_levels < 7.5,
    )


@experiment(
    name="table8",
    artifact="Tables 8-9",
    description="Tables 8-9: human body",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=63,
    aliases=("table9",),
    traceable=True,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """The no-body control and the body trial."""
    packets = max(400, int(PAPER_PACKETS * ctx.scale))
    return [
        trial_plan(name, TrialSpec(
            name, packets, scenario=scenario,
            reads=("metrics", "signal")
            + (("breakdown", "classified") if name == "Body" else ()),
        ))
        for name, scenario in TRIAL_SCENARIOS.items()
    ]


def run(scale: float = 1.0, seed: int = 63, jobs: int = 1) -> BodyResult:
    return ENGINE.run("table8", scale=scale, seed=seed, jobs=jobs)
