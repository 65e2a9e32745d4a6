"""Tables 8 and 9 — human-body attenuation (Section 6.3).

A 56 ft path through two concrete walls, with and without "a person
bending over as if to examine the laptop screen closely" in the way.
Paper findings: the body costs ~6 signal levels (12.55 → 6.73) and
induces packet loss, a few truncations, and body damage in ~15 % of
received packets — while the no-body control is error free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.classify import ClassifiedTrace, classify_trace
from repro.analysis.metrics import TrialMetrics, metrics_from_classified
from repro.analysis.signalstats import (
    SignalStats,
    signal_stats_by_class,
    stats_for_test_packets,
)
from repro.analysis.tables import render_metrics_table, render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.tracedir import trial_trace_path
from repro.trace.persist import save_trace
from repro.trace.trial import run_fast_trial

#: Trial name -> registered topology (with/without the person in the way).
TRIAL_SCENARIOS = {"No body": "paper/no-body", "Body": "paper/body"}

PAPER_PACKETS = 1_440

PAPER_LEVEL_MEANS = {"No body": 12.55, "Body": 6.73}
PAPER_BODY_DAMAGED = 224  # of 1442 received


@dataclass
class BodyResult:
    metrics_rows: list[TrialMetrics] = field(default_factory=list)
    signal_rows: list[SignalStats] = field(default_factory=list)
    body_breakdown: list[SignalStats] = field(default_factory=list)
    body_classified: ClassifiedTrace | None = None

    def metrics(self, name: str) -> TrialMetrics:
        for row in self.metrics_rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def level_mean(self, name: str) -> float:
        for row in self.signal_rows:
            if row.group == name and row.level is not None:
                return row.level.mean
        raise KeyError(name)

    @property
    def body_cost_levels(self) -> float:
        return self.level_mean("No body") - self.level_mean("Body")


def _run_trial(
    name: str,
    with_body: bool,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> tuple:
    """One body trial, picklable; compiles the scenario in-process."""
    from repro.scenario.registry import REGISTRY

    config = REGISTRY.compile(TRIAL_SCENARIOS[name]).trial_config(
        name=name, packets=packets, seed=seed
    )
    output = run_fast_trial(config)
    if trace_dir is not None:
        save_trace(
            output.trace,
            trial_trace_path(trace_dir, name, trace_format),
            format=trace_format,
        )
    classified = classify_trace(output.trace)
    return (
        metrics_from_classified(classified),
        stats_for_test_packets(name, classified),
        classified if with_body else None,
    )


def _aggregate(ctx: PlanContext, values: list) -> BodyResult:
    result = BodyResult()
    for metrics_row, signal_row, classified in values:
        result.metrics_rows.append(metrics_row)
        result.signal_rows.append(signal_row)
        if classified is not None:
            result.body_classified = classified
            result.body_breakdown = signal_stats_by_class(classified)
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
        TrialPlan(
            name,
            _run_trial,
            {"name": name, "with_body": with_body, "packets": packets},
            traceable=True,
            scenario=TRIAL_SCENARIOS[name],
        )
        for name, with_body in [("No body", False), ("Body", True)]
    ]


def run(scale: float = 1.0, seed: int = 63, jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2") -> BodyResult:
    return ENGINE.run(
        "table8", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
    )
