"""Table 4 — signal metrics with a single wall (Section 6.1).

Two wall materials, each compared against the same path without the
wall.  Paper findings: 10^8 bits with no loss or error in every
location; the plaster-with-wire-mesh wall costs ~5 signal levels, the
concrete-block wall only ~2; signal *quality* is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import TrialMetrics, metrics_from_classified
from repro.analysis.signalstats import SignalStats, stats_for_test_packets
from repro.analysis.tables import render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.tracedir import trial_trace_path
from repro.scenario.builtin import TABLE4_SCENARIOS
from repro.trace.persist import save_trace
from repro.trace.trial import run_fast_trial

# Table 4 ran 12,720 packets per trial (~10^8 body bits).
PAPER_PACKETS = 12_720

PAPER_LEVEL_MEANS = {"Air 1": 30.58, "Wall 1": 25.78, "Air 2": 28.58, "Wall 2": 26.66}


@dataclass
class WallsResult:
    signal_rows: list[SignalStats] = field(default_factory=list)
    metrics_rows: list[TrialMetrics] = field(default_factory=list)

    def level_mean(self, trial: str) -> float:
        for row in self.signal_rows:
            if row.group == trial and row.level is not None:
                return row.level.mean
        raise KeyError(trial)

    def wall_cost(self, material_pair: tuple[str, str]) -> float:
        """Signal-level cost of a wall: air mean minus wall mean."""
        air, wall = material_pair
        return self.level_mean(air) - self.level_mean(wall)


def _run_wall(
    name: str,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> tuple[TrialMetrics, SignalStats]:
    """One wall trial, picklable: compiles the registered scenario
    in-process (registry names pinned in ``TABLE4_SCENARIOS``)."""
    from repro.scenario.registry import REGISTRY

    compiled = REGISTRY.compile(TABLE4_SCENARIOS[name])
    config = compiled.trial_config(name=name, packets=packets, seed=seed)
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
    )


def _aggregate(ctx: PlanContext, values: list) -> WallsResult:
    result = WallsResult()
    for metrics, signal_row in values:
        result.metrics_rows.append(metrics)
        result.signal_rows.append(signal_row)
    return result


def _render(result: WallsResult, scale: float) -> None:
    print("Table 4: Signal metrics with a single wall "
          f"(scale={scale:g})")
    print(render_signal_table(result.signal_rows, label="Trial"))
    plaster = result.wall_cost(("Air 1", "Wall 1"))
    concrete = result.wall_cost(("Air 2", "Wall 2"))
    print(f"\nWall cost: plaster+mesh {plaster:.1f} levels (paper ~5), "
          f"concrete {concrete:.1f} levels (paper ~2)")
    total_damage = sum(m.body_bits_damaged for m in result.metrics_rows)
    total_loss = sum(m.packets_lost for m in result.metrics_rows)
    print(f"Damaged bits across all four trials: {total_damage} (paper: 0); "
          f"lost packets: {total_loss} (paper: 0)")


def _report_lines(report, result: WallsResult, scale: float) -> None:
    plaster = result.wall_cost(("Air 1", "Wall 1"))
    concrete = result.wall_cost(("Air 2", "Wall 2"))
    report.add("T4 walls", "plaster+mesh cost", "~5 levels",
               f"{plaster:.1f}", 4.0 < plaster < 6.0)
    report.add("T4 walls", "concrete cost", "~2 levels",
               f"{concrete:.1f}", 1.0 < concrete < 3.0)


@experiment(
    name="table4",
    artifact="Table 4",
    description="Table 4: single wall",
    aggregate=_aggregate,
    render=_render,
    default_scale=0.5,
    default_seed=64,
    traceable=True,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per wall setup (two air references, two walls)."""
    return [
        TrialPlan(
            trial,
            _run_wall,
            {
                "name": trial,
                "packets": max(500, int(PAPER_PACKETS * ctx.scale)),
            },
            traceable=True,
            scenario=scenario,
        )
        for trial, scenario in TABLE4_SCENARIOS.items()
    ]


def run(scale: float = 1.0, seed: int = 64, jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2") -> WallsResult:
    return ENGINE.run(
        "table4", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
    )
