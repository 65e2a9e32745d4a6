"""Table 4 — signal metrics with a single wall (Section 6.1).

Two wall materials, each compared against the same path without the
wall.  Paper findings: 10^8 bits with no loss or error in every
location; the plaster-with-wire-mesh wall costs ~5 signal levels, the
concrete-block wall only ~2; signal *quality* is unaffected.
"""

from __future__ import annotations

from repro.analysis.tables import render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, TrialTable, trial_plan
from repro.scenario.builtin import TABLE4_SCENARIOS

# Table 4 ran 12,720 packets per trial (~10^8 body bits).
PAPER_PACKETS = 12_720

PAPER_LEVEL_MEANS = {"Air 1": 30.58, "Wall 1": 25.78, "Air 2": 28.58, "Wall 2": 26.66}


class WallsResult(TrialTable):
    def wall_cost(self, material_pair: tuple[str, str]) -> float:
        """Signal-level cost of a wall: air mean minus wall mean."""
        air, wall = material_pair
        return self.level_mean(air) - self.level_mean(wall)


def _aggregate(ctx: PlanContext, values: list) -> WallsResult:
    result = WallsResult()
    for outcome in values:
        result.add(outcome)
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
    packets = max(500, int(PAPER_PACKETS * ctx.scale))
    return [
        trial_plan(trial, TrialSpec(
            trial, packets, scenario=scenario, reads=("metrics", "signal")
        ))
        for trial, scenario in TABLE4_SCENARIOS.items()
    ]


def run(scale: float = 1.0, seed: int = 64, jobs: int = 1) -> WallsResult:
    return ENGINE.run("table4", scale=scale, seed=seed, jobs=jobs)
