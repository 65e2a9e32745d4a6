"""Figure 1 — signal level as a function of distance (Section 5.2).

The receiver is fixed against one wall of a large lecture hall; the
transmitter moves away in steps (zero = units in physical contact).
Paper findings: a smooth dropoff dominates, with multipath dips at 6 and
30 feet "likely to be particular to the room"; error bars span the
min/max observed per distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.classify import classify_trace
from repro.analysis.signalstats import stats_for_test_packets
from repro.environment.geometry import Point
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.tracedir import trial_trace_path
from repro.trace.persist import save_trace
from repro.trace.trial import TrialConfig, run_fast_trial

# Transmitter distances in feet (0 = physical contact).
DISTANCES_FT = [0, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60, 70, 80]
PACKETS_PER_POINT = 500


@dataclass
class DistancePoint:
    """One x-position of the Figure-1 series."""

    distance_ft: float
    packets_received: int
    level_min: int
    level_mean: float
    level_max: int


@dataclass
class PathLossResult:
    points: list[DistancePoint] = field(default_factory=list)

    def mean_series(self) -> list[tuple[float, float]]:
        return [(p.distance_ft, p.level_mean) for p in self.points]

    def dip_depth(self, dip_ft: float, window_ft: float = 6.0) -> float:
        """How far the level at a dip sits below its neighbours' mean."""
        at_dip = [p for p in self.points if abs(p.distance_ft - dip_ft) < 1.0]
        neighbours = [
            p
            for p in self.points
            if 1.0 <= abs(p.distance_ft - dip_ft) <= window_ft
        ]
        if not at_dip or not neighbours:
            return 0.0
        neighbour_mean = sum(p.level_mean for p in neighbours) / len(neighbours)
        return neighbour_mean - at_dip[0].level_mean


def _run_point(
    distance: float,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> DistancePoint:
    """One distance step, picklable."""
    from repro.scenario.registry import REGISTRY

    propagation = REGISTRY.compile("paper/lecture-hall").propagation()
    config = TrialConfig(
        name=f"d={distance}ft",
        packets=packets,
        seed=seed,
        propagation=propagation,
        tx_position=Point(float(distance), 0.0),
        rx_position=Point(0.0, 0.0),
    )
    output = run_fast_trial(config)
    if trace_dir is not None:
        save_trace(
            output.trace,
            trial_trace_path(trace_dir, config.name, trace_format),
            format=trace_format,
        )
    classified = classify_trace(output.trace)
    stats = stats_for_test_packets(config.name, classified)
    if stats.level is None:
        return DistancePoint(distance, 0, 0, 0.0, 0)
    return DistancePoint(
        distance_ft=distance,
        packets_received=stats.packets,
        level_min=stats.level.minimum,
        level_mean=stats.level.mean,
        level_max=stats.level.maximum,
    )


def _aggregate(ctx: PlanContext, values: list) -> PathLossResult:
    return PathLossResult(points=list(values))


def _render(result: PathLossResult, scale: float) -> None:
    print("Figure 1: Signal level as a function of distance "
          "(lecture hall; error bars = min/max)")
    print(f"{'ft':>4} | {'min':>4} | {'mean':>6} | {'max':>4} | bar")
    for p in result.points:
        bar = "#" * max(0, int(round(p.level_mean)))
        print(f"{p.distance_ft:4.0f} | {p.level_min:4d} | {p.level_mean:6.2f} | "
              f"{p.level_max:4d} | {bar}")
    print(f"\nMultipath dip depths: 6 ft -> {result.dip_depth(6.0):.1f} levels, "
          f"30 ft -> {result.dip_depth(30.0):.1f} levels "
          "(paper: noticeable dips at both)")


def _report_lines(report, result: PathLossResult, scale: float) -> None:
    report.add(
        "F1 path loss", "dip at 6 ft", "noticeable",
        f"{result.dip_depth(6.0):.1f} levels", result.dip_depth(6.0) > 2.0,
    )
    report.add(
        "F1 path loss", "dip at 30 ft", "noticeable",
        f"{result.dip_depth(30.0):.1f} levels", result.dip_depth(30.0) > 2.0,
    )


@experiment(
    name="figure1",
    artifact="Figure 1",
    description="Figure 1: signal level vs distance",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=51,
    traceable=True,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per distance step."""
    packets = max(100, int(PACKETS_PER_POINT * ctx.scale))
    return [
        TrialPlan(
            f"d={distance}ft",
            _run_point,
            {"distance": float(distance), "packets": packets},
            traceable=True,
        )
        for distance in DISTANCES_FT
    ]


def run(scale: float = 1.0, seed: int = 51, jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2") -> PathLossResult:
    return ENGINE.run(
        "figure1", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
    )
