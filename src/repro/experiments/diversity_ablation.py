"""Ablation X8 — what the second antenna buys.

"The receiver selects between two perpendicular antennas and multiple
incoming signal paths to combat multipath interference" (Section 2).
This ablation reruns marginal links with the diversity selector
disabled (one antenna) and widened fading, and measures what the
hardware feature is worth where it matters: at the edge of the
Figure-2 error region, where a fraction of a level decides between a
clean packet and a damaged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import PacketClass, classify_trace
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.trace.trial import TrialConfig, run_fast_trial

LEVELS = (9.5, 8.0, 7.0, 6.0)
PACKETS_PER_POINT = 2_000
BRANCH_COUNTS = (1, 2, 4)  # 4 = a hypothetical richer array


@dataclass
class DiversityPoint:
    level: float
    branches: int
    packets_sent: int
    lost: int
    damaged: int

    @property
    def error_fraction(self) -> float:
        """Lost or damaged packets per packet sent."""
        return (self.lost + self.damaged) / self.packets_sent


@dataclass
class DiversityResult:
    points: list[DiversityPoint] = field(default_factory=list)

    def point(self, level: float, branches: int) -> DiversityPoint:
        for p in self.points:
            if p.level == level and p.branches == branches:
                return p
        raise KeyError((level, branches))

    def improvement(self, level: float) -> float:
        """Error-rate ratio single-antenna : two-antenna at one level."""
        single = self.point(level, 1).error_fraction
        double = self.point(level, 2).error_fraction
        if double == 0.0:
            return float("inf") if single > 0 else 1.0
        return single / double


def _run_level(level: float, packets: int, seed: int) -> list[DiversityPoint]:
    """All branch counts at one signal level, with one shared seed:
    identical channel draws, the only change is the selector."""
    points = []
    for branches in BRANCH_COUNTS:
        output = run_fast_trial(
            TrialConfig(
                name=f"div-{level}-{branches}",
                packets=packets,
                seed=seed,
                mean_level=level,
                antenna_branches=branches,
            )
        )
        classified = classify_trace(output.trace)
        received = len(classified.test_rows)
        points.append(
            DiversityPoint(
                level=level,
                branches=branches,
                packets_sent=packets,
                lost=packets - received,
                damaged=received - len(classified.rows(PacketClass.UNDAMAGED)),
            )
        )
    return points


def _aggregate(ctx: PlanContext, values: list) -> DiversityResult:
    result = DiversityResult()
    for points in values:
        result.points.extend(points)
    return result


@experiment(
    name="diversity",
    artifact="X8",
    description="X8: antenna diversity ablation",
    aggregate=_aggregate,
    render=lambda result, scale: _render(result, scale),
    default_scale=1.0,
    default_seed=101,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per signal level (branch counts share the seed)."""
    packets = max(400, int(PACKETS_PER_POINT * ctx.scale))
    return [
        TrialPlan(
            f"level-{level:g}",
            _run_level,
            {"level": level, "packets": packets},
        )
        for level in LEVELS
    ]


def run(scale: float = 1.0, seed: int = 101, jobs: int = 1) -> DiversityResult:
    return ENGINE.run("diversity", scale=scale, seed=seed, jobs=jobs)


def _render(result: DiversityResult, scale: float) -> None:
    print("Ablation X8: antenna selection diversity at the error-region edge")
    header = f"{'level':>6} | " + " | ".join(
        f"{b} antenna{'s' if b > 1 else ' '}" for b in BRANCH_COUNTS
    ) + " | 1-ant/2-ant error ratio"
    print(header)
    for level in LEVELS:
        cells = []
        for branches in BRANCH_COUNTS:
            p = result.point(level, branches)
            cells.append(f"{100 * p.error_fraction:8.2f}%")
        print(f"{level:6.1f} | " + " | ".join(cells)
              + f" | {result.improvement(level):8.2f}x")
    print("\nSelection diversity trims the deep fades that push marginal "
          "packets under the corruption thresholds; its value concentrates "
          "exactly at the Figure-2 boundary, which is why the hardware "
          "pays for a second antenna.")
