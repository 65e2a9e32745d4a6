"""V1 — internal validation: the two trial paths must agree.

The library has two ways to run a point-to-point trial:

* the vectorized **fast path** (:func:`repro.trace.trial.run_fast_trial`)
  used by the long measurement experiments, and
* the event-driven **MAC path** (:func:`repro.trace.trial.run_mac_trial`)
  used by the contention experiments.

On a contention-free scenario they model the same physics and must
produce statistically indistinguishable traces.  This experiment runs
both on identical geometry and compares delivery rate and the three
signal-metric means — a methodological self-check that the fast path
is a faithful shortcut, not a different model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import classify_trace
from repro.analysis.signalstats import stats_for_test_packets
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.trace.trial import TrialConfig, run_fast_trial, run_mac_trial

# Scenarios spanning clean to error region.
SCENARIOS = (
    ("office", 8.0, 29.5),
    ("multi-wall", 8.0, 13.8),
    ("marginal", 8.0, 8.5),
)
PACKETS = 1_200


@dataclass
class PathComparison:
    scenario: str
    packets: int
    fast_delivery: float
    mac_delivery: float
    fast_level_mean: float
    mac_level_mean: float
    fast_quality_mean: float
    mac_quality_mean: float
    fast_silence_mean: float
    mac_silence_mean: float

    @property
    def delivery_gap(self) -> float:
        return abs(self.fast_delivery - self.mac_delivery)

    @property
    def level_gap(self) -> float:
        return abs(self.fast_level_mean - self.mac_level_mean)

    @property
    def quality_gap(self) -> float:
        return abs(self.fast_quality_mean - self.mac_quality_mean)


@dataclass
class ValidationResult:
    comparisons: list[PathComparison] = field(default_factory=list)

    def comparison(self, scenario: str) -> PathComparison:
        for c in self.comparisons:
            if c.scenario == scenario:
                return c
        raise KeyError(scenario)

    @property
    def worst_delivery_gap(self) -> float:
        return max(c.delivery_gap for c in self.comparisons)

    @property
    def worst_level_gap(self) -> float:
        return max(c.level_gap for c in self.comparisons)


def _trace_stats(trace):
    classified = classify_trace(trace)
    stats = stats_for_test_packets("all", classified)
    return (
        stats.packets,
        stats.level.mean if stats.level else 0.0,
        stats.quality.mean if stats.quality else 0.0,
        stats.silence.mean if stats.silence else 0.0,
    )


def _compare_paths(
    scenario: str, distance_ft: float, anchor_level: float, packets: int,
    seed: int,
) -> PathComparison:
    """Run both trial paths on one geometry and compare, picklable."""
    propagation = PropagationModel.calibrated(
        level=anchor_level, at_distance_ft=distance_ft
    )
    config = TrialConfig(
        name=f"validate-{scenario}",
        packets=packets,
        seed=seed,
        propagation=propagation,
        tx_position=Point(0.0, 0.0),
        rx_position=Point(distance_ft, 0.0),
    )
    fast = run_fast_trial(config)
    mac_output, channel = run_mac_trial(config)

    fast_received, fast_level, fast_quality, fast_silence = _trace_stats(
        fast.trace
    )
    mac_received, mac_level, mac_quality, mac_silence = _trace_stats(
        mac_output.trace
    )
    return PathComparison(
        scenario=scenario,
        packets=packets,
        fast_delivery=fast_received / packets,
        mac_delivery=mac_received / packets,
        fast_level_mean=fast_level,
        mac_level_mean=mac_level,
        fast_quality_mean=fast_quality,
        mac_quality_mean=mac_quality,
        fast_silence_mean=fast_silence,
        mac_silence_mean=mac_silence,
    )


def _aggregate(ctx: PlanContext, values: list) -> ValidationResult:
    return ValidationResult(comparisons=list(values))


@experiment(
    name="validate",
    artifact="V1",
    description="V1: fast path vs MAC path validation",
    aggregate=_aggregate,
    render=lambda result, scale: _render(result, scale),
    default_scale=1.0,
    default_seed=111,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per validation scenario."""
    packets = max(300, int(PACKETS * ctx.scale))
    return [
        TrialPlan(
            scenario,
            _compare_paths,
            {
                "scenario": scenario,
                "distance_ft": distance_ft,
                "anchor_level": anchor_level,
                "packets": packets,
            },
        )
        for scenario, distance_ft, anchor_level in SCENARIOS
    ]


def run(scale: float = 1.0, seed: int = 111, jobs: int = 1) -> ValidationResult:
    return ENGINE.run("validate", scale=scale, seed=seed, jobs=jobs)


def _render(result: ValidationResult, scale: float) -> None:
    print("V1: fast path vs event-driven MAC path (contention-free)")
    print(f"{'scenario':>12} | {'delivery f/m':>14} | {'level f/m':>14} | "
          f"{'quality f/m':>14}")
    for c in result.comparisons:
        print(f"{c.scenario:>12} | {100 * c.fast_delivery:5.1f}/"
              f"{100 * c.mac_delivery:5.1f}% | "
              f"{c.fast_level_mean:6.2f}/{c.mac_level_mean:6.2f} | "
              f"{c.fast_quality_mean:6.2f}/{c.mac_quality_mean:6.2f}")
    print(f"\nworst gaps: delivery {100 * result.worst_delivery_gap:.2f}pp, "
          f"level {result.worst_level_gap:.2f} units")
