"""Table 10 — narrowband 900 MHz cordless phones (Section 7.2).

Two FM cordless phones in various placements around a WaveLAN pair 20 ft
apart in a lecture hall.  Paper findings to preserve:

* **no damaged test packets in any configuration** and only background
  packet loss — DSSS shrugs narrowband energy off;
* the silence level tells the real story, ordered
  ``bases nearby > cluster > handsets nearby > handsets talking > off``
  — the inversion of "cluster" vs "bases nearby" being the fingerprint
  of the phones' power control;
* outsider packets appear when (and only when) the silence level is low
  enough for the receiver to hear other buildings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.classify import OUTSIDER_CLASSES, classify_trace
from repro.analysis.metrics import TrialMetrics, metrics_from_classified
from repro.analysis.signalstats import (
    SignalStats,
    stats_for_rows,
    stats_for_test_packets,
)
from repro.analysis.tables import render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.tracedir import trial_trace_path
from repro.scenario.builtin import TABLE10_SCENARIOS
from repro.trace.persist import save_trace
from repro.trace.trial import run_fast_trial

PAPER_PACKETS = 1_440

# Paper Table 10 silence means, for comparison.
PAPER_SILENCE_MEANS = {
    "Phones off": 2.40,
    "Cluster": 15.45,
    "Handsets nearby": 11.33,
    "Handsets nearby talking": 6.11,
    "Bases nearby": 19.32,
}


# Phone placements and outsider traffic per trial now live
# declaratively in the registry (TABLE10_SCENARIOS names them); the
# compiled scenarios are pinned equivalent by the golden tests.
TRIALS = list(PAPER_SILENCE_MEANS)


@dataclass
class NarrowbandResult:
    signal_rows: list[SignalStats] = field(default_factory=list)
    outsider_rows: list[SignalStats] = field(default_factory=list)
    metrics_rows: list[TrialMetrics] = field(default_factory=list)

    def silence_mean(self, trial: str) -> float:
        for row in self.signal_rows:
            if row.group == trial and row.silence is not None:
                return row.silence.mean
        raise KeyError(trial)

    def metrics(self, trial: str) -> TrialMetrics:
        for row in self.metrics_rows:
            if row.name == trial:
                return row
        raise KeyError(trial)

    @property
    def total_damaged_test_packets(self) -> int:
        return sum(
            m.body_damaged_packets + m.packets_truncated + m.wrapper_damaged
            for m in self.metrics_rows
        )


def _run_trial(
    trial: str,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> tuple[TrialMetrics, SignalStats, SignalStats | None]:
    """One Table-10 configuration, self-contained and picklable."""
    from repro.scenario.registry import REGISTRY

    config = REGISTRY.compile(TABLE10_SCENARIOS[trial]).trial_config(
        name=trial, packets=packets, seed=seed
    )
    output = run_fast_trial(config)
    if trace_dir is not None:
        save_trace(
            output.trace,
            trial_trace_path(trace_dir, trial, trace_format),
            format=trace_format,
        )
    classified = classify_trace(output.trace)
    outsiders = classified.rows(*OUTSIDER_CLASSES)
    return (
        metrics_from_classified(classified),
        stats_for_test_packets(trial, classified),
        stats_for_rows(f"{trial} (outsiders)", classified.trace, outsiders)
        if len(outsiders)
        else None,
    )


def _aggregate(ctx: PlanContext, values: list) -> NarrowbandResult:
    result = NarrowbandResult()
    for metrics, signal_row, outsider_row in values:
        result.metrics_rows.append(metrics)
        result.signal_rows.append(signal_row)
        if outsider_row is not None:
            result.outsider_rows.append(outsider_row)
    return result


def _render(result: NarrowbandResult, scale: float) -> None:
    print("Table 10: The effects of narrowband 900 MHz cordless phones "
          f"(scale={scale:g})")
    print(render_signal_table(result.signal_rows, label="Trial"))
    if result.outsider_rows:
        print("\nOutsiders:")
        print(render_signal_table(result.outsider_rows, label="Trial"))
    print(f"\nDamaged test packets across all trials: "
          f"{result.total_damaged_test_packets} (paper: 0)")
    print("Paper silence means:", PAPER_SILENCE_MEANS)


def _report_lines(report, result: NarrowbandResult, scale: float) -> None:
    ordering_ok = (
        result.silence_mean("Bases nearby")
        > result.silence_mean("Cluster")
        > result.silence_mean("Handsets nearby")
        > result.silence_mean("Handsets nearby talking")
        > result.silence_mean("Phones off")
    )
    report.add(
        "T10 narrowband", "damaged test packets", "0",
        str(result.total_damaged_test_packets),
        result.total_damaged_test_packets == 0,
    )
    report.add(
        "T10 narrowband", "silence ordering (power control)",
        "bases > cluster > handsets > talking > off",
        "reproduced" if ordering_ok else "violated", ordering_ok,
    )


@experiment(
    name="table10",
    artifact="Table 10",
    description="Table 10: narrowband phones",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=710,
    traceable=True,
    report_lines=_report_lines,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per Table-10 phone configuration."""
    packets = max(400, int(PAPER_PACKETS * ctx.scale))
    return [
        TrialPlan(
            trial,
            _run_trial,
            {"trial": trial, "packets": packets},
            traceable=True,
            scenario=TABLE10_SCENARIOS[trial],
        )
        for trial in TRIALS
    ]


def run(scale: float = 1.0, seed: int = 710, jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2") -> NarrowbandResult:
    """Run the five Table-10 configurations.

    The trials are mutually independent, so ``jobs > 1`` fans them over
    a process pool; the assembled result is identical to a serial run.
    """
    return ENGINE.run(
        "table10", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
    )
