"""Tables 5, 6 and 7 — the Figure-4 multi-room experiment (Section 6.2).

Four transmitter locations at increasing distance/obstacle cost from a
fixed receiver.  Paper findings to preserve:

* Tx1/Tx2 (same office / one concrete wall): essentially perfect, the
  wall costs ~2 levels;
* Tx4 (45 ft, walls + door, level ≈ 13.8): still clean, a single
  truncation;
* Tx5 (30 ft, walls + metal, level ≈ 9.5): the first corrupted bodies —
  ~25 packets carrying ~82 bit errors (worst 7), trivially correctable
  with coding "but the existing WaveLAN system does not include such a
  mechanism";
* within Tx5, corrupted packets have noticeably *lower level*, the
  truncated packet noticeably *lower quality* (Table 7).
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

#: The registered Figure-4 topology; its four links are Tx1/Tx2/Tx4/Tx5.
SCENARIO = "paper/multiroom"

# Paper packet counts per location (Table 5).
PAPER_PACKETS = {"Tx1": 12_715, "Tx2": 12_720, "Tx4": 1_440, "Tx5": 1_440}

PAPER_LEVEL_MEANS = {"Tx1": 28.58, "Tx2": 26.66, "Tx4": 13.81, "Tx5": 9.50}


@dataclass
class MultiroomResult:
    metrics_rows: list[TrialMetrics] = field(default_factory=list)
    signal_rows: list[SignalStats] = field(default_factory=list)
    tx5_classified: ClassifiedTrace | None = None
    tx5_breakdown: list[SignalStats] = field(default_factory=list)

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


def _run_location(
    name: str,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> tuple:
    """One transmitter location, self-contained and picklable.

    Compiles the registered layout in-process (models don't travel to
    workers) and returns everything the result aggregates: metrics
    row, signal row, and — for Tx5 — the classified trace itself.
    The location name doubles as the compiled scenario's link name.
    """
    from repro.scenario.registry import REGISTRY

    config = REGISTRY.compile(SCENARIO).trial_config(
        link=name, packets=packets, seed=seed
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
        classified if name == "Tx5" else None,
    )


def _aggregate(ctx: PlanContext, values: list) -> MultiroomResult:
    result = MultiroomResult()
    for metrics_row, signal_row, classified in values:
        result.metrics_rows.append(metrics_row)
        result.signal_rows.append(signal_row)
        if classified is not None:
            result.tx5_classified = classified
            result.tx5_breakdown = signal_stats_by_class(classified)
    return result


def _render(result: MultiroomResult, scale: float) -> None:
    print(f"Table 5: Results of multi-room experiments (scale={scale:g})")
    print(render_metrics_table(result.metrics_rows))
    print("\nTable 6: Signal metrics for multi-room experiment")
    print(render_signal_table(result.signal_rows, label="Trial"))
    print("\nTable 7: Signal metrics for multi-room scenario Tx5")
    print(render_signal_table(result.tx5_breakdown))
    print("\nPaper level means:", PAPER_LEVEL_MEANS)


def _report_lines(report, result: MultiroomResult, scale: float) -> None:
    tx5 = result.metrics("Tx5")
    report.add(
        "T5-7 multiroom", "Tx5 level mean", "9.50",
        f"{result.level_mean('Tx5'):.2f}",
        abs(result.level_mean("Tx5") - 9.5) < 1.5,
    )
    report.add(
        "T5-7 multiroom", "Tx5 damaged packets / 1440", "~25",
        f"{tx5.body_damaged_packets / max(scale, 1e-9):.0f} (scaled)",
        tx5.body_damaged_packets > 0,
    )


@experiment(
    name="table5",
    artifact="Tables 5-7",
    description="Tables 5-7: multi-room experiment",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=65,
    aliases=("table6", "table7"),
    traceable=True,
    report_lines=_report_lines,
    # The report's lines read the Tx5 location only.
    report_extras={"trials": ("Tx5",)},
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """The four transmitter locations, in layout order."""
    return [
        TrialPlan(
            name,
            _run_location,
            {
                "name": name,
                "packets": max(400, int(PAPER_PACKETS[name] * ctx.scale)),
            },
            traceable=True,
            scenario=SCENARIO,
        )
        for name in PAPER_PACKETS
    ]


def run(scale: float = 1.0, seed: int = 65, jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2") -> MultiroomResult:
    """Run the four locations; ``jobs > 1`` fans them over a pool.

    Location order, seeds, and every row are identical for any ``jobs``
    value (see :mod:`repro.parallel`).
    """
    return ENGINE.run(
        "table5", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
    )


def main(scale: float = 1.0, seed: int = 65, jobs: int = 1,
         trace_dir: Optional[str] = None,
         trace_format: str = "v2") -> MultiroomResult:
    result = run(scale=scale, seed=seed, jobs=jobs, trace_dir=trace_dir,
                 trace_format=trace_format)
    _render(result, scale)
    return result


if __name__ == "__main__":
    main()
