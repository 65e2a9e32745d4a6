"""Table 14 — competing WaveLAN units (Section 7.4).

Two hostile WaveLAN transmitters at the Figure-4 Tx4/Tx5 locations
transmit continuously (their receive thresholds raised to 35 so they
never defer).  Paper findings:

* victim threshold at the default **3**: the link is "completely
  unusable" — corrupted Ethernet addresses, high loss, rare
  collision-free transmissions;
* victim threshold at **25** (safely above the interferers' received
  levels): the competition is completely masked — no bit errors, a
  statistically insignificant .02 % loss, signal level and quality
  unchanged, but the silence level up from ~3.4 to ~13.6.
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
from repro.scenario.builtin import TABLE14_SCENARIOS
from repro.trace.persist import save_trace
from repro.trace.trial import run_fast_trial

PAPER_PACKETS = 12_715
MASKING_THRESHOLD = 25
DEFAULT_THRESHOLD = 3

PAPER_SILENCE = {"Without interference": 3.35, "With interference": 13.62}


@dataclass
class CompetingResult:
    metrics_rows: list[TrialMetrics] = field(default_factory=list)
    signal_rows: list[SignalStats] = field(default_factory=list)
    unusable_metrics: TrialMetrics | None = None

    def metrics(self, name: str) -> TrialMetrics:
        for row in self.metrics_rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def silence_mean(self, name: str) -> float:
        for row in self.signal_rows:
            if row.group == name and row.silence is not None:
                return row.silence.mean
        raise KeyError(name)

    def level_mean(self, name: str) -> float:
        for row in self.signal_rows:
            if row.group == name and row.level is not None:
                return row.level.mean
        raise KeyError(name)


def _run_trial(
    name: str,
    packets: int,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> tuple[TrialMetrics, SignalStats]:
    """One Table-14 trial, self-contained and picklable.

    Each trial compiles its registered scenario in-process; the victim
    threshold and the hostile transmitters' matched power levels are
    declared in the scenario (``match_received_level`` inverts the
    emitter model so the jammers land at the Table-6 levels).
    """
    from repro.scenario.registry import REGISTRY

    config = REGISTRY.compile(TABLE14_SCENARIOS[name]).trial_config(
        "Tx1", packets=packets, seed=seed, name=name
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
    )


def _aggregate(ctx: PlanContext, values: list) -> CompetingResult:
    result = CompetingResult()
    # Each value carries its trial name (the signal row's group), so a
    # ``trials`` selection folds correctly.
    for metrics, signal_row in values:
        if signal_row.group == "Unmasked (threshold 3)":
            result.unusable_metrics = metrics
        else:
            result.metrics_rows.append(metrics)
            result.signal_rows.append(signal_row)
    return result


def _render(result: CompetingResult, scale: float) -> None:
    print("Table 14: Signal metrics with and without interfering WaveLAN "
          f"transmitters (victim threshold {MASKING_THRESHOLD}, scale={scale:g})")
    print(render_signal_table(result.signal_rows, label="Trial"))
    masked = result.metrics("With interference")
    print(f"\nMasked competition: loss {masked.packet_loss_percent:.3f}% "
          f"(paper .02%), damaged bits {masked.body_bits_damaged} (paper 0)")
    if result.unusable_metrics is not None:
        u = result.unusable_metrics
        print(f"Unmasked (threshold {DEFAULT_THRESHOLD}): loss "
              f"{u.packet_loss_percent:.1f}%, truncated {u.packets_truncated}, "
              f"damaged {u.body_damaged_packets} of {u.packets_received} "
              f"received — \"completely unusable\"")
    print("Paper silence means:", PAPER_SILENCE)


def _report_lines(report, result: CompetingResult, scale: float) -> None:
    masked = result.metrics("With interference")
    silence_delta = result.silence_mean("With interference") - result.silence_mean(
        "Without interference"
    )
    report.add(
        "T14 competing", "masked: bit errors", "0",
        str(masked.body_bits_damaged), masked.body_bits_damaged == 0,
    )
    report.add(
        "T14 competing", "silence rise", "+10.3 levels",
        f"+{silence_delta:.1f}", 8.0 < silence_delta < 14.0,
    )
    report.add(
        "T14 competing", "unmasked", "completely unusable",
        f"{result.unusable_metrics.packet_loss_percent:.0f}% loss",
        result.unusable_metrics.packet_loss_percent > 50,
    )


@experiment(
    name="table14",
    artifact="Table 14",
    description="Table 14: competing WaveLAN units",
    aggregate=_aggregate,
    render=_render,
    default_scale=0.25,
    default_seed=74,
    traceable=True,
    report_lines=_report_lines,
    report_extras={"include_unusable": True},
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """The masked pair, plus the unmasked "unusable" trial."""
    packets = max(400, int(PAPER_PACKETS * ctx.scale))
    setups = [
        ("Without interference", packets),
        ("With interference", packets),
    ]
    if ctx.extra("include_unusable", True):
        # The paper's first attempt: victim at the default threshold 3,
        # the competition unmasked — "completely unusable".
        setups.append(("Unmasked (threshold 3)", min(packets, 1_440)))
    return [
        TrialPlan(
            name,
            _run_trial,
            {"name": name, "packets": count},
            traceable=True,
            scenario=TABLE14_SCENARIOS[name],
        )
        for name, count in setups
    ]


def run(
    scale: float = 1.0,
    seed: int = 74,
    include_unusable: bool = True,
    jobs: int = 1,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> CompetingResult:
    """Run the masked pair of Table-14 trials (plus the unmasked one).

    The trials are mutually independent, so ``jobs > 1`` fans them over
    a process pool; the assembled result is identical to a serial run.
    """
    return ENGINE.run(
        "table14", scale=scale, seed=seed, jobs=jobs,
        trace_dir=trace_dir, trace_format=trace_format,
        extras={"include_unusable": include_unusable},
    )
