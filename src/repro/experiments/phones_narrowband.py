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

from repro.analysis.signalstats import SignalStats
from repro.analysis.tables import render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, TrialTable, trial_plan
from repro.scenario.builtin import TABLE10_SCENARIOS

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
class NarrowbandResult(TrialTable):
    outsider_rows: list[SignalStats] = field(default_factory=list)

    @property
    def total_damaged_test_packets(self) -> int:
        return sum(
            m.body_damaged_packets + m.packets_truncated + m.wrapper_damaged
            for m in self.metrics_rows
        )


def _aggregate(ctx: PlanContext, values: list) -> NarrowbandResult:
    result = NarrowbandResult()
    for outcome in values:
        result.add(outcome)
        if outcome.outsiders is not None:
            result.outsider_rows.append(outcome.outsiders)
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
        trial_plan(trial, TrialSpec(
            trial, packets, scenario=TABLE10_SCENARIOS[trial],
            reads=("metrics", "signal", "outsiders"),
        ))
        for trial in TRIALS
    ]


def run(scale: float = 1.0, seed: int = 710, jobs: int = 1) -> NarrowbandResult:
    """Run the five Table-10 configurations.

    The trials are mutually independent, so ``jobs > 1`` fans them over
    a process pool; the assembled result is identical to a serial run.
    """
    return ENGINE.run("table10", scale=scale, seed=seed, jobs=jobs)
