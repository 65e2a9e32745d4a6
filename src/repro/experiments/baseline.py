"""Table 2 — in-room base case (Section 5.1).

Nine long office trials at signal level ≈ 29.5.  Paper findings the
reproduction must preserve: more than 10^10 body bits with almost no
bit errors (single corrupted bits in two trials), and a residual packet
loss "well under one per thousand" (.01-.07 %) even in a near-perfect
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import TrialMetrics
from repro.analysis.tables import render_metrics_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, trial_plan

#: The registered topology all nine trials share.
SCENARIO = "paper/office"

# The paper's nine office trials and their packet counts (Table 2).
PAPER_TRIALS: list[tuple[str, int]] = [
    ("office1", 102_720),
    ("office2", 40_080),
    ("office3", 102_720),
    ("office4", 122_159),
    ("office5", 488_399),
    ("office6", 122_160),
    ("office7", 122_160),
    ("office8", 125_040),
    ("office9", 122_160),
]

# Paper-reported loss percentages, for EXPERIMENTS.md comparison.
PAPER_LOSS_PERCENT = {
    "office1": 0.03, "office2": 0.0, "office3": 0.01, "office4": 0.02,
    "office5": 0.07, "office6": 0.04, "office7": 0.02, "office8": 0.02,
    "office9": 0.02,
}


@dataclass
class BaselineResult:
    """All nine trial rows plus the aggregate the abstract quotes."""

    rows: list[TrialMetrics] = field(default_factory=list)

    @property
    def total_body_bits(self) -> int:
        return sum(r.body_bits_received for r in self.rows)

    @property
    def total_damaged_bits(self) -> int:
        return sum(r.body_bits_damaged for r in self.rows)

    @property
    def aggregate_ber(self) -> float:
        if self.total_body_bits == 0:
            return 0.0
        return self.total_damaged_bits / self.total_body_bits

    @property
    def worst_loss_percent(self) -> float:
        return max((r.packet_loss_percent for r in self.rows), default=0.0)


def _aggregate(ctx: PlanContext, values: list) -> BaselineResult:
    return BaselineResult(rows=[outcome.metrics for outcome in values])


def _render(result: BaselineResult, scale: float) -> None:
    print("Table 2: Results of in-room experiment "
          f"(scale={scale:g} x paper trial lengths)")
    print(render_metrics_table(result.rows))
    print(
        f"\nAggregate: {result.total_body_bits:.3g} body bits received, "
        f"{result.total_damaged_bits} damaged "
        f"(BER ~ {result.aggregate_ber:.2g}); "
        f"worst trial loss {result.worst_loss_percent:.3f}%"
    )


def _report_lines(report, result: BaselineResult, scale: float) -> None:
    report.add(
        "T2 baseline", "worst trial loss", "<= .07%",
        f"{result.worst_loss_percent:.3f}%", result.worst_loss_percent < 0.2,
    )
    report.add(
        "T2 baseline", "aggregate BER", "~1e-10",
        f"{result.aggregate_ber:.1e}", result.aggregate_ber < 1e-7,
    )


def _report_scale(scale: float) -> float:
    # The paper's office trials are ~70x longer than everything else;
    # a fifth of the report scale keeps the report tractable.
    return max(scale * 0.2, 0.01)


@experiment(
    name="table2",
    artifact="Table 2",
    description="Table 2: in-room base case",
    aggregate=_aggregate,
    render=_render,
    default_scale=0.05,
    default_seed=1996,
    traceable=True,
    report_lines=_report_lines,
    report_scale=_report_scale,
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """The nine office trials as independent plans."""
    return [
        trial_plan(name, TrialSpec(
            name, max(1000, int(paper_count * ctx.scale)), scenario=SCENARIO
        ))
        for name, paper_count in PAPER_TRIALS
    ]


def run(scale: float = 1.0, seed: int = 1996, jobs: int = 1) -> BaselineResult:
    """Run the nine office trials at ``scale`` times the paper's lengths.

    The trials are mutually independent, so ``jobs > 1`` fans them over
    a process pool (:mod:`repro.parallel`); rows come back in trial
    order and are identical to a serial run.
    """
    return ENGINE.run("table2", scale=scale, seed=seed, jobs=jobs)
