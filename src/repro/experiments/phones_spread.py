"""Tables 11, 12 and 13 — 900 MHz spread-spectrum cordless phones
(Section 7.3), the worst interferer the paper found.

Six configurations of two phone models around a WaveLAN pair 25 ft apart
in a conference room.  Paper findings to preserve (Table 11):

* base unit near the receiver (RS base / RS cluster / AT&T cluster):
  ~50 % packet loss and **100 % truncation** of what arrives;
* both units far ("RS remote cluster"): link unharmed, silence ~20
  levels above ambient;
* handset near, base far ("AT&T handset"): ~1 % loss, ~4 % truncation,
  but ~59 % of packets carrying correctable body errors, worst packet
  ~4.9 % of body bits — the regime that motivates variable FEC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import ClassifiedTrace
from repro.analysis.metrics import TrialMetrics
from repro.analysis.signalstats import SignalStats
from repro.analysis.tables import render_signal_table
from repro.experiments.engine import ENGINE, PlanContext, TrialPlan, experiment
from repro.experiments.trials import TrialSpec, TrialTable, trial_plan
from repro.framing.testpacket import BODY_BITS
from repro.scenario.builtin import TABLE11_SCENARIOS

PAPER_PACKETS = 1_440

# Table 11, paper values (loss %, truncated % of received, body-damaged
# % of received, worst body fraction of body bits).
PAPER_TABLE_11 = {
    "Phones off": dict(loss=0.5, truncated=0.0, body=0.0, worst=0.0),
    "RS base": dict(loss=52.0, truncated=100.0, body=0.0, worst=0.0),
    "RS cluster": dict(loss=51.0, truncated=100.0, body=0.0, worst=0.0),
    "AT&T cluster": dict(loss=52.0, truncated=100.0, body=0.0, worst=0.0),
    "RS remote cluster": dict(loss=0.0, truncated=0.0, body=0.0, worst=0.0),
    "AT&T handset": dict(loss=1.0, truncated=4.0, body=59.0, worst=4.9),
}


# Phone placements, power levels, and outsider traffic per trial now
# live declaratively in the registry (TABLE11_SCENARIOS names them);
# the compiled scenarios are pinned equivalent by the golden tests.
TRIALS = list(PAPER_TABLE_11)


@dataclass
class TrialSummary:
    """Measured Table-11 row."""

    name: str
    loss_percent: float
    truncated_percent: float
    wrapper_percent: float
    body_percent: float
    worst_body_fraction: float

    @classmethod
    def from_metrics(cls, metrics: TrialMetrics) -> "TrialSummary":
        """The Table-11 row of a trial's Table-1 row."""
        received = max(1, metrics.packets_received)
        return cls(
            name=metrics.name,
            loss_percent=metrics.packet_loss_percent,
            truncated_percent=100.0 * metrics.packets_truncated / received,
            wrapper_percent=100.0 * metrics.wrapper_damaged / received,
            body_percent=100.0 * metrics.body_damaged_packets / received,
            worst_body_fraction=(metrics.worst_body_bits or 0) / BODY_BITS,
        )


@dataclass
class SpreadResult(TrialTable):
    summaries: list[TrialSummary] = field(default_factory=list)
    classified: dict[str, ClassifiedTrace] = field(default_factory=dict)
    handset_breakdown: list[SignalStats] = field(default_factory=list)

    def summary(self, trial: str) -> TrialSummary:
        for row in self.summaries:
            if row.name == trial:
                return row
        raise KeyError(trial)


def _aggregate(ctx: PlanContext, values: list) -> SpreadResult:
    result = SpreadResult()
    for outcome in values:
        if outcome.classified is not None:
            result.classified[outcome.name] = outcome.classified
        result.add(outcome)
        result.summaries.append(TrialSummary.from_metrics(outcome.metrics))
        if outcome.breakdown is not None:
            result.handset_breakdown = outcome.breakdown
    return result


def _render(result: SpreadResult, scale: float) -> None:
    print("Table 11: Summary of spread spectrum cordless phones "
          f"(scale={scale:g})")
    header = (f"{'Trial':>18} | {'Loss':>6} | {'Trunc%':>7} | "
              f"{'Wrap%':>6} | {'Body%':>6} | {'Worst':>6}")
    print(header)
    print("-" * len(header))
    for s in result.summaries:
        print(
            f"{s.name:>18} | {s.loss_percent:5.1f}% | {s.truncated_percent:6.1f}% | "
            f"{s.wrapper_percent:5.1f}% | {s.body_percent:5.1f}% | "
            f"{100 * s.worst_body_fraction:5.2f}%"
        )
    print("\nTable 12: Signal measurements for spread spectrum phones")
    print(render_signal_table(result.signal_rows, label="Trial"))
    print("\nTable 13-style breakdown for the 'AT&T handset' trial:")
    print(render_signal_table(result.handset_breakdown))
    print("\nPaper Table 11:", PAPER_TABLE_11)


def _report_lines(report, result: SpreadResult, scale: float) -> None:
    stomped = result.summary("RS base")
    handset = result.summary("AT&T handset")
    report.add(
        "T11-13 SS phones", "base-near loss", "~52%",
        f"{stomped.loss_percent:.0f}%", 35 < stomped.loss_percent < 70,
    )
    report.add(
        "T11-13 SS phones", "base-near truncation", "100%",
        f"{stomped.truncated_percent:.0f}%", stomped.truncated_percent > 80,
    )
    report.add(
        "T11-13 SS phones", "handset body damage", "59%",
        f"{handset.body_percent:.0f}%", 40 < handset.body_percent < 75,
    )
    report.add(
        "T11-13 SS phones", "remote cluster", "harmless",
        f"{result.summary('RS remote cluster').loss_percent:.1f}% loss",
        result.summary("RS remote cluster").loss_percent < 1.0,
    )


@experiment(
    name="table11",
    artifact="Tables 11-13",
    description="Tables 11-13: spread-spectrum phones",
    aggregate=_aggregate,
    render=_render,
    default_scale=1.0,
    default_seed=73,
    aliases=("table12", "table13"),
    traceable=True,
    report_lines=_report_lines,
    # The report reads three trials' summary rows, so it runs only
    # those and its workers ship no per-packet records at all.
    report_extras={
        "keep_classified": False,
        "trials": ("RS base", "AT&T handset", "RS remote cluster"),
    },
)
def _plans(ctx: PlanContext) -> list[TrialPlan]:
    """One plan per Table-11 phone configuration."""
    packets = max(400, int(PAPER_PACKETS * ctx.scale))
    # ``keep_classified=False`` drops the per-packet output for callers
    # that only read the summary tables.
    kept = ("classified",) if ctx.extra("keep_classified", True) else ()
    return [
        trial_plan(trial, TrialSpec(
            trial, packets, scenario=TABLE11_SCENARIOS[trial],
            reads=("metrics", "signal") + kept
            + (("breakdown",) if trial == "AT&T handset" else ()),
        ))
        for trial in TRIALS
    ]


def run(
    scale: float = 1.0,
    seed: int = 73,
    jobs: int = 1,
    keep_classified: bool = True,
) -> SpreadResult:
    """Run the six Table-11 configurations.

    The trials are mutually independent, so ``jobs > 1`` fans them over
    a process pool; the assembled result is identical to a serial run.
    Pool workers send their classified traces back by pickle.
    ``keep_classified=False`` omits ``SpreadResult.classified`` for
    callers that only read the summary tables — e.g. the report, which
    then ships no records at all.
    """
    return ENGINE.run(
        "table11", scale=scale, seed=seed, jobs=jobs,
        extras={"keep_classified": keep_classified},
    )
