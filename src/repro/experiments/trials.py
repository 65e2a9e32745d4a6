"""One fast-path trial runner: compile, run, save, classify.

The paper captured every trial in one trace format and ran one offline
pipeline over all of them: match, classify, then the Table-1 row and
the signal summaries.  This module is that pipeline, written once.  An
experiment declares each contention-free trial as a :class:`TrialSpec`
— what runs, how many packets, and which products its aggregate reads
— and :func:`trial_plan` turns it into an engine plan whose worker is
:func:`run_trial`.  In the worker (or inline at ``jobs=1``) the runner
compiles the scenario, runs the trial, saves the raw trace when the
engine hands it a ``trace_dir``, classifies it, and returns one
:class:`TrialOutcome` holding only the products asked for.

Result classes that look rows up by trial name derive from
:class:`TrialTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.analysis.classify import (
    OUTSIDER_CLASSES,
    ClassifiedTrace,
    PacketClass,
    classify_trace,
)
from repro.analysis.metrics import TrialMetrics, metrics_from_classified
from repro.analysis.signalstats import (
    SignalStats,
    signal_stats_by_class,
    stats_for_rows,
    stats_for_test_packets,
)
from repro.experiments.engine import TrialPlan
from repro.scenario.compiler import compile_scenario
from repro.scenario.registry import REGISTRY
from repro.scenario.spec import ScenarioSpec
from repro.trace.columnar import V2_SUFFIX
from repro.trace.persist import save_trace
from repro.trace.trial import TrialConfig, run_fast_trial

#: The products a trial can return, in the order :func:`run_trial`
#: computes them:
#:
#: * ``metrics`` — the Table-1 row;
#: * ``signal`` — level/silence/quality over the test packets, grouped
#:   under the trial name;
#: * ``breakdown`` — the same per packet class (Tables 3, 7, 9, 13);
#: * ``outsiders`` — the same over the outsider rows (``None`` when the
#:   trial heard none);
#: * ``counts`` — packets per class;
#: * ``level`` — the trial's predicted mean signal level;
#: * ``classified`` — the classified trace itself.
READS = (
    "metrics", "signal", "breakdown", "outsiders", "counts", "level",
    "classified",
)

_V1_SUFFIX = ".jsonl"


@dataclass(frozen=True)
class TrialSpec:
    """One fast-path trial, declared.

    What runs is one of: a registered ``scenario`` with an optional
    ``link``; a ``scenario_dict``, a scenario spec in dict form that the
    worker compiles itself (fleet members a spawned worker's registry
    lacks); or a hand-built ``config``, its ``seed`` replaced by the
    engine's and, when a ``scenario`` is also named, its propagation
    model the scenario's (a placement of one's own in a registered
    room).  Scenario trials run ``packets`` packets under ``name``,
    which forks the trial's RNG streams.

    ``trace_name`` names the ``--save-traces`` file; it defaults to the
    config's name.  ``reads`` names the products (:data:`READS`) the
    aggregate reads; nothing else is computed or returned.
    """

    name: str = ""
    packets: int = 0
    scenario: Optional[str] = None
    link: Optional[str] = None
    scenario_dict: Optional[dict] = None
    config: Optional[TrialConfig] = None
    reads: tuple[str, ...] = ("metrics",)
    trace_name: Optional[str] = None

    def __post_init__(self) -> None:
        unknown = sorted(set(self.reads) - set(READS))
        if unknown:
            raise ValueError(f"unknown trial products {unknown}; valid: {READS}")

    def trial_config(self, seed: int) -> TrialConfig:
        """The config to run, compiled here: models never travel."""
        if self.scenario_dict is not None:
            compiled = compile_scenario(ScenarioSpec.from_dict(self.scenario_dict))
        elif self.scenario is not None:
            compiled = REGISTRY.compile(self.scenario)
        else:
            return replace(self.config, seed=seed)
        if self.config is not None:
            return replace(
                self.config, seed=seed, propagation=compiled.propagation()
            )
        return compiled.trial_config(
            self.link, packets=self.packets, seed=seed, name=self.name
        )


@dataclass
class TrialOutcome:
    """What one trial returns: its name plus the products it was asked
    for (the rest stay ``None``)."""

    name: str
    metrics: Optional[TrialMetrics] = None
    signal: Optional[SignalStats] = None
    breakdown: Optional[list[SignalStats]] = None
    outsiders: Optional[SignalStats] = None
    counts: Optional[dict[PacketClass, int]] = None
    level: Optional[float] = None
    classified: Optional[ClassifiedTrace] = None


def trial_plan(label: str, trial: TrialSpec) -> TrialPlan:
    """The engine plan running ``trial`` under ``label``.

    The label keys the trial's seed.  A registered scenario (or the
    dict's name) is also the plan's ``scenario`` tag, which the engine
    checks against the registry before any trial runs.
    """
    scenario = (
        trial.scenario_dict["name"]
        if trial.scenario_dict is not None
        else trial.scenario
    )
    return TrialPlan(
        label, run_trial, {"trial": trial}, traceable=True, scenario=scenario
    )


def run_trial(
    trial: TrialSpec,
    seed: int,
    trace_dir: Optional[str] = None,
    trace_format: str = "v2",
) -> TrialOutcome:
    """Compile, run, save (when ``trace_dir`` is set), classify, and
    return the products ``trial.reads`` names.  Picklable, and the same
    on a pool worker as inline: every random stream derives from
    ``seed``."""
    config = trial.trial_config(seed)
    output = run_fast_trial(config)
    if trace_dir is not None:
        save_trace(
            output.trace,
            trial_trace_path(
                trace_dir, trial.trace_name or config.name, trace_format
            ),
            format=trace_format,
        )
    classified = classify_trace(output.trace)
    reads = trial.reads
    outcome = TrialOutcome(config.name)
    if "metrics" in reads:
        outcome.metrics = metrics_from_classified(classified)
    if "signal" in reads:
        outcome.signal = stats_for_test_packets(config.name, classified)
    if "breakdown" in reads:
        outcome.breakdown = signal_stats_by_class(classified)
    if "outsiders" in reads:
        rows = classified.rows(*OUTSIDER_CLASSES)
        if len(rows):
            outcome.outsiders = stats_for_rows(
                f"{config.name} (outsiders)", classified.trace, rows
            )
    if "counts" in reads:
        outcome.counts = classified.class_counts()
    if "level" in reads:
        outcome.level = config.resolved_mean_level()
    if "classified" in reads:
        outcome.classified = classified
    return outcome


def _slug(name: str) -> str:
    """A filesystem-safe version of a trial name ("AT&T handset" ->
    "at_t_handset")."""
    return "".join(
        c.lower() if c.isalnum() else "_" for c in name
    ).strip("_") or "trial"


def trial_trace_path(
    directory: str | Path, trial: str, trace_format: str = "v2"
) -> Path:
    """Where ``--save-traces`` puts one trial's raw trace:
    ``<dir>/<slug of trial>.wlt2`` (v2) or ``.jsonl`` (v1).  Names
    derive only from the name and format, so re-runs overwrite in place
    and parallel workers never collide."""
    suffix = V2_SUFFIX if trace_format == "v2" else _V1_SUFFIX
    return Path(directory) / f"{_slug(trial)}{suffix}"


@dataclass
class TrialTable:
    """Per-trial Table-1 rows and signal rows, looked up by trial name."""

    metrics_rows: list[TrialMetrics] = field(default_factory=list)
    signal_rows: list[SignalStats] = field(default_factory=list)

    def add(self, outcome: TrialOutcome) -> None:
        """Append the outcome's Table-1 row and signal row."""
        self.metrics_rows.append(outcome.metrics)
        self.signal_rows.append(outcome.signal)

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

    def silence_mean(self, name: str) -> float:
        for row in self.signal_rows:
            if row.group == name and row.silence is not None:
                return row.silence.mean
        raise KeyError(name)
