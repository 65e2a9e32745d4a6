"""One-shot reproduction report: run everything, compare to the paper.

``python -m repro report [--scale S] [--out report.md] [--jobs N]``
executes every experiment and emits a Markdown report with a
paper-vs-measured line per headline quantity — a regenerable,
seed-stable version of EXPERIMENTS.md's tables.

The report is registry-driven: it covers every registered
:class:`repro.experiments.engine.ExperimentSpec` whose ``report_lines``
hook is set, in registry order.  Per-experiment scale tweaks
(``report_scale``) and options (``report_extras``) live on the specs,
next to the experiments they describe.  The options also name the
trials and FEC variants the report lines read, so the report runs only
those; the CLI experiments run everything.

The experiments are mutually independent (the engine derives every
trial seed from ``(root seed, experiment name, trial label)``), so the
report fans them out across a process pool when ``--jobs N`` is given;
results, tables, and merged metrics are byte-identical to the serial
run (see ``repro.parallel``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro import obs
from repro.experiments import engine
from repro.obs import runtime as _obs_runtime
from repro.parallel import Task, run_tasks


@dataclass
class ReportLine:
    """One paper-vs-measured comparison."""

    experiment: str
    quantity: str
    paper: str
    measured: str
    in_band: bool

    def markdown(self) -> str:
        flag = "yes" if self.in_band else "**NO**"
        return (
            f"| {self.experiment} | {self.quantity} | {self.paper} "
            f"| {self.measured} | {flag} |"
        )


@dataclass
class ExperimentResources:
    """Resource footprint of one experiment within the report run."""

    experiment: str
    wall_clock_s: float
    events_fired: int
    packets_offered: int
    # From the run manifest's resource accounting; 0 when the manifest
    # predates it (or the platform exposes neither /proc nor rusage).
    cpu_s: float = 0.0
    peak_rss_kb: int = 0


@dataclass
class ReproductionReport:
    lines: list[ReportLine] = field(default_factory=list)
    resources: list[ExperimentResources] = field(default_factory=list)

    def add(
        self,
        experiment: str,
        quantity: str,
        paper: str,
        measured: str,
        in_band: bool,
    ) -> None:
        self.lines.append(
            ReportLine(experiment, quantity, paper, measured, in_band)
        )

    @property
    def total(self) -> int:
        return len(self.lines)

    @property
    def in_band_count(self) -> int:
        return sum(1 for line in self.lines if line.in_band)

    def table_markdown(self) -> str:
        """Just the deterministic comparison table — the part of the
        report that is byte-identical for any ``--jobs`` value."""
        out = io.StringIO()
        out.write(
            f"{self.in_band_count}/{self.total} headline quantities in band.\n\n"
        )
        out.write("| experiment | quantity | paper | measured | in band |\n")
        out.write("|---|---|---|---|---|\n")
        for line in self.lines:
            out.write(line.markdown() + "\n")
        return out.getvalue()

    def markdown(self) -> str:
        out = io.StringIO()
        out.write("# Reproduction report\n\n")
        out.write(self.table_markdown())
        if self.resources:
            out.write("\n## Resource footprint\n\n")
            out.write("| experiment | wall-clock (s) | CPU (s) "
                      "| peak RSS (MB) | events fired "
                      "| packets simulated |\n")
            out.write("|---|---:|---:|---:|---:|---:|\n")
            for r in self.resources:
                out.write(
                    f"| {r.experiment} | {r.wall_clock_s:.2f} "
                    f"| {r.cpu_s:.2f} | {r.peak_rss_kb / 1024:.0f} "
                    f"| {r.events_fired} | {r.packets_offered} |\n"
                )
            # CPU seconds add up across experiments; peak RSS is a
            # per-process high-water mark, so the total takes the max.
            out.write(
                f"| **total** "
                f"| {sum(r.wall_clock_s for r in self.resources):.2f} "
                f"| {sum(r.cpu_s for r in self.resources):.2f} "
                f"| {max(r.peak_rss_kb for r in self.resources) / 1024:.0f} "
                f"| {sum(r.events_fired for r in self.resources)} "
                f"| {sum(r.packets_offered for r in self.resources)} |\n"
            )
        return out.getvalue()


def report_specs() -> list:
    """Every registered spec that contributes report lines, in order."""
    return [spec for spec in engine.specs() if spec.report_lines is not None]


def _run_report_experiment(name: str, scale: float, seed: int):
    """One report experiment, resolved in-worker (picklable by name)."""
    spec = engine.get(name)
    return engine.ENGINE.run(
        spec, scale=scale, seed=seed, extras=dict(spec.report_extras)
    )


def _report_tasks(scale: float, seed: int) -> list[Task]:
    """Every report experiment as an independent, picklable task.

    All experiments share the report's root seed: the engine derives
    each trial's stream from ``(root seed, experiment name, trial
    label)``, so no two trials anywhere in the run collide.
    """
    tasks = []
    for spec in report_specs():
        eff_scale = (
            spec.report_scale(scale) if spec.report_scale is not None else scale
        )
        tasks.append(
            Task(
                spec.name,
                _run_report_experiment,
                {"name": spec.name, "scale": eff_scale, "seed": seed},
                seed=seed,
                scale=eff_scale,
            )
        )
    return tasks


def build_report(
    scale: float = 0.25,
    seed: int = 1996,
    jobs: int = 1,
    progress: bool = False,
) -> ReproductionReport:
    """Run every report experiment at ``scale`` and compare headlines.

    Runs under an observability session (reusing the CLI's if one is
    active): each experiment is timed, its per-layer counter deltas are
    folded into a run manifest (written to the telemetry sink when one
    is open), and the report gains a resource-footprint footer.

    ``jobs > 1`` fans the experiments across a process pool; the
    comparison table, the per-experiment events/packets columns, and
    the merged metric counters are byte-identical to ``jobs=1`` (only
    wall-clock readings differ — they are measurements, not results).
    """
    report = ReproductionReport()
    specs = {spec.name: spec for spec in report_specs()}
    with obs.ensure_metrics():
        git_rev = obs.git_revision()
        with _obs_runtime.trace_span("report", scale=scale, jobs=jobs):
            results = run_tasks(
                _report_tasks(scale, seed), jobs=jobs, label="report",
                git_rev=git_rev, progress=progress,
            )
        for result in results:
            manifest = result.manifest or {}
            report.resources.append(
                ExperimentResources(
                    experiment=result.name,
                    wall_clock_s=manifest.get(
                        "wall_clock_s", result.wall_clock_s
                    ),
                    events_fired=manifest.get("events_fired", 0),
                    packets_offered=manifest.get("packets_offered", 0),
                    cpu_s=manifest.get("cpu_s") or 0.0,
                    peak_rss_kb=manifest.get("peak_rss_kb") or 0,
                )
            )
            specs[result.name].report_lines(report, result.value, scale)
    return report


def main(
    scale: float = 0.25,
    seed: int = 1996,
    out: str | None = None,
    jobs: int = 1,
    progress: bool = False,
) -> ReproductionReport:
    report = build_report(scale=scale, seed=seed, jobs=jobs, progress=progress)
    text = report.markdown()
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote {out} ({report.in_band_count}/{report.total} in band)")
    else:
        print(text)
    return report
