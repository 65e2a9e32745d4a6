"""Execute scenario fleets through the experiment engine.

A *fleet* is any list of :class:`~repro.scenario.spec.ScenarioSpec`s —
curated YAML, a generator sweep, or a mix.  :func:`run_fleet` turns it
into one dynamic :class:`~repro.experiments.engine.ExperimentSpec`
(one ``TrialPlan`` per compiled link, tagged with its scenario name so
the engine pre-validates every tag) and executes it with the engine's
uniform services: derived per-trial seeds and ``jobs=N`` fan-out that
is byte-identical to serial.

The worker rebuilds its scenario from a plain dict, so the only
payload crossing the pool boundary is YAML-shaped data — no live
propagation models or interference objects are pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.metrics import TrialMetrics
from repro.experiments.engine import (
    ENGINE,
    ExperimentSpec,
    PlanContext,
    TrialPlan,
)
from repro.experiments.trials import TrialSpec, trial_plan
from repro.framing.testpacket import BODY_BITS
from repro.scenario.compiler import CompiledLink, compile_scenario
from repro.scenario.spec import ScenarioSpec

FLEET_EXPERIMENT = "scenario-fleet"
DEFAULT_FLEET_SEED = 1996


@dataclass(frozen=True)
class LinkRow:
    """One fleet link's outcome — a row of the goodput table."""

    scenario: str
    link: str
    distance_ft: float
    predicted_level: float
    packets_sent: int
    packets_received: int
    loss_percent: float
    truncated_percent: float
    body_damaged_percent: float
    worst_body_fraction: float
    goodput_percent: float


@dataclass
class FleetResult:
    """All rows, in (scenario, link) plan order."""

    rows: list[LinkRow]

    def row(self, scenario: str, link: Optional[str] = None) -> LinkRow:
        for row in self.rows:
            if row.scenario == scenario and (link is None or row.link == link):
                return row
        raise KeyError((scenario, link))

    def by_goodput(self) -> list[LinkRow]:
        return sorted(
            self.rows, key=lambda row: row.goodput_percent, reverse=True
        )


def _link_row(
    scenario: str, link: CompiledLink, metrics: TrialMetrics
) -> LinkRow:
    """One fleet link's goodput-table row, from its Table-1 row."""
    received = metrics.packets_received
    damaged = (
        metrics.packets_truncated
        + metrics.wrapper_damaged
        + metrics.body_damaged_packets
    )
    denominator = max(1, received)
    return LinkRow(
        scenario=scenario,
        link=link.name,
        distance_ft=link.distance_ft,
        predicted_level=link.predicted_level,
        packets_sent=metrics.packets_sent,
        packets_received=received,
        loss_percent=metrics.packet_loss_percent,
        truncated_percent=100.0 * metrics.packets_truncated / denominator,
        body_damaged_percent=100.0 * metrics.body_damaged_packets / denominator,
        worst_body_fraction=(metrics.worst_body_bits or 0) / BODY_BITS,
        goodput_percent=100.0
        * max(0, received - damaged)
        / max(1, metrics.packets_sent),
    )


def fleet_experiment(
    fleet: Sequence[ScenarioSpec],
    packets: Optional[int] = None,
    name: str = FLEET_EXPERIMENT,
) -> ExperimentSpec:
    """A dynamic engine spec running every link of every scenario.

    Not registered in the CLI experiment registry — pass the returned
    spec object straight to ``ENGINE.run``.  Plans are tagged with
    their scenario names, so the engine refuses to start unless every
    fleet member is present in the scenario registry.
    """
    specs = [spec.validate() for spec in fleet]
    # Trial name -> (scenario, compiled link), filled as plans are built.
    links: dict[str, tuple[str, CompiledLink]] = {}

    def build_plans(ctx: PlanContext) -> list[TrialPlan]:
        plans: list[TrialPlan] = []
        for spec in specs:
            compiled = compile_scenario(spec)
            # The member travels as a dict and compiles in the worker: a
            # spawned worker's registry lacks generated members.
            spec_dict = spec.to_dict()
            count = packets if packets is not None else spec.traffic.packets
            for link in compiled.links:
                label = f"{spec.name}:{link.name}"
                links[label] = (spec.name, link)
                plans.append(trial_plan(label, TrialSpec(
                    label,
                    max(1, int(count * ctx.scale)),
                    scenario_dict=spec_dict,
                    link=link.name,
                )))
        return plans

    def aggregate(ctx: PlanContext, values: list) -> FleetResult:
        return FleetResult(
            rows=[_link_row(*links[o.name], o.metrics) for o in values]
        )

    return ExperimentSpec(
        name=name,
        artifact="scenario fleet",
        description=f"{len(specs)} scenario(s) through the engine",
        build_plans=build_plans,
        aggregate=aggregate,
        default_seed=DEFAULT_FLEET_SEED,
    )


def run_fleet(
    fleet: Sequence[ScenarioSpec],
    scale: float = 1.0,
    seed: int = DEFAULT_FLEET_SEED,
    jobs: int = 1,
    packets: Optional[int] = None,
) -> FleetResult:
    """Execute a fleet; ``jobs=N`` output is byte-identical to serial.

    Fleet members not yet in the scenario registry are registered
    (replacing stale same-name entries), satisfying the engine's
    plan-tag validation and making the names resolvable afterwards.
    """
    from repro.scenario.registry import REGISTRY

    for spec in fleet:
        REGISTRY.register(spec, replace=True)
    return ENGINE.run(
        fleet_experiment(fleet, packets=packets),
        scale=scale,
        seed=seed,
        jobs=jobs,
    )


def render_fleet(result: FleetResult, pareto: bool = False) -> str:
    """The fleet's goodput table (optionally sorted best-first)."""
    rows = result.by_goodput() if pareto else result.rows
    header = (
        f"{'Scenario':<28} {'Link':<12} {'Dist':>6} {'Level':>6} "
        f"{'Recv':>6} {'Loss%':>6} {'Trunc%':>7} {'Body%':>6} {'Goodput%':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scenario:<28} {row.link:<12} {row.distance_ft:>6.1f} "
            f"{row.predicted_level:>6.1f} {row.packets_received:>6d} "
            f"{row.loss_percent:>6.1f} {row.truncated_percent:>7.1f} "
            f"{row.body_damaged_percent:>6.1f} {row.goodput_percent:>8.1f}"
        )
    return "\n".join(lines)
