"""The unified experiment engine: declarative specs, one executor.

Every paper artifact (Tables 2-14, Figures 1-3, the X/V extensions) is
the same shape of campaign: build trial configurations, run them,
classify, aggregate.  Before this module each experiment re-implemented
that loop by hand, so the scaling services (process-pool fan-out,
trace persistence, telemetry manifests) only reached the few modules
that were individually rewired.

The engine factors the campaign shape out:

* :class:`TrialPlan` — one declarative unit of work: a picklable
  module-level function plus its arguments.  The plan does *not* carry
  a seed; the engine derives one.
* :class:`ExperimentSpec` — an experiment: a plan builder, an
  aggregator folding trial values into the experiment's result
  dataclass, a renderer printing the paper-style table, and CLI
  metadata (name, aliases, default scale/seed).
* :func:`experiment` — the decorator that registers a spec; the
  registry drives ``python -m repro`` (``list``, ``all``, per-name
  subcommands) and the reproduction report.
* :class:`ExperimentEngine` — executes any spec with uniform services:
  collision-free per-trial seeds (:func:`repro.simkit.rng.spawn_seed`
  over ``(root seed, experiment, trial)``), ``jobs=N`` fan-out through
  :func:`repro.parallel.run_tasks`, ``trace_dir`` persistence for
  traceable plans, and loud warnings when a flag cannot apply.

Determinism contract: a trial's seed is a pure function of
``(root seed, experiment name, trial label)`` — never of job count,
worker rank, or plan order — so ``jobs=N`` output is byte-identical to
``jobs=1`` and no two trials anywhere in a full ``report`` run share
an RNG stream.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.obs import runtime as _obs_runtime
from repro.parallel import Task, run_tasks
from repro.simkit.rng import spawn_seed


@dataclass(frozen=True)
class TrialPlan:
    """One declarative unit of an experiment's work.

    ``fn`` must be picklable by reference (a module-level callable) and
    ``kwargs`` must carry everything except the seed, which the engine
    derives and injects as ``kwargs[seed_arg]``.  ``seed_label``
    overrides the label used for seed derivation (plans that must share
    channel draws — ablations comparing variants on identical noise —
    run all variants inside one plan instead of sharing a label).

    ``traceable`` plans accept ``trace_dir``/``trace_format`` keyword
    arguments and persist their raw traces.  A plan's return value must
    pickle: a pooled run sends it back to the parent that way.

    ``scenario`` names the registered :mod:`repro.scenario` topology the
    trial runs in.  The engine resolves every tagged name against the
    scenario registry *before executing anything*, so an unknown
    scenario fails at plan-build time with the list of valid names —
    never mid-trial on a pool worker.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed_arg: Optional[str] = "seed"
    seed_label: Optional[str] = None
    traceable: bool = False
    scenario: Optional[str] = None

    __test__ = False  # not a pytest test class despite the name


@dataclass(frozen=True)
class PlanContext:
    """Everything a plan builder / aggregator may depend on."""

    scale: float
    seed: int
    jobs: int = 1
    trace_dir: Optional[str] = None
    trace_format: str = "v2"
    extras: Mapping[str, Any] = field(default_factory=dict)

    def extra(self, key: str, default: Any = None) -> Any:
        """An experiment-specific option (e.g. ``syndrome_limit``)."""
        return self.extras.get(key, default)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: plans, aggregation, and CLI metadata.

    ``build_plans(ctx)`` returns the campaign's :class:`TrialPlan` list
    (order defines result order); ``aggregate(ctx, values)`` folds the
    per-plan return values — in plan order, whatever the execution
    order — into the experiment's public result dataclass;
    ``render(result, scale)`` prints the paper-style tables.

    ``report_lines(report, result, scale)`` (optional) appends the
    experiment's paper-vs-measured headline lines to a reproduction
    report; ``report_scale``/``report_extras`` are the per-experiment
    tweaks the report applies (e.g. table2 runs at a fifth of the
    report scale because its paper trial lengths are 70x longer).
    """

    name: str
    artifact: str
    description: str
    build_plans: Callable[[PlanContext], Sequence[TrialPlan]]
    aggregate: Callable[[PlanContext, list], Any]
    render: Optional[Callable[[Any, float], None]] = None
    default_scale: float = 1.0
    default_seed: int = 0
    aliases: tuple[str, ...] = ()
    parallel: bool = True
    traceable: bool = False
    report_lines: Optional[Callable[[Any, Any, float], None]] = None
    report_scale: Optional[Callable[[float], float]] = None
    report_extras: Mapping[str, Any] = field(default_factory=dict)
    module: str = ""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, ExperimentSpec] = {}
_ALIASES: dict[str, str] = {}


def experiment(
    *,
    name: str,
    artifact: str,
    description: str,
    aggregate: Callable[[PlanContext, list], Any],
    render: Optional[Callable[[Any, float], None]] = None,
    default_scale: float = 1.0,
    default_seed: int = 0,
    aliases: Sequence[str] = (),
    parallel: bool = True,
    traceable: bool = False,
    report_lines: Optional[Callable[[Any, Any, float], None]] = None,
    report_scale: Optional[Callable[[float], float]] = None,
    report_extras: Optional[Mapping[str, Any]] = None,
) -> Callable:
    """Decorator registering a plan builder as an experiment spec.

    ::

        @experiment(name="table4", artifact="Table 4", ...,
                    aggregate=_aggregate, render=_render)
        def _plans(ctx: PlanContext) -> list[TrialPlan]:
            ...

    The decorated function is returned unchanged; the spec lands in the
    registry under ``name`` (and resolves from every alias).
    """

    def register(build_plans: Callable[[PlanContext], Sequence[TrialPlan]]):
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"alias {alias!r} already taken")
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            artifact=artifact,
            description=description,
            build_plans=build_plans,
            aggregate=aggregate,
            render=render,
            default_scale=default_scale,
            default_seed=default_seed,
            aliases=tuple(aliases),
            parallel=parallel,
            traceable=traceable,
            report_lines=report_lines,
            report_scale=report_scale,
            report_extras=dict(report_extras or {}),
            module=build_plans.__module__,
        )
        _ALIASES.update({alias: name for alias in aliases})
        return build_plans

    return register


def load_all() -> None:
    """Import every experiment module, populating the registry."""
    import repro.experiments  # noqa: F401  (imports register the specs)


def canonical_name(name: str) -> str:
    """Resolve an alias ("table6", "figure2") to its carrier spec."""
    load_all()
    return _ALIASES.get(name, name)


def get(name: str) -> ExperimentSpec:
    """Look up a spec by canonical name or alias (KeyError if unknown)."""
    load_all()
    return _REGISTRY[canonical_name(name)]


def specs() -> list[ExperimentSpec]:
    """Every registered spec, in registration (= presentation) order."""
    load_all()
    return list(_REGISTRY.values())


def alias_map() -> dict[str, str]:
    """alias -> canonical name, for CLI resolution and tests."""
    load_all()
    return dict(_ALIASES)


def known_names() -> list[str]:
    """All accepted CLI names: canonical names plus aliases."""
    load_all()
    return list(_REGISTRY) + list(_ALIASES)


def parallel_names() -> list[str]:
    """Experiments with more than one independent trial plan."""
    return [spec.name for spec in specs() if spec.parallel]


def traceable_names() -> list[str]:
    """Experiments whose trials persist raw traces via ``trace_dir``."""
    return [spec.name for spec in specs() if spec.traceable]


def trial_seed(root_seed: int, experiment_name: str, label: str) -> int:
    """The seed the engine hands the named trial — a pure function of
    ``(root seed, experiment, trial label)``, exposed for tests and
    golden pins."""
    return spawn_seed(root_seed, experiment_name, label)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _warn(message: str) -> None:
    """Loud, unmissable stderr warning (a silently ignored flag is a
    bug; see the ``--jobs`` no-op this replaced)."""
    print(f"warning: {message}", file=sys.stderr)


def _validate_plan_scenarios(plans: Sequence[TrialPlan]) -> None:
    """Resolve every plan's ``scenario`` tag before execution starts.

    The registry import is deferred: :mod:`repro.scenario` depends on
    this module for fleet execution, and untagged campaigns should not
    pay for (or require) the scenario layer at all.
    """
    tagged = sorted({p.scenario for p in plans if p.scenario is not None})
    if not tagged:
        return
    from repro.scenario.registry import REGISTRY

    for name in tagged:
        REGISTRY.get(name)  # raises ScenarioError listing valid names


class ExperimentEngine:
    """Executes any registered spec with uniform services."""

    def run(
        self,
        spec_or_name: Union[ExperimentSpec, str],
        *,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        jobs: int = 1,
        trace_dir: Optional[str] = None,
        trace_format: str = "v2",
        extras: Optional[Mapping[str, Any]] = None,
        progress: bool = False,
    ) -> Any:
        """Run one experiment and return its aggregated result.

        ``scale``/``seed`` default to the spec's; ``jobs > 1`` fans the
        trial plans over a process pool (results are byte-identical to
        ``jobs=1`` because seeds are derived in the parent);
        ``trace_dir`` persists each traceable trial's raw trace;
        ``progress`` emits per-trial heartbeat telemetry through the
        runner.  Flags that cannot apply warn loudly instead of
        silently no-opping.

        When a trace recorder is active the run produces one
        ``engine.<name>`` span with ``engine.plan`` / ``engine.execute``
        / ``engine.aggregate`` children; every trial's task span (local
        or in a pool worker) parents under ``engine.execute`` through
        :func:`repro.parallel.run_tasks`.
        """
        spec = (
            spec_or_name
            if isinstance(spec_or_name, ExperimentSpec)
            else get(spec_or_name)
        )
        root_seed = spec.default_seed if seed is None else seed
        if trace_dir is not None and not spec.traceable:
            _warn(
                f"experiment '{spec.name}' does not capture packet traces; "
                "--save-traces is ignored"
            )
            trace_dir = None
        ctx = PlanContext(
            scale=spec.default_scale if scale is None else scale,
            seed=root_seed,
            jobs=jobs,
            trace_dir=str(trace_dir) if trace_dir is not None else None,
            trace_format=trace_format or "v2",
            extras=dict(extras or {}),
        )
        with _obs_runtime.trace_span(
            f"engine.{spec.name}", scale=ctx.scale, seed=ctx.seed, jobs=jobs
        ):
            with _obs_runtime.trace_span("engine.plan"):
                plans = list(spec.build_plans(ctx))
            _validate_plan_scenarios(plans)
            if jobs > 1 and len(plans) <= 1:
                _warn(
                    f"experiment '{spec.name}' is a single trial plan; "
                    f"--jobs {jobs} runs it serially"
                )
            if ctx.trace_dir is not None and any(p.traceable for p in plans):
                Path(ctx.trace_dir).mkdir(parents=True, exist_ok=True)
            tasks = [self._task(spec, ctx, plan) for plan in plans]
            # Serial runs emit no trial-level manifests — the
            # orchestration boundary (the CLI, the report runner) emits
            # one per-experiment manifest, and trial records would
            # double-count in ``stats``.  A real fan-out keeps per-trial
            # manifests (in worker shards) plus one merged record,
            # exactly like the pre-engine pool runs.
            fanning = jobs > 1 and len(tasks) > 1
            with _obs_runtime.trace_span("engine.execute", trials=len(tasks)):
                results = run_tasks(
                    tasks,
                    jobs=jobs,
                    label=f"{spec.name}-trials" if fanning else None,
                    task_manifests=fanning,
                    progress=progress,
                )
            with _obs_runtime.trace_span("engine.aggregate"):
                return spec.aggregate(ctx, [r.value for r in results])

    def _task(self, spec: ExperimentSpec, ctx: PlanContext, plan: TrialPlan) -> Task:
        """One plan -> one seeded, picklable task."""
        kwargs = dict(plan.kwargs)
        seed: Optional[int] = None
        if plan.seed_arg is not None:
            seed = trial_seed(ctx.seed, spec.name, plan.seed_label or plan.name)
            kwargs[plan.seed_arg] = seed
        if ctx.trace_dir is not None and plan.traceable:
            kwargs["trace_dir"] = ctx.trace_dir
            kwargs["trace_format"] = ctx.trace_format
        return Task(plan.name, plan.fn, kwargs, seed=seed, scale=ctx.scale)


#: The process-wide engine every ``run()`` wrapper and the CLI share.
ENGINE = ExperimentEngine()
