"""``python -m repro scenario`` — list, validate, render, run, export.

Subcommands:

* ``list`` — every registered scenario (built-ins plus ``--load``ed
  YAML), with link counts and descriptions;
* ``validate PATH...`` — check YAML files or directories without
  running anything; all problems in a file are reported at once;
* ``render NAME|FILE`` — ASCII floor plan with signal-level shading;
* ``run NAME...|--generate ...`` — execute a fleet through the
  experiment engine (``--jobs N`` fans out, byte-identical results);
* ``export DIR`` — write every built-in scenario as YAML.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.scenario.spec import ScenarioError


def add_arguments(scenario: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Declare the ``scenario`` action tree on the repro CLI's
    ``scenario`` subcommand parser."""
    actions = scenario.add_subparsers(
        dest="scenario_command", metavar="ACTION", required=True
    )

    listing = actions.add_parser("list", help="list registered scenarios")
    listing.add_argument(
        "--load", default=None, metavar="DIR",
        help="also register every *.yaml under DIR before listing",
    )

    validate = actions.add_parser(
        "validate", help="validate YAML scenario files or directories"
    )
    validate.add_argument(
        "paths", nargs="*", default=[], metavar="PATH",
        help="files or directories (default: the repo's scenarios/ dir)",
    )

    render = actions.add_parser(
        "render", help="draw a scenario's floor plan with signal shading"
    )
    render.add_argument("name", metavar="NAME_OR_FILE")
    render.add_argument("--width", type=int, default=64)
    render.add_argument("--height", type=int, default=22)
    render.add_argument("--floor", type=int, default=None)

    run = actions.add_parser(
        "run", help="execute scenarios (a fleet) through the engine"
    )
    run.add_argument(
        "names", nargs="*", metavar="NAME",
        help="registered scenario names (or YAML files) to run",
    )
    run.add_argument(
        "--generate", choices=("grid", "random", "pareto"), default=None,
        help="generate a fleet instead: grid = distance x walls x phones "
             "sweep (20 scenarios), random = seeded layouts, pareto = "
             "phone-distance sweep",
    )
    run.add_argument("--count", type=int, default=8, metavar="N",
                     help="fleet size for --generate random (default 8)")
    run.add_argument("--load", default=None, metavar="DIR",
                     help="register every *.yaml under DIR first")
    run.add_argument("--scale", type=float, default=1.0,
                     help="multiplier on per-scenario packet counts")
    run.add_argument("--seed", type=int, default=None, help="root seed")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="fan links across N worker processes "
                          "(identical output to --jobs 1)")
    run.add_argument("--packets", type=int, default=None,
                     help="override every scenario's packet count")
    run.add_argument("--pareto", action="store_true",
                     help="sort the result table by goodput, best first")

    export = actions.add_parser(
        "export", help="write every built-in scenario as YAML into DIR"
    )
    export.add_argument("directory", metavar="DIR")
    return scenario


def _cmd_list(args) -> int:
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.registry import REGISTRY

    if args.load is not None:
        REGISTRY.load_dir(args.load, replace=True)
    for spec in REGISTRY.specs():
        links = len(compile_scenario(spec).links)
        extras = []
        if spec.interferers:
            extras.append(f"{len(spec.interferers)} interferer(s)")
        if spec.walls:
            extras.append(f"{len(spec.walls)} wall(s)")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(f"  {spec.name:<28} {links:>2} link(s)  "
              f"{spec.description}{suffix}")
    print(f"{len(REGISTRY)} scenario(s) registered")
    return 0


def _cmd_validate(args) -> int:
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.yamlio import load_dir, load_file

    paths = [Path(p) for p in args.paths] or [Path("scenarios")]
    checked = 0
    failures = 0
    for path in paths:
        try:
            specs = load_dir(path) if path.is_dir() else [load_file(path)]
        except ScenarioError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            failures += 1
            continue
        for spec in specs:
            checked += 1
            try:
                compiled = compile_scenario(spec)
                print(f"ok: {spec.name} ({len(compiled.links)} link(s))")
            except ScenarioError as exc:
                print(f"INVALID {spec.name}: {exc}", file=sys.stderr)
                failures += 1
    print(f"{checked} scenario(s) checked, {failures} invalid")
    return 1 if failures else 0


def _resolve(name: str):
    """A CLI scenario argument: a registered name or a YAML file path."""
    from repro.scenario.registry import REGISTRY
    from repro.scenario.yamlio import load_file

    if name in REGISTRY:
        return REGISTRY.get(name)
    if name.endswith((".yaml", ".yml")) and Path(name).exists():
        return REGISTRY.register(load_file(name), replace=True)
    return REGISTRY.get(name)  # raises, listing valid names


def _cmd_render(args) -> int:
    from repro.scenario.compiler import compile_scenario
    from repro.scenario.render import render_scenario

    spec = _resolve(args.name)
    print(
        render_scenario(
            compile_scenario(spec),
            width=args.width,
            height=args.height,
            floor=args.floor,
        )
    )
    return 0


def _cmd_run(args) -> int:
    from repro.scenario.fleet import (
        DEFAULT_FLEET_SEED,
        render_fleet,
        run_fleet,
    )
    from repro.scenario.generate import (
        grid_fleet,
        interferer_pareto_fleet,
        random_fleet,
    )
    from repro.scenario.registry import REGISTRY

    if args.load is not None:
        REGISTRY.load_dir(args.load, replace=True)
    seed = args.seed if args.seed is not None else DEFAULT_FLEET_SEED
    fleet = [_resolve(name) for name in args.names]
    if args.generate == "grid":
        fleet.extend(grid_fleet())
    elif args.generate == "random":
        fleet.extend(random_fleet(args.count, seed=seed))
    elif args.generate == "pareto":
        fleet.extend(interferer_pareto_fleet())
    if not fleet:
        print(
            "scenario run: give scenario NAMEs and/or --generate "
            "(see `scenario list`)",
            file=sys.stderr,
        )
        return 2
    result = run_fleet(
        fleet,
        scale=args.scale,
        seed=seed,
        jobs=args.jobs,
        packets=args.packets,
    )
    print(
        f"Fleet: {len(fleet)} scenario(s), {len(result.rows)} link(s), "
        f"seed {seed}, scale {args.scale:g}"
    )
    print(render_fleet(result, pareto=args.pareto))
    return 0


def _cmd_export(args) -> int:
    from repro.scenario.builtin import builtin_specs
    from repro.scenario.yamlio import export_dir

    written = export_dir(builtin_specs(), args.directory)
    for path in written:
        print(f"wrote {path}")
    print(f"{len(written)} scenario(s) exported to {args.directory}")
    return 0


def main(args) -> int:
    """Dispatch a parsed ``scenario`` subcommand."""
    try:
        if args.scenario_command == "list":
            return _cmd_list(args)
        if args.scenario_command == "validate":
            return _cmd_validate(args)
        if args.scenario_command == "render":
            return _cmd_render(args)
        if args.scenario_command == "run":
            return _cmd_run(args)
        if args.scenario_command == "export":
            return _cmd_export(args)
    except ScenarioError as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled scenario action {args.scenario_command}")
