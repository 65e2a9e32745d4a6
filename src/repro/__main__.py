"""Command-line entry point: regenerate any paper table or figure.

    python -m repro list
    python -m repro table5
    python -m repro figure1 --scale 0.5
    python -m repro all --scale 0.2
    python -m repro table2 --telemetry run.jsonl --metrics
    python -m repro table2 --save-traces traces/ --trace-format v2
    python -m repro report --jobs 4 --out report.md
    python -m repro stats run.jsonl
    python -m repro timeline run.jsonl --export trace.json
    python -m repro bench diff benchmarks/baseline.json BENCH_internal.json
    python -m repro convert traces/office1.wlt2 office1.jsonl

Every experiment subcommand is generated from the spec registry
(:mod:`repro.experiments.engine`): names, aliases, descriptions,
default scales, and the ``--jobs``/``--save-traces`` capability lists
all come from the registered :class:`ExperimentSpec` objects, so a new
experiment module shows up here by registering itself — no CLI edit.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro import obs
from repro.experiments import engine


def _jobs_help() -> str:
    names = ", ".join(engine.parallel_names())
    return (
        "fan the experiment's independent trials across N worker "
        f"processes (supported: {names}); output is identical to "
        "--jobs 1, which runs everything in-process"
    )


def _save_traces_help() -> str:
    names = ", ".join(engine.traceable_names())
    return (
        "persist each trial's raw trace into DIR for offline analysis "
        f"(experiments that capture traces: {names})"
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write structured run telemetry (JSONL; gzip if PATH ends "
             "in .gz) with per-experiment manifests",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-layer metrics and print the registry summary "
             "after the run",
    )


def _add_run_flags(parser: argparse.ArgumentParser, default_scale: float) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="multiplier on the paper's trial lengths "
             f"(default {default_scale:g})",
    )
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help=_jobs_help())
    parser.add_argument("--save-traces", default=None, metavar="DIR",
                        dest="save_traces", help=_save_traces_help())
    parser.add_argument(
        "--trace-format",
        choices=("v1", "v2"),
        default=None,
        dest="trace_format",
        help="trace format for --save-traces (v1 JSON-lines, v2 "
             "columnar binary; default v2)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit a heartbeat per finished trial (telemetry record "
             "when --telemetry is on — watch live with `timeline FILE "
             "--follow` — else a stderr line)",
    )
    _add_observability_flags(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from Eckhardt & Steenkiste, "
                    "SIGCOMM 1996.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    commands.add_parser("list", help="list every experiment")

    for spec in engine.specs():
        sub = commands.add_parser(
            spec.name,
            aliases=list(spec.aliases),
            help=f"{spec.description} (default scale {spec.default_scale:g})",
        )
        _add_run_flags(sub, spec.default_scale)
        sub.set_defaults(experiment=spec.name)

    run_all = commands.add_parser("all", help="run every experiment")
    _add_run_flags(run_all, 1.0)
    run_all.set_defaults(experiment=None)

    report = commands.add_parser(
        "report",
        help="run everything, emit a paper-vs-measured Markdown report",
    )
    report.add_argument("--scale", type=float, default=0.25,
                        help="report scale (default 0.25)")
    report.add_argument("--seed", type=int, default=None, help="override seed")
    report.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the report's experiments across N worker "
                             "processes; the comparison table is identical "
                             "to --jobs 1")
    report.add_argument("--out", default=None, help="write Markdown here")
    report.add_argument(
        "--progress",
        action="store_true",
        help="emit a heartbeat per finished experiment (see the "
             "per-experiment --progress flag)",
    )
    _add_observability_flags(report)

    stats = commands.add_parser(
        "stats", help="summarize a telemetry file written with --telemetry"
    )
    stats.add_argument("target", metavar="TELEMETRY_FILE")

    timeline = commands.add_parser(
        "timeline",
        help="render a traced run's span tree (terminal waterfall, "
             "Perfetto export, or live heartbeat tail)",
    )
    timeline.add_argument("target", metavar="TELEMETRY_FILE")
    timeline.add_argument(
        "--export",
        default=None,
        metavar="OUT.json",
        help="write Chrome trace-event JSON for https://ui.perfetto.dev "
             "instead of rendering the terminal waterfall",
    )
    timeline.add_argument(
        "--follow",
        action="store_true",
        help="tail the (still-running) file's heartbeat records live",
    )

    bench = commands.add_parser(
        "bench",
        help="benchmark history: append snapshots, diff with a "
             "regression gate",
    )
    bench_commands = bench.add_subparsers(dest="bench_command",
                                          metavar="ACTION", required=True)
    bench_append = bench_commands.add_parser(
        "append",
        help="stamp BENCH_internal.json with the git revision and "
             "append it to the history series",
    )
    bench_append.add_argument(
        "--bench", default="BENCH_internal.json", metavar="FILE",
        help="snapshot to append (default BENCH_internal.json)",
    )
    bench_append.add_argument(
        "--history", default="benchmarks/history.jsonl", metavar="FILE",
        help="history series to append to "
             "(default benchmarks/history.jsonl)",
    )
    bench_diff = bench_commands.add_parser(
        "diff",
        help="compare two snapshots' *_wall_s timings; exit 1 when any "
             "stage slowed beyond tolerance (the CI regression gate)",
    )
    bench_diff.add_argument("baseline", metavar="BASELINE.json")
    bench_diff.add_argument("current", metavar="CURRENT.json")
    bench_diff.add_argument(
        "--tolerance", type=float, default=None, metavar="FRACTION",
        help="allowed per-timing slowdown (default 0.25 = 25%%)",
    )

    convert = commands.add_parser(
        "convert", help="re-encode a saved trace between v1 and v2"
    )
    convert.add_argument("source", metavar="IN")
    convert.add_argument("destination", metavar="OUT")
    convert.add_argument(
        "--trace-format",
        choices=("v1", "v2"),
        default=None,
        dest="trace_format",
        help="output format (default: inferred from the output suffix)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the streaming trace-analysis ingest server",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral, printed "
                            "at startup)")
    serve.add_argument("--unix", default=None, dest="unix_path",
                       metavar="PATH",
                       help="listen on a unix socket instead of TCP")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for chunk classification "
                            "(1 = classify inline; default 1)")
    serve.add_argument("--queue-chunks", type=int, default=8,
                       dest="queue_chunks",
                       help="bounded per-session chunk queue "
                            "(backpressure; default 8)")
    serve.add_argument("--window-chunks", type=int, default=4,
                       dest="window_chunks",
                       help="in-flight credit advertised to clients "
                            "(default 4)")
    serve.add_argument("--coalesce-chunks", type=int, default=4,
                       dest="coalesce_chunks",
                       help="max queued chunks classified per worker "
                            "round-trip (1 disables coalescing; "
                            "default 4)")
    serve.add_argument("--ring-slots", type=int, default=None,
                       dest="ring_slots",
                       help="slots per session ring (default: sized from "
                            "queue + coalesce + window)")
    serve.add_argument("--ring-slot-bytes", type=int, default=None,
                       dest="ring_slot_bytes",
                       help="bytes per ring slot (default: sized from "
                            "the first chunk, page-rounded)")
    serve.add_argument("--telemetry", default=None, metavar="FILE",
                       help="write session spans and ingest heartbeats "
                            "as JSONL (tail with `timeline --follow`)")

    from repro.scenario import cli as scenario_cli
    from repro.serve import loadgen as loadgen_cli

    loadgen_cli.add_arguments(
        commands.add_parser(
            "loadgen",
            help="replay a stored trace against a running server",
        )
    )
    scenario_cli.build_parser(commands)
    return parser


def _cmd_list() -> int:
    for spec in engine.specs():
        names = spec.name
        if spec.aliases:
            names += " (" + ", ".join(spec.aliases) + ")"
        print(f"  {names:<28} {spec.description} "
              f"(default scale {spec.default_scale:g})")
    print("  report                       run everything, emit a "
          "paper-vs-measured Markdown report (default scale 0.25)")
    print("  stats                        summarize a telemetry file "
          "written with --telemetry")
    print("  timeline                     render a traced run's span "
          "tree (waterfall, Perfetto export, --follow)")
    print("  bench                        benchmark history: append "
          "snapshots, diff with a regression gate")
    print("  convert                      re-encode a saved trace "
          "between v1 and v2")
    print("  serve                        run the streaming "
          "trace-analysis ingest server")
    print("  loadgen                      replay a stored trace against "
          "a running server")
    print("  scenario                     declarative topologies: list, "
          "validate, render, run, export")
    return 0


def _cmd_serve(args) -> int:
    """``python -m repro serve`` — run the ingest server until ^C."""
    import asyncio

    from repro.serve.server import ServeConfig, run_server

    if args.telemetry is not None:
        try:
            obs.configure(
                telemetry_path=args.telemetry, trace_label="serve"
            )
        except OSError as exc:
            print(f"--telemetry: {exc}", file=sys.stderr)
            return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_path,
        jobs=args.jobs,
        queue_chunks=args.queue_chunks,
        window_chunks=args.window_chunks,
        coalesce_chunks=args.coalesce_chunks,
        ring_slots=args.ring_slots,
        ring_slot_bytes=args.ring_slot_bytes,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        return 130
    finally:
        if args.telemetry is not None:
            obs.reset()
    return 0


def _cmd_convert(source: str, destination: str,
                 trace_format: str | None) -> int:
    """``python -m repro convert IN OUT`` — re-encode a trace.

    The input format is auto-detected from the file's leading bytes
    (v1 JSONL, gzipped v1, or v2 columnar); the output format comes
    from ``--trace-format``, or failing that the output suffix
    (``.wlt2`` means v2, anything else v1).  Works in both directions.
    """
    from repro.trace.persist import load_trace, save_trace

    try:
        trace = load_trace(source)
        save_trace(trace, destination, format=trace_format)
    except (OSError, ValueError) as exc:
        print(f"convert: {exc}", file=sys.stderr)
        return 2
    print(f"converted {source} -> {destination} "
          f"({trace.packets_received} records)")
    return 0


def _emit_manifest(
    experiment: str,
    counters_before: dict[str, int],
    wall_clock_s: float,
    seed: int | None,
    scale: float | None,
    git_rev: str | None,
) -> None:
    """Build the per-experiment run manifest and write it to the sink."""
    manifest = obs.build_manifest(
        experiment,
        metrics=obs.STATE.metrics,
        counters_before=counters_before,
        wall_clock_s=wall_clock_s,
        seed=seed,
        scale=scale,
        git_rev=git_rev,
    )
    if obs.STATE.sink is not None:
        obs.STATE.sink.emit(manifest.to_record())


def _finish_observation(want_metrics: bool) -> None:
    """Flush the final metrics record and optionally print the summary."""
    snapshot = obs.STATE.metrics.snapshot()
    if obs.STATE.sink is not None:
        obs.STATE.sink.emit({"type": "metrics", "metrics": snapshot})
    if want_metrics:
        print()
        print(obs.render_snapshot(snapshot))


def _run_one(spec, args, observing: bool, git_rev: str | None) -> None:
    print("=" * 72)
    scale = args.scale if args.scale is not None else spec.default_scale
    counters_before = obs.STATE.metrics.counters_snapshot()
    start = perf_counter()
    result = engine.ENGINE.run(
        spec,
        scale=scale,
        seed=args.seed,
        jobs=args.jobs,
        trace_dir=args.save_traces,
        trace_format=args.trace_format or "v2",
        progress=args.progress,
    )
    if spec.render is not None:
        spec.render(result, scale)
    # An experiment that fanned its trials across a pool already
    # emitted per-trial manifests (in shards) plus one merged
    # manifest; a wrapper manifest here would double-count them.
    if observing and (args.jobs <= 1 or not spec.parallel):
        _emit_manifest(
            spec.name,
            counters_before,
            perf_counter() - start,
            seed=args.seed,
            scale=scale,
            git_rev=git_rev,
        )
    print()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "list":
        return _cmd_list()
    if args.command == "stats":
        from repro.obs import stats as stats_module

        try:
            return stats_module.main(args.target)
        except (OSError, ValueError) as exc:
            print(f"stats: {exc}", file=sys.stderr)
            return 2
    if args.command == "timeline":
        from repro.obs import export as export_module

        try:
            return export_module.main(
                args.target, export=args.export, follow=args.follow
            )
        except (OSError, ValueError) as exc:
            print(f"timeline: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            return 130
    if args.command == "bench":
        from repro.obs import bench as bench_module

        try:
            if args.bench_command == "append":
                return bench_module.main_append(
                    bench=args.bench, history=args.history
                )
            return bench_module.main_diff(
                args.baseline,
                args.current,
                tolerance=(
                    args.tolerance
                    if args.tolerance is not None
                    else bench_module.DEFAULT_TOLERANCE
                ),
            )
        except (OSError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
    if args.command == "scenario":
        from repro.scenario import cli as scenario_cli

        return scenario_cli.main(args)
    if args.command == "convert":
        return _cmd_convert(args.source, args.destination, args.trace_format)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        from repro.serve import loadgen as loadgen_cli

        return loadgen_cli.run(args)

    observing = args.metrics or args.telemetry is not None
    if observing:
        try:
            obs.configure(
                telemetry_path=args.telemetry,
                trace_label=args.command,
            )
        except OSError as exc:
            print(f"--telemetry: {exc}", file=sys.stderr)
            return 2
    git_rev = obs.git_revision() if observing else None

    try:
        if args.command == "report":
            from repro.experiments import report as report_module

            kwargs = {"scale": args.scale, "out": args.out,
                      "jobs": args.jobs, "progress": args.progress}
            if args.seed is not None:
                kwargs["seed"] = args.seed
            report = report_module.main(**kwargs)
            if observing:
                _finish_observation(args.metrics)
            return 0 if report.in_band_count == report.total else 1

        if args.experiment is None:  # "all"
            for spec in engine.specs():
                _run_one(spec, args, observing, git_rev)
        else:
            _run_one(engine.get(args.experiment), args, observing, git_rev)
        if observing:
            _finish_observation(args.metrics)
        return 0
    finally:
        if observing:
            obs.reset()


if __name__ == "__main__":
    raise SystemExit(main())
