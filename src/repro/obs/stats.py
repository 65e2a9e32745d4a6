"""Summarize a telemetry JSONL file (``python -m repro stats FILE``).

A parallel run (``--jobs N``) writes per-worker shard files next to the
parent telemetry file (see :mod:`repro.parallel.shards`); the
summarizer discovers them automatically and folds their records into
one stream, so ``stats run.jsonl`` reports the whole run whether it was
serial or parallel.

Everything is read off spans.  There is one experiment row per
``kind="experiment"`` span (``engine.<name>``), wherever it ran — the
CLI or a report, inline or in a pool worker — nested runs such as
``fec``'s ``table5``/``table11`` harvests included, so the rows are the
same for any ``--jobs``.  Nested rows overlap their parent's, so the
run totals come from the final ``metrics`` record (and the root spans'
wall-clock), never from a sum of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.events import PathLike, iter_telemetry, read_telemetry_header

_EXPERIMENT_PREFIX = "engine."


@dataclass
class TelemetrySummary:
    """Aggregate view of one telemetry file (plus its shards)."""

    path: str
    header: dict
    record_count: int = 0
    # The experiment spans, in start order once summarized.
    experiments: list[dict] = field(default_factory=list)
    shard_paths: list[str] = field(default_factory=list)
    final_metrics: Optional[dict] = None
    span_count: int = 0
    span_wall_s: float = 0.0
    span_pids: set = field(default_factory=set)
    heartbeat_count: int = 0
    peak_rss_kb: int = 0

    def experiment_rows(self) -> list[tuple[str, int, int]]:
        """``(experiment, events fired, packets offered)`` per
        experiment span — the deterministic part of each row."""
        return [
            (
                span["name"][len(_EXPERIMENT_PREFIX):],
                span["counters"].get("sim.events_fired", 0),
                span["counters"].get("trace.packets_offered", 0),
            )
            for span in self.experiments
        ]


def summarize_telemetry(
    path: PathLike, include_shards: bool = True
) -> TelemetrySummary:
    """Stream-aggregate a telemetry file in constant memory.

    ``include_shards`` (the default) folds any per-worker shard files
    of a parallel run into the same summary.  Every file is consumed
    through the streaming :func:`repro.obs.events.iter_telemetry` —
    one record in flight at a time — so multi-GB shard directories
    summarize without ever loading a file whole.
    """
    summary = TelemetrySummary(
        path=str(path), header=read_telemetry_header(path)
    )
    _fold_stream(summary, path)
    if include_shards:
        from repro.parallel.shards import find_shards

        for shard in find_shards(path):
            summary.shard_paths.append(str(shard))
            _fold_stream(summary, shard)
    summary.experiments.sort(key=lambda s: (s.get("start_unix", 0.0), s["span"]))
    return summary


def _fold_stream(summary: TelemetrySummary, path: PathLike) -> None:
    """Accumulate one telemetry file's record stream into ``summary``."""
    for record in iter_telemetry(path):
        summary.record_count += 1
        kind = record.get("type")
        if kind == "metrics":
            summary.final_metrics = record.get("metrics")
        elif kind == "span":
            summary.span_count += 1
            summary.span_pids.add(record.get("pid"))
            if record.get("parent") is None:
                summary.span_wall_s += record.get("wall_s", 0.0)
            peak = record.get("peak_rss_kb", 0)
            if peak > summary.peak_rss_kb:
                summary.peak_rss_kb = peak
            if record.get("attrs", {}).get("kind") == "experiment":
                summary.experiments.append(record)
        elif kind == "heartbeat":
            summary.heartbeat_count += 1


def render_summary(summary: TelemetrySummary) -> str:
    """Human-readable report for one telemetry file."""
    lines = [
        f"telemetry file: {summary.path}",
        f"  records: {summary.record_count} (spans {summary.span_count})",
    ]
    if summary.shard_paths:
        lines.append(
            f"  shards: {len(summary.shard_paths)} worker files folded in"
        )
    if summary.span_count or summary.final_metrics is not None:
        totals = f"  run totals: {summary.span_wall_s:.2f}s wall-clock"
        if summary.final_metrics is not None:
            counters = summary.final_metrics.get("counters", {})
            totals += (
                f", {counters.get('sim.events_fired', 0)} events fired, "
                f"{counters.get('trace.packets_offered', 0)} packets offered"
            )
        lines.append(totals)
    if summary.experiments:
        lines.append("  experiments:")
        for span, (name, events, packets) in zip(
            summary.experiments, summary.experiment_rows()
        ):
            attrs = span.get("attrs", {})
            seed = attrs.get("seed")
            scale = attrs.get("scale")
            lines.append(
                f"    {name:<12} "
                f"wall={span.get('wall_s', 0.0):.2f}s "
                f"events={events} "
                f"packets={packets} "
                f"seed={'default' if seed is None else seed} "
                f"scale={'default' if scale is None else f'{scale:g}'}"
            )
    if summary.span_count:
        pids = len(summary.span_pids)
        lines.append(
            f"  trace spans: {summary.span_count} across {pids} "
            f"process{'es' if pids != 1 else ''} "
            f"(render with `python -m repro timeline {summary.path}`)"
        )
    if summary.heartbeat_count:
        lines.append(f"  heartbeats: {summary.heartbeat_count}")
    if summary.peak_rss_kb:
        lines.append(
            f"  peak RSS: {summary.peak_rss_kb / 1024:.0f} MB"
        )
    if summary.final_metrics is not None:
        counters = summary.final_metrics.get("counters", {})
        nonzero = {k: v for k, v in counters.items() if v}
        lines.append(f"  final counters ({len(nonzero)} nonzero):")
        for key in sorted(nonzero):
            lines.append(f"    {key:<40} {nonzero[key]}")
    return "\n".join(lines)


def main(path: str) -> int:
    """CLI entry point for the ``stats`` subcommand."""
    summary = summarize_telemetry(path)
    try:
        print(render_summary(summary))
    except BrokenPipeError:
        pass  # downstream pager/head closed the pipe; not an error
    return 0
