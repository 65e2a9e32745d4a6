"""Trace exporters: Perfetto/Chrome JSON and the terminal waterfall.

``python -m repro timeline run.jsonl`` renders the span tree a traced
run recorded (see :mod:`repro.obs.spans`) as an indented waterfall with
per-span wall/CPU time; ``--export trace.json`` instead writes
Chrome trace-event JSON that https://ui.perfetto.dev (or
``chrome://tracing``) opens directly; ``--follow`` tails the run's
heartbeat records live while it is still executing.

Records are gathered from the telemetry file *plus* its per-worker
shard family, so a ``--jobs N`` run renders as one stitched tree —
worker task spans appear under the parent's ``parallel.run_tasks``
span because ids were propagated across the pool boundary, not
reconstructed here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.obs.events import PathLike, iter_telemetry
from repro.obs.spans import span_tree


def iter_run_records(path: PathLike) -> Iterator[dict]:
    """Stream every record of a run: the parent file, then each shard."""
    from repro.parallel.shards import find_shards

    yield from iter_telemetry(path)
    for shard in find_shards(path):
        yield from iter_telemetry(shard)


def load_run_records(path: PathLike) -> list[dict]:
    """All records of a run (parent + shards), materialized."""
    return list(iter_run_records(path))


# ----------------------------------------------------------------------
# Chrome / Perfetto trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(records: list[dict]) -> dict:
    """Convert telemetry records to Chrome trace-event JSON.

    Span records become ``ph: "X"`` complete events (timestamps in
    microseconds, normalized to the earliest span so the trace starts
    at t=0); heartbeat records become ``ph: "C"`` counter tracks
    (packets/s); each pid gets a ``process_name`` metadata event.  The
    output dict serializes to a file Perfetto and ``chrome://tracing``
    open as-is.
    """
    spans = [r for r in records if r.get("type") == "span"]
    starts = [r.get("start_unix", 0.0) for r in spans]
    epoch = min(starts) if starts else 0.0
    events: list[dict] = []
    pids = set()

    def _ts(unix: float) -> float:
        return max(0.0, (unix - epoch) * 1e6)

    for record in spans:
        pid = record.get("pid", 0)
        pids.add(pid)
        args = dict(record.get("attrs", {}))
        args["span"] = record.get("span")
        if record.get("parent"):
            args["parent"] = record["parent"]
        args["cpu_s"] = record.get("cpu_s", 0.0)
        args["rss_delta_kb"] = record.get("rss_delta_kb", 0)
        if record.get("status") and record["status"] != "ok":
            args["status"] = record["status"]
        events.append({
            "name": record.get("name", "?"),
            "cat": "span",
            "ph": "X",
            "ts": _ts(record.get("start_unix", epoch)),
            "dur": record.get("wall_s", 0.0) * 1e6,
            "pid": pid,
            "tid": pid,
            "args": args,
        })
    for record in records:
        if record.get("type") == "heartbeat":
            pid = next(iter(pids), 0)
            events.append({
                "name": "progress",
                "cat": "heartbeat",
                "ph": "C",
                "ts": _ts(record.get("unix", epoch)),
                "pid": pid,
                "tid": pid,
                "args": {
                    "packets_per_s": record.get("packets_per_s", 0.0),
                    "tasks_done": record.get("done", 0),
                },
            })
    for pid in sorted(pids):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {"name": f"repro pid {pid}"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path: PathLike) -> None:
    """Serialize :func:`to_chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(to_chrome_trace(records), stream)
        stream.write("\n")


# ----------------------------------------------------------------------
# Terminal waterfall
# ----------------------------------------------------------------------
def render_waterfall(records: list[dict], width: int = 40) -> str:
    """An indented span-tree waterfall for the terminal.

    Each line shows the span name, wall/CPU seconds, and a bar whose
    offset and length place the span on the run's time axis — the
    text-mode rendering of what the Perfetto export shows graphically.
    """
    roots, children = span_tree(records)
    if not roots:
        return "(no spans recorded — run with --telemetry to capture them)"
    t0 = min(r.get("start_unix", 0.0) for r in roots)
    t1 = max(
        r.get("start_unix", 0.0) + r.get("wall_s", 0.0)
        for r in records
        if r.get("type") == "span"
    )
    total = max(t1 - t0, 1e-9)
    lines: list[str] = []

    def _bar(record: dict) -> str:
        offset = (record.get("start_unix", t0) - t0) / total
        length = record.get("wall_s", 0.0) / total
        left = int(round(offset * width))
        size = max(1, int(round(length * width)))
        size = min(size, width - min(left, width - 1))
        return " " * min(left, width - 1) + "#" * size

    def _walk(record: dict, depth: int) -> None:
        name = record.get("name", "?")
        flag = "" if record.get("status", "ok") == "ok" else " [ERROR]"
        lines.append(
            f"{'  ' * depth}{name:<{max(1, 36 - 2 * depth)}} "
            f"{record.get('wall_s', 0.0):8.3f}s "
            f"cpu {record.get('cpu_s', 0.0):7.3f}s "
            f"|{_bar(record)}|{flag}"
        )
        for child in children.get(record["span"], ()):
            _walk(child, depth + 1)

    header = (
        f"trace {roots[0].get('trace', '?')} — "
        f"{sum(1 for r in records if r.get('type') == 'span')} spans, "
        f"{total:.3f}s"
    )
    lines.insert(0, header)
    for root in roots:
        _walk(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live heartbeat tail (--follow)
# ----------------------------------------------------------------------
def follow_heartbeats(
    path: PathLike,
    poll_s: float = 0.5,
    idle_timeout_s: Optional[float] = None,
    _print=print,
) -> int:
    """Tail a running telemetry file, printing heartbeat records live.

    Re-reads the (append-only) file each poll and prints every
    heartbeat not yet seen; returns once the final ``metrics`` record
    lands (the session closed) or after ``idle_timeout_s`` with no new
    records.  Gzipped telemetry cannot be tailed mid-run (the trailer
    is written on close), so ``--follow`` expects an uncompressed file.
    """
    if Path(path).suffix == ".gz":
        raise ValueError("--follow cannot tail gzipped telemetry")
    seen = 0
    idle_since = time.monotonic()
    while True:
        count = 0
        finished = False
        for record in iter_telemetry(path):
            count += 1
            if count > seen:
                if record.get("type") == "heartbeat":
                    _print(
                        f"[{record.get('label', 'run')}] "
                        f"{record.get('done', 0)}/{record.get('total', 0)} "
                        f"tasks, {record.get('packets_per_s', 0.0):,.0f} "
                        f"pkt/s, rss {record.get('rss_kb', 0) / 1024:.0f} MB"
                    )
                idle_since = time.monotonic()
            if record.get("type") == "metrics":
                finished = True
        seen = max(seen, count)
        if finished:
            return 0
        if (
            idle_timeout_s is not None
            and time.monotonic() - idle_since > idle_timeout_s
        ):
            return 0
        time.sleep(poll_s)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(
    path: str,
    export: Optional[str] = None,
    follow: bool = False,
    idle_timeout_s: Optional[float] = None,
) -> int:
    """Entry point for ``python -m repro timeline``."""
    if follow:
        return follow_heartbeats(path, idle_timeout_s=idle_timeout_s)
    records = load_run_records(path)
    if export is not None:
        write_chrome_trace(records, export)
        spans = sum(1 for r in records if r.get("type") == "span")
        print(
            f"wrote {export} ({spans} spans) — "
            "open at https://ui.perfetto.dev"
        )
        return 0
    try:
        print(render_waterfall(records))
    except BrokenPipeError:
        pass  # downstream pager closed the pipe; not an error
    return 0
