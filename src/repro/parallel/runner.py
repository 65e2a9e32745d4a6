"""The process-pool task runner.

Fans independent, seed-stable tasks (whole experiments, or the trials
inside one) out across worker processes, with three guarantees:

* **Determinism** — a task's result depends only on its own arguments
  (every seed is derived from the experiment seed and the task's name
  through :mod:`repro.simkit.rng`, never from worker rank or execution
  order), and results are returned in task order.  ``jobs=N`` therefore
  produces byte-identical tables to ``jobs=1``.
* **Mergeable observability** — each worker runs its own metrics
  registry per task and exports its exact state; the parent folds the
  states back in task order (:meth:`repro.obs.Metrics.merge_state`), so
  final counters equal a serial run's.  Worker telemetry goes to
  per-worker JSONL shards (:mod:`repro.parallel.shards`); the parent
  file gets one merged run manifest.
* **Serial fidelity** — ``jobs=1`` runs every task in-process against
  the active observability session, byte-for-byte what the pre-parallel
  code paths did.  The pool only exists when requested.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from multiprocessing import util as _mp_util
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Optional, Sequence

from repro import obs
from repro.obs import resources as _resources
from repro.obs import runtime as _obs_runtime
from repro.obs.spans import SpanContext
from repro.parallel.shards import shard_path


@dataclass(frozen=True)
class Task:
    """One unit of parallel work.

    ``fn`` must be picklable by reference (a module-level callable) and
    ``kwargs`` must carry everything the task needs — including its
    seed, so the result is independent of which worker runs it.
    ``seed``/``scale`` are metadata stamped into the task's manifest.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    seed: Optional[int] = None
    scale: Optional[float] = None

    __test__ = False  # not a pytest test class despite the name


@dataclass
class TaskResult:
    """A finished task: its value plus its observability freight."""

    name: str
    value: Any
    wall_clock_s: float
    # Exact worker-registry state for this task (None when the run was
    # unobserved or executed inline against the parent registry).
    metrics_state: Optional[dict] = None
    # The task's run-manifest record (None when unobserved).
    manifest: Optional[dict] = None

    __test__ = False


def default_jobs() -> int:
    """A sensible ``--jobs`` default for "use the machine": cpu count."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_init(session_kwargs: Optional[dict], telemetry_parent: Optional[str],
                 index_counter) -> None:
    """Per-worker-process setup: its own observability session.

    A forked worker inherits the parent's live session; it must detach
    (not close) before configuring its own, or the parent's buffered
    telemetry would be flushed twice into the shared file descriptor.
    """
    _obs_runtime.detach_inherited_session()
    if session_kwargs is None:
        return  # parent was not observing; workers don't either
    telemetry = None
    if telemetry_parent is not None:
        if index_counter is not None:
            with index_counter.get_lock():
                index = index_counter.value
                index_counter.value += 1
        else:  # spawn start method: no inherited counter, use the pid
            index = os.getpid()
        telemetry = str(shard_path(telemetry_parent, index))
    obs.configure(telemetry_path=telemetry, **session_kwargs)
    # Pool workers exit through os._exit, which skips atexit and drops
    # stream buffers — land the shard header now and flush after every
    # task (_execute_task) so shards are always complete on disk.
    state = obs.STATE
    if state.sink is not None:
        state.sink.flush()
        # flush() is not enough for .gz shards: GzipFile writes its
        # end-of-stream trailer only on close().  multiprocessing runs
        # Finalize callbacks in the worker's bootstrap teardown (before
        # os._exit), so close the shard there.
        _mp_util.Finalize(state.sink, state.sink.close, exitpriority=100)


def _execute_task(
    task: Task,
    git_rev: Optional[str],
    task_manifests: bool = True,
    span_context: Optional[tuple[str, str]] = None,
) -> TaskResult:
    """Run one task in a worker and capture its observability state.

    The worker registry is reset per task, so the exported state and
    the manifest both describe exactly this task's deltas.
    ``span_context`` is the parent process's live span (trace id, span
    id): the task's own span — and everything the task opens inside —
    parents under it, stitching the worker's telemetry shard into the
    parent's trace.
    """
    state = obs.STATE
    if state.enabled:
        state.metrics.reset()
    recorder = state.spans
    adopt = (
        recorder.adopt(SpanContext(*span_context))
        if recorder is not None and span_context is not None
        else nullcontext()
    )
    cpu_before = process_time()
    with adopt:
        task_span = (
            recorder.span(task.name, kind="task")
            if recorder is not None
            else nullcontext()
        )
        start = perf_counter()
        with task_span:
            value = task.fn(**task.kwargs)
        wall_clock_s = perf_counter() - start
    metrics_state = manifest = None
    if state.enabled:
        manifest = obs.build_manifest(
            task.name,
            metrics=state.metrics,
            counters_before={},
            wall_clock_s=wall_clock_s,
            seed=task.seed,
            scale=task.scale,
            git_rev=git_rev,
            cpu_s=process_time() - cpu_before,
            peak_rss_kb=_resources.peak_rss_kb() or None,
        ).to_record()
        if task_manifests and state.sink is not None:
            state.sink.emit(manifest)
            state.sink.flush()
        metrics_state = state.metrics.export_state()
    return TaskResult(
        name=task.name,
        value=value,
        wall_clock_s=wall_clock_s,
        metrics_state=metrics_state,
        manifest=manifest,
    )


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
def _run_task_inline(
    task: Task, git_rev: Optional[str], task_manifests: bool = True
) -> TaskResult:
    """Serial path: run against the active session, as pre-parallel
    code did — counter deltas via a before snapshot, manifest straight
    to the session sink.  The task span opens on the live stack, so the
    tree (and its deterministic ids) matches a pool run's exactly."""
    state = obs.STATE
    counters_before = state.metrics.counters_snapshot()
    cpu_before = process_time()
    start = perf_counter()
    with _obs_runtime.trace_span(task.name, kind="task"):
        value = task.fn(**task.kwargs)
    wall_clock_s = perf_counter() - start
    manifest = None
    if state.enabled:
        manifest = obs.build_manifest(
            task.name,
            metrics=state.metrics,
            counters_before=counters_before,
            wall_clock_s=wall_clock_s,
            seed=task.seed,
            scale=task.scale,
            git_rev=git_rev,
            cpu_s=process_time() - cpu_before,
            peak_rss_kb=_resources.peak_rss_kb() or None,
        ).to_record()
        if task_manifests and state.sink is not None:
            state.sink.emit(manifest)
    return TaskResult(
        name=task.name,
        value=value,
        wall_clock_s=wall_clock_s,
        manifest=manifest,
    )


def _pool_context():
    """Fork when the platform offers it (cheap, shares loaded modules);
    spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _session_kwargs(state) -> Optional[dict]:
    """The worker-session configuration mirroring the parent's.

    Carries the parent's trace id so every worker's span recorder joins
    the same trace (parent linkage travels per task, as a span
    context)."""
    if not state.enabled:
        return None
    return {
        "rng_accounting": state.rng_accounting,
        "trace_sample_every": (
            state.tracer.sample_every if state.tracer is not None else 1
        ),
        "spans": state.spans is not None,
        "trace_id": state.spans.trace_id if state.spans is not None else None,
    }


def merged_manifest_record(
    label: str, results: Sequence[TaskResult], wall_clock_s: float
) -> dict:
    """One manifest summarizing a whole parallel run.

    Carries ``merged_from`` (the task names) so readers — the ``stats``
    subcommand in particular — can tell it from per-task manifests and
    avoid double counting.
    """
    merged = obs.RunManifest(
        experiment=label,
        seed=None,
        scale=None,
        git_rev=next(
            (r.manifest.get("git_rev") for r in results if r.manifest), None
        ),
        wall_clock_s=wall_clock_s,
        events_fired=0,
        packets_offered=0,
    )
    for result in results:
        if result.manifest is None:
            continue
        merged.events_fired += result.manifest.get("events_fired", 0)
        merged.packets_offered += result.manifest.get("packets_offered", 0)
        cpu_s = result.manifest.get("cpu_s")
        if cpu_s is not None:
            merged.cpu_s = (merged.cpu_s or 0.0) + cpu_s
        peak = result.manifest.get("peak_rss_kb")
        if peak is not None:  # per-process high-water: max, not sum
            merged.peak_rss_kb = max(merged.peak_rss_kb or 0, peak)
        for key, delta in result.manifest.get("rng_streams", {}).items():
            merged.rng_streams[key] = merged.rng_streams.get(key, 0) + delta
        for key, delta in result.manifest.get("layer_counters", {}).items():
            merged.layer_counters[key] = (
                merged.layer_counters.get(key, 0) + delta
            )
    record = merged.to_record()
    record["merged_from"] = [r.name for r in results]
    return record


def _emit_heartbeat(
    state,
    label: Optional[str],
    done: int,
    total: int,
    packets_offered: int,
    elapsed_s: float,
) -> None:
    """One progress heartbeat: a telemetry record when a sink is open
    (flushed immediately so ``timeline --follow`` sees it live), a
    stderr line otherwise."""
    rate = packets_offered / elapsed_s if elapsed_s > 0 else 0.0
    if state.enabled:
        state.metrics.gauge("progress.done").set(done)
        state.metrics.gauge("progress.packets_per_s").set(rate)
    if state.enabled and state.sink is not None:
        state.sink.emit({
            "type": "heartbeat",
            "label": label or "run",
            "done": done,
            "total": total,
            "packets_offered": packets_offered,
            "packets_per_s": round(rate, 1),
            "rss_kb": _resources.rss_kb(),
            "unix": time.time(),
        })
        state.sink.flush()
    else:
        print(
            f"progress: {label or 'run'} {done}/{total} tasks "
            f"({rate:,.0f} pkt/s)",
            file=sys.stderr,
        )


def _manifest_packets(results: Sequence[Optional[TaskResult]]) -> int:
    return sum(
        r.manifest.get("packets_offered", 0)
        for r in results
        if r is not None and r.manifest is not None
    )


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    label: Optional[str] = None,
    git_rev: Optional[str] = None,
    task_manifests: bool = True,
    progress: bool = False,
) -> list[TaskResult]:
    """Run ``tasks`` and return their results in task order.

    ``jobs <= 1`` executes inline (the exact serial code path);
    ``jobs > 1`` fans out over a process pool, folds each worker's
    metrics state back into the active registry in task order, and —
    when ``label`` is given and a telemetry sink is open — emits one
    merged run manifest to the parent sink.

    ``task_manifests=False`` suppresses the per-task manifest records
    (each :class:`TaskResult` still carries its own manifest) — used
    when the caller emits a single per-experiment manifest and
    trial-level records would double-count in ``stats``.

    ``progress=True`` emits one heartbeat record per finished task
    (tasks done/total, cumulative packets/s) to the telemetry sink —
    or a stderr line when no sink is open — so long runs are watchable
    via ``python -m repro timeline FILE --follow``.

    The whole call runs under a ``parallel.run_tasks`` trace span, and
    each task's own span parents under it — via the live stack when
    inline, via a propagated :class:`~repro.obs.spans.SpanContext` when
    pooled — so the span tree (and its deterministic ids) is identical
    for any ``jobs`` value.
    """
    state = obs.STATE
    with _obs_runtime.trace_span(
        "parallel.run_tasks", label=label or "", tasks=len(tasks), jobs=jobs
    ):
        if jobs <= 1 or len(tasks) <= 1:
            start = perf_counter()
            results = []
            for task in tasks:
                results.append(
                    _run_task_inline(task, git_rev, task_manifests)
                )
                if progress:
                    _emit_heartbeat(
                        state, label, len(results), len(tasks),
                        _manifest_packets(results), perf_counter() - start,
                    )
            return results

        context = _pool_context()
        session_kwargs = _session_kwargs(state)
        telemetry_parent = (
            str(state.sink.path) if state.sink is not None else None
        )
        index_counter = (
            context.Value("i", 0)
            if telemetry_parent is not None
            and context.get_start_method() == "fork"
            else None
        )
        # The live span context travels with every task so worker-side
        # spans parent under this run_tasks span.
        span_context = None
        if state.spans is not None:
            current = state.spans.current()
            if current is not None:
                span_context = (current.trace_id, current.span_id)
        start = perf_counter()
        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(session_kwargs, telemetry_parent, index_counter),
        ) as pool:
            futures = [
                pool.submit(
                    _execute_task, task, git_rev, task_manifests, span_context
                )
                for task in tasks
            ]
            if progress:
                # Heartbeat as completions land, while still returning
                # results in task order.
                pending = set(futures)
                while pending:
                    _finished, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    done_results = [f.result() for f in futures if f.done()]
                    _emit_heartbeat(
                        state, label, len(done_results), len(tasks),
                        _manifest_packets(done_results),
                        perf_counter() - start,
                    )
            results = [future.result() for future in futures]
        # Fold worker registries back in task order (deterministic merge).
        if state.enabled:
            for result in results:
                if result.metrics_state is not None:
                    state.metrics.merge_state(result.metrics_state)
            if state.sink is not None and label is not None:
                record = merged_manifest_record(
                    label, results, perf_counter() - start
                )
                record["jobs"] = workers
                state.sink.emit(record)
        return results
