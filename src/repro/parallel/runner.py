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
  final counters — and the counters of every span enclosing the pool —
  equal a serial run's.  Each task's span comes back in its
  :class:`TaskResult`; worker telemetry goes to per-worker JSONL shards
  (:mod:`repro.parallel.shards`).
* **Serial fidelity** — ``jobs=1`` runs every task in-process against
  the active observability session, byte-for-byte what the pre-parallel
  code paths did.  The pool only exists when requested.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro import obs
from repro.obs import runtime as _obs_runtime
from repro.obs.spans import SpanContext
from repro.parallel.shards import find_shards, shard_path


@dataclass(frozen=True)
class Task:
    """One unit of parallel work.

    ``fn`` must be picklable by reference (a module-level callable) and
    ``kwargs`` must carry everything the task needs — including its
    seed, so the result is independent of which worker runs it.
    ``seed``/``scale`` are metadata stamped into the task's span.
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
    # Exact worker-registry state for this task (None when the run was
    # unobserved or executed inline against the parent registry).
    metrics_state: Optional[dict] = None
    # The task's finished span record — wall/CPU time, peak RSS and
    # counter deltas (None when no span recorder was active).
    span: Optional[dict] = None

    __test__ = False


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_init(session_kwargs: Optional[dict], telemetry_parent: Optional[str],
                 index_counter) -> None:
    """Per-worker-process setup: default signals, its own observability
    session.

    A worker forked after its parent hooked SIGINT and SIGTERM on an
    event loop (``run_server`` does, and its pool forks lazily) would
    keep the loop's handlers and wakeup socket: a SIGTERM sent to the
    worker would drain the whole server instead of stopping the worker.
    So a worker takes Python's default handling of both back and drops
    the wakeup fd.

    A forked worker also inherits the parent's live session; it must
    detach (not close) before configuring its own, or the parent's
    buffered telemetry would be flushed twice into the shared file
    descriptor.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
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
        from multiprocessing import util as mp_util

        state.sink.flush()
        # flush() is not enough for .gz shards: GzipFile writes its
        # end-of-stream trailer only on close().  multiprocessing runs
        # Finalize callbacks in the worker's bootstrap teardown (before
        # os._exit), so close the shard there.
        mp_util.Finalize(state.sink, state.sink.close, exitpriority=100)


def _run_task(task: Task) -> TaskResult:
    """Run one task under its own ``kind="task"`` span.

    Both paths use it: inline, the span opens on the live stack; in a
    worker, under the adopted parent context — so the tree and its
    deterministic ids match for any ``jobs``.
    """
    span = _obs_runtime.trace_span(
        task.name, kind="task", seed=task.seed, scale=task.scale
    )
    with span:
        value = task.fn(**task.kwargs)
    return TaskResult(name=task.name, value=value, span=span.record)


def _execute_task(
    task: Task, span_context: Optional[tuple[str, str]] = None
) -> TaskResult:
    """Run one task in a worker and capture its observability state.

    The worker registry is reset per task, so the exported state and
    the task span's counters both describe exactly this task.
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
    with adopt:
        result = _run_task(task)
    if state.enabled:
        if state.sink is not None:
            state.sink.flush()
        result.metrics_state = state.metrics.export_state()
    return result


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
def _pool_context():
    """Fork when the platform offers it (cheap, shares loaded modules);
    spawn otherwise."""
    import multiprocessing

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
        "spans": state.spans is not None,
        "trace_id": state.spans.trace_id if state.spans is not None else None,
    }


def _emit_heartbeat(
    state,
    label: Optional[str],
    results: Sequence[TaskResult],
    total: int,
    elapsed_s: float,
) -> None:
    """One progress heartbeat: a telemetry record when a sink is open, a
    stderr line otherwise.  Cumulative packets are read off the finished
    tasks' spans."""
    done = len(results)
    packets = sum(
        r.span["counters"].get("trace.packets_offered", 0)
        for r in results
        if r.span is not None
    )
    rate = packets / elapsed_s if elapsed_s > 0 else 0.0
    if state.sink is not None:
        _obs_runtime.emit_heartbeat(label or "run", done, total, packets, rate)
    else:
        print(
            f"progress: {label or 'run'} {done}/{total} tasks "
            f"({rate:,.0f} pkt/s)",
            file=sys.stderr,
        )


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    label: Optional[str] = None,
    progress: bool = False,
) -> list[TaskResult]:
    """Run ``tasks`` and return their results in task order.

    ``jobs <= 1`` executes inline (the exact serial code path);
    ``jobs > 1`` fans out over a process pool and folds each worker's
    metrics state back into the active registry in task order.  Each
    :class:`TaskResult` carries its task's span record.

    ``progress=True`` emits one heartbeat record per finished task
    (tasks done/total, cumulative packets/s) to the telemetry sink —
    or a stderr line when no sink is open — so long runs are watchable
    via ``python -m repro timeline FILE --follow``.

    The whole call runs under a ``parallel.run_tasks`` trace span, and
    each task's own span parents under it — via the live stack when
    inline, via a propagated :class:`~repro.obs.spans.SpanContext` when
    pooled — so the span tree (and its deterministic ids) is identical
    for any ``jobs`` value.  The worker states merge before that span
    closes, so its counters are identical too.
    """
    state = obs.STATE
    with _obs_runtime.trace_span(
        "parallel.run_tasks", label=label or "", tasks=len(tasks), jobs=jobs
    ):
        start = perf_counter()
        if jobs <= 1 or len(tasks) <= 1:
            results = []
            for task in tasks:
                results.append(_run_task(task))
                if progress:
                    _emit_heartbeat(
                        state, label, results, len(tasks),
                        perf_counter() - start,
                    )
            return results

        # The pool machinery loads only when a run asks for it.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        context = _pool_context()
        session_kwargs = _session_kwargs(state)
        telemetry_parent = (
            str(state.sink.path) if state.sink is not None else None
        )
        # Worker shards are numbered after the ones this session already
        # wrote (the family was emptied when the session opened it).
        index_counter = (
            context.Value("i", len(find_shards(telemetry_parent)))
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
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(session_kwargs, telemetry_parent, index_counter),
        ) as pool:
            futures = [
                pool.submit(_execute_task, task, span_context)
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
                    _emit_heartbeat(
                        state, label,
                        [f.result() for f in futures if f.done()],
                        len(tasks), perf_counter() - start,
                    )
            results = [future.result() for future in futures]
        # Fold worker registries back in task order (deterministic merge).
        if state.enabled:
            for result in results:
                if result.metrics_state is not None:
                    state.metrics.merge_state(result.metrics_state)
        return results
