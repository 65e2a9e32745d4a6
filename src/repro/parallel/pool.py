"""A long-lived, sharded worker pool for streaming workloads.

:func:`repro.parallel.runner.run_tasks` builds a pool per call — right
for batch experiments, wrong for a server that classifies chunks for
hours: pool startup (fork/spawn, worker session init) would land on the
latency path of every request wave.  :class:`PersistentPool` keeps its
workers warm for the process lifetime, with the same worker-side
session hygiene ``run_tasks`` uses (each worker detaches any
fork-inherited observability session so the parent's telemetry stream
stays uncorrupted), and adds an asyncio-friendly :meth:`run` that
submits work without blocking an event loop.

Work units should travel light: callers ship chunks through
:mod:`repro.parallel.handoff` shared-memory ring slots and get compact
column arrays or counts back, never per-record object graphs.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.parallel.runner import _pool_context, _worker_init


class PersistentPool:
    """``jobs`` warm single-worker shards with repro session hygiene.

    Every submission names its shard.  A plain executor hands each task
    to whichever worker frees up first, so per-worker state (a
    session's matcher and running digest, attached ring segments) would
    scatter as a session's chunks wander between processes.  Sticky
    routing pins everything a session touches to one worker for its
    whole life.

    Workers run *unobserved* (their inherited observability session is
    detached at init) — streaming callers keep spans, metrics, and
    heartbeats in the parent process, where per-session state lives.
    Use as a context manager, or call :meth:`shutdown` explicitly::

        with PersistentPool(jobs=4) as pool:
            future = pool.submit(fn, *args, shard=0)    # concurrent.futures
            value = await pool.run(fn, *args, shard=1)  # asyncio
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        context = _pool_context()
        self._executors = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=context,
                initializer=_worker_init,
                initargs=(None, None, None),
            )
            for _ in range(jobs)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any, shard: int) -> Future:
        if self._closed:
            raise RuntimeError("pool is shut down")
        return self._executors[shard % self.jobs].submit(fn, *args)

    async def run(self, fn: Callable[..., Any], *args: Any, shard: int) -> Any:
        """Submit and await without blocking the running event loop."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        return await asyncio.wrap_future(self.submit(fn, *args, shard=shard))

    def shutdown(self, wait: bool = True) -> None:
        """Idempotent teardown; ``wait=True`` drains in-flight work."""
        if self._closed:
            return
        self._closed = True
        for executor in self._executors:
            executor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
