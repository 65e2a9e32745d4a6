"""A long-lived worker pool for streaming workloads.

:func:`repro.parallel.runner.run_tasks` builds a pool per call — right
for batch experiments, wrong for a server that classifies chunks for
hours: pool startup (fork/spawn, worker session init) would land on the
latency path of every request wave.  :class:`PersistentPool` keeps one
:class:`~concurrent.futures.ProcessPoolExecutor` warm for the process
lifetime, with the same worker-side session hygiene ``run_tasks`` uses
(each worker detaches any fork-inherited observability session so the
parent's telemetry stream stays uncorrupted), and adds an
asyncio-friendly :meth:`run` that submits work without blocking an
event loop.

Work units should travel light: callers ship traces through
:mod:`repro.parallel.handoff` handles (shared memory or temp files) and
get compact column arrays back, never per-record object graphs.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Optional

from repro.parallel.runner import _pool_context, _worker_init


class PersistentPool:
    """A warm process pool with repro worker-session hygiene.

    ``jobs`` caps concurrent workers.  Workers run *unobserved* (their
    inherited observability session is detached at init) — streaming
    callers keep spans, metrics, and heartbeats in the parent process,
    where per-session state lives.  Use as a context manager, or call
    :meth:`shutdown` explicitly::

        with PersistentPool(jobs=4) as pool:
            future = pool.submit(fn, *args)        # concurrent.futures
            value = await pool.run(fn, *args)      # asyncio

    ``sharded=True`` turns the pool into ``jobs`` independent
    single-worker executors addressed by ``shard=`` on submit/run.
    A plain executor hands each task to whichever worker frees up
    first, so per-worker state (a session's matcher and running
    digest, attached ring segments) would scatter as a session's
    chunks wander between processes.  Sticky routing pins everything
    a session touches to one worker for its whole life.  Submitting
    without ``shard`` in sharded mode round-robins, for shard-agnostic
    work.
    """

    def __init__(self, jobs: int, sharded: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.sharded = sharded
        context = _pool_context()
        if sharded:
            self._executors = [
                ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=(None, None, None),
                )
                for _ in range(jobs)
            ]
        else:
            self._executors = [
                ProcessPoolExecutor(
                    max_workers=jobs,
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=(None, None, None),
                )
            ]
        self._round_robin = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _executor_for(self, shard: Optional[int]) -> ProcessPoolExecutor:
        if len(self._executors) == 1:
            return self._executors[0]
        if shard is None:
            shard = self._round_robin
            self._round_robin = (self._round_robin + 1) % self.jobs
        return self._executors[shard % self.jobs]

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        shard: Optional[int] = None,
    ) -> Future:
        if self._closed:
            raise RuntimeError("pool is shut down")
        return self._executor_for(shard).submit(fn, *args)

    async def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        shard: Optional[int] = None,
    ) -> Any:
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


def maybe_pool(jobs: int) -> Optional[PersistentPool]:
    """A pool when ``jobs > 1``, else ``None`` (inline execution)."""
    return PersistentPool(jobs) if jobs > 1 else None
