"""Parallel experiment execution.

A process-pool runner (:func:`run_tasks`) that fans independent,
seed-stable tasks across workers while keeping three invariants:
results are byte-identical to a serial run, worker metrics fold back
into the parent registry exactly, and telemetry lands in per-worker
shards the ``stats`` subcommand reads as one stream.

Quick use::

    from repro.parallel import Task, run_tasks

    tasks = [Task(name, fn, kwargs={"seed": seed, ...}) for ...]
    results = run_tasks(tasks, jobs=8, label="my-run")
    values = [r.value for r in results]   # in task order

Workers that produce traces (or classified traces) hand them back as
v2 columnar temp files (:mod:`repro.parallel.handoff`) instead of
pickling per-packet record objects; ``run_tasks`` resolves the handles
transparently and removes every file its pool run exported.

Wired into the CLI as ``python -m repro report --jobs N`` (and
``--jobs`` on experiments with independent trials, e.g. ``table2``).
See docs/OBSERVABILITY.md for the sharding and merge semantics.
"""

from repro.parallel.handoff import (
    PortableClassifiedTrace,
    RingClient,
    RingSlotHandle,
    RingTransport,
    TraceHandle,
    detach_ring,
    export_block,
    export_classified,
    export_trace,
    load_ring_slot,
    resolve_portable,
)
from repro.parallel.pool import PersistentPool, maybe_pool
from repro.parallel.runner import (
    Task,
    TaskResult,
    default_jobs,
    merged_manifest_record,
    run_tasks,
)
from repro.parallel.shards import find_shards, shard_path

__all__ = [
    "PersistentPool",
    "PortableClassifiedTrace",
    "RingClient",
    "RingSlotHandle",
    "RingTransport",
    "Task",
    "TaskResult",
    "TraceHandle",
    "default_jobs",
    "detach_ring",
    "export_block",
    "load_ring_slot",
    "export_classified",
    "export_trace",
    "maybe_pool",
    "find_shards",
    "merged_manifest_record",
    "resolve_portable",
    "run_tasks",
    "shard_path",
]
