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

Workers that produce traces (or classified traces) return them as
plain values: pickle moves their numpy columns, never per-packet
record objects.  The streaming ingest service ships its chunks through
shared-memory slot rings instead (:mod:`repro.parallel.handoff`).

Wired into the CLI as ``python -m repro report --jobs N`` (and
``--jobs`` on experiments with independent trials, e.g. ``table2``).
See docs/OBSERVABILITY.md for the sharding and merge semantics.
"""

from repro.parallel.handoff import (
    RingClient,
    RingSlotHandle,
    RingTransport,
    detach_ring,
    load_ring_slot,
)
from repro.parallel.pool import PersistentPool
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
    "RingClient",
    "RingSlotHandle",
    "RingTransport",
    "Task",
    "TaskResult",
    "default_jobs",
    "detach_ring",
    "find_shards",
    "load_ring_slot",
    "merged_manifest_record",
    "run_tasks",
    "shard_path",
]
