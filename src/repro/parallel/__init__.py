"""Parallel experiment execution.

A process-pool runner (:func:`repro.parallel.runner.run_tasks`) that
fans independent, seed-stable tasks across workers while keeping three
invariants: results are byte-identical to a serial run, worker metrics
fold back into the parent registry exactly, and telemetry lands in
per-worker shards the ``stats`` subcommand reads as one stream.  The
pool machinery is imported only when a run asks for ``jobs > 1``.

Quick use::

    from repro.parallel.runner import Task, run_tasks

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
