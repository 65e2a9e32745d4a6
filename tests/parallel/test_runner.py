"""The process-pool runner: determinism, metrics merge, telemetry shards.

The acceptance bar for the parallel subsystem is byte-identical results
for any ``jobs`` value — these tests compare parallel runs against
serial ones at every layer: task values, experiment rows, merged
counters, and the telemetry stream the ``stats`` subcommand folds.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments import baseline, engine, multiroom
from repro.obs.events import read_telemetry
from repro.obs.export import load_run_records
from repro.obs.stats import summarize_telemetry
from repro.parallel.runner import Task, run_tasks
from repro.parallel.shards import find_shards, shard_path
from repro.simkit.rng import RngRegistry, derive_seed


def _square(value: int, seed: int) -> int:
    return value * value + seed


def _draw(seed: int) -> float:
    """A task whose result depends only on its seed, via the registry."""
    registry = RngRegistry(seed)
    return float(registry.stream("x").random())


def _task_spans(records) -> list[dict]:
    return [
        r for r in records
        if r["type"] == "span" and r["attrs"].get("kind") == "task"
    ]


def _shard_task_spans(telemetry) -> list[dict]:
    """The task spans the worker shards of ``telemetry`` hold."""
    return _task_spans(
        record
        for shard in find_shards(telemetry)
        for record in read_telemetry(shard)[1]
    )


def _tasks(count: int = 4) -> list[Task]:
    return [
        Task(f"t{i}", _square, {"value": i, "seed": 10 + i}, seed=10 + i)
        for i in range(count)
    ]


class TestRunTasks:
    def test_serial_runs_inline_in_order(self):
        results = run_tasks(_tasks(), jobs=1)
        assert [r.name for r in results] == ["t0", "t1", "t2", "t3"]
        assert [r.value for r in results] == [10, 12, 16, 22]

    def test_parallel_matches_serial(self):
        serial = [r.value for r in run_tasks(_tasks(), jobs=1)]
        parallel = [r.value for r in run_tasks(_tasks(), jobs=2)]
        assert parallel == serial

    def test_seeded_tasks_worker_independent(self):
        """Results derive from per-task seeds, not worker identity:
        more workers than tasks, fewer workers than tasks, and serial
        all agree."""
        tasks = [
            Task(f"d{i}", _draw, {"seed": derive_seed(99, f"d{i}")})
            for i in range(5)
        ]
        serial = [r.value for r in run_tasks(tasks, jobs=1)]
        assert [r.value for r in run_tasks(tasks, jobs=2)] == serial
        assert [r.value for r in run_tasks(tasks, jobs=8)] == serial

    def test_single_task_stays_inline(self):
        results = run_tasks(_tasks(1), jobs=8)
        assert results[0].value == 10

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_carry_their_task_span(self, jobs):
        with obs.session():
            results = run_tasks(_tasks(), jobs=jobs)
        for task, result in zip(_tasks(), results):
            assert result.span["name"] == task.name
            assert result.span["attrs"] == {
                "kind": "task", "seed": task.seed, "scale": None
            }
            assert {"wall_s", "cpu_s", "peak_rss_kb", "counters"} <= set(
                result.span
            )


class TestObservabilityMerge:
    def test_parallel_counters_equal_serial(self, tmp_path):
        """The headline invariant: final merged counters match a serial
        run exactly, and the worker shards carry one span per trial."""
        telemetry = tmp_path / "run.jsonl"
        with obs.session() as state:
            baseline.run(scale=0.01, seed=1996, jobs=1)
            serial_counters = state.metrics.counters_snapshot()
        with obs.session(telemetry_path=str(telemetry)) as state:
            baseline.run(scale=0.01, seed=1996, jobs=2)
            parallel_counters = state.metrics.counters_snapshot()
        assert parallel_counters == serial_counters

        summary = summarize_telemetry(telemetry)
        assert len(summary.shard_paths) == 2
        tasks = _shard_task_spans(telemetry)
        assert len(tasks) == 9  # one per office trial
        # The experiment span in the parent file holds the merged
        # worker states: the trials' sum, counted once.
        assert summary.experiment_rows() == [
            ("table2", 0, serial_counters["trace.packets_offered"])
        ]
        assert sum(
            t["counters"]["trace.packets_offered"] for t in tasks
        ) == serial_counters["trace.packets_offered"]

    def test_mac_counters_equal_across_jobs(self):
        """The DES experiment's counters merge exactly, the backoff
        slots of both protocols included."""
        counters = {}
        for jobs in (1, 2):
            with obs.session() as state:
                engine.ENGINE.run("mac", scale=0.05, jobs=jobs)
                counters[jobs] = state.metrics.counters_snapshot()
        assert counters[2] == counters[1]
        assert counters[1]["sim.events_fired"] > 0
        for protocol in ("csma_ca", "csma_cd"):
            assert counters[1][f"mac.backoff_slots{{protocol={protocol}}}"] > 0

    def test_rows_identical_across_jobs(self):
        serial = baseline.run(scale=0.01, seed=7, jobs=1)
        parallel = baseline.run(scale=0.01, seed=7, jobs=3)
        assert [
            (r.name, r.packets_sent, r.packet_loss_percent, r.body_bits_damaged)
            for r in serial.rows
        ] == [
            (r.name, r.packets_sent, r.packet_loss_percent, r.body_bits_damaged)
            for r in parallel.rows
        ]

    def test_multiroom_identical_across_jobs(self):
        serial = multiroom.run(scale=0.1, seed=65, jobs=1)
        parallel = multiroom.run(scale=0.1, seed=65, jobs=2)
        assert [
            (r.name, r.packet_loss_percent) for r in serial.metrics_rows
        ] == [(r.name, r.packet_loss_percent) for r in parallel.metrics_rows]
        assert serial.level_mean("Tx5") == parallel.level_mean("Tx5")
        assert parallel.tx5_classified is not None

    def test_unobserved_run_writes_nothing(self, tmp_path):
        obs.reset()
        results = run_tasks(_tasks(), jobs=2)
        assert all(r.span is None for r in results)
        assert all(r.metrics_state is None for r in results)


class TestShards:
    def test_shard_path_layout(self):
        assert str(shard_path("run.jsonl", 0)).endswith("run.shard-000.jsonl")
        assert str(shard_path("run.jsonl.gz", 12)).endswith(
            "run.shard-012.jsonl.gz"
        )

    def test_find_shards_sorted_and_self_excluding(self, tmp_path):
        parent = tmp_path / "run.jsonl"
        parent.write_text("{}\n")
        for index in (2, 0, 1):
            shard_path(parent, index).write_text("{}\n")
        found = find_shards(parent)
        assert [p.name for p in found] == [
            "run.shard-000.jsonl",
            "run.shard-001.jsonl",
            "run.shard-002.jsonl",
        ]
        # A shard is not the parent of further shards.
        assert find_shards(found[0]) == []

    def test_gzip_shards_complete_on_disk(self, tmp_path):
        """Workers exit through os._exit, so only an explicit close in
        the worker's teardown lands the gzip end-of-stream trailer —
        flush alone leaves .gz shards unreadable (regression)."""
        telemetry = tmp_path / "run.jsonl.gz"
        with obs.session(telemetry_path=str(telemetry)):
            baseline.run(scale=0.01, seed=1996, jobs=2)
        shards = find_shards(telemetry)
        assert len(shards) == 2
        for shard in shards:  # every shard fully decompresses
            header, records = read_telemetry(shard)
            assert header["kind"] == "repro-telemetry"
            assert records
        summary = summarize_telemetry(telemetry)
        assert len(summary.shard_paths) == 2
        assert len(_shard_task_spans(telemetry)) == 9


class TestShardFamily:
    """A shard family holds exactly the shards of the session that
    wrote its parent file."""

    def test_second_pool_keeps_the_first_pools_shards(self, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(telemetry)):
            baseline.run(scale=0.01, seed=1996, jobs=2)
            multiroom.run(scale=0.1, seed=65, jobs=2)
        assert [p.name for p in find_shards(telemetry)] == [
            f"run.shard-00{i}.jsonl" for i in range(4)
        ]
        names = [span["name"] for span in _shard_task_spans(telemetry)]
        assert sum(name.startswith("office") for name in names) == 9
        assert sum(name.startswith("Tx") for name in names) == 4

    def test_reopening_a_path_drops_its_stale_shards(self, tmp_path):
        from repro.__main__ import main

        telemetry = str(tmp_path / "st.jsonl")
        for argv in (["table2", "--scale", "0.01", "--jobs", "3"],
                     ["table5", "--scale", "0.05", "--jobs", "2"]):
            assert main([*argv, "--telemetry", telemetry]) == 0
        assert len(find_shards(telemetry)) == 2  # table2's third is gone
        names = [span["name"] for span in _shard_task_spans(telemetry)]
        assert sorted(names) == ["Tx1", "Tx2", "Tx4", "Tx5"]
        summary = summarize_telemetry(telemetry)
        ((name, _, packets),) = summary.experiment_rows()
        assert name == "table5"
        assert packets == (
            summary.final_metrics["counters"]["trace.packets_offered"]
        )


    def test_glob_characters_name_only_their_own_family(self, tmp_path):
        from repro.obs.events import JsonlTelemetrySink

        for index in (0, 1):
            shard_path(tmp_path / "run.jsonl", index).write_text("{}\n")
        odd = tmp_path / "r*.jsonl"
        assert find_shards(odd) == []
        JsonlTelemetrySink(odd).close()  # deletes only r*'s own shards
        assert len(find_shards(tmp_path / "run.jsonl")) == 2


class TestSpanRecordsAcrossJobs:
    @pytest.mark.parametrize(
        "name, scale", [("table2", 0.01), ("table5", 0.05)]
    )
    def test_ids_parents_names_and_counters_identical(
        self, tmp_path, name, scale
    ):
        """Every span — experiment, task, layer — has the same id,
        parent, name and counters at jobs=1 and jobs=2."""

        def spans(jobs: int) -> list[tuple]:
            path = tmp_path / f"{name}-{jobs}.jsonl"
            with obs.session(telemetry_path=str(path), trace_label=name):
                engine.ENGINE.run(name, scale=scale, jobs=jobs)
            return sorted(
                (r["span"], r["parent"] or "", r["name"],
                 sorted(r["counters"].items()))
                for r in load_run_records(path)
                if r["type"] == "span"
            )

        serial = spans(1)
        assert any(counters for *_, counters in serial)
        assert spans(2) == serial


@pytest.mark.slow
class TestReportDeterminism:
    def test_report_lines_byte_identical(self):
        """The ISSUE acceptance check, at test scale: the comparison
        table is byte-identical for jobs=1 and jobs=2."""
        from repro.experiments.report import build_report

        serial = build_report(scale=0.02, seed=1996, jobs=1)
        parallel = build_report(scale=0.02, seed=1996, jobs=2)
        assert parallel.table_markdown() == serial.table_markdown()
        assert [
            (r.experiment, r.events_fired, r.packets_offered)
            for r in parallel.resources
        ] == [
            (r.experiment, r.events_fired, r.packets_offered)
            for r in serial.resources
        ]


@pytest.mark.skipif(os.cpu_count() == 1, reason="single-core host")
class TestActualParallelism:
    def test_uses_multiple_workers(self, tmp_path):
        """On multi-core hosts a 2-job run really does spread across
        two worker processes (two shards with records)."""
        telemetry = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(telemetry)):
            baseline.run(scale=0.01, seed=1, jobs=2)
        shards = find_shards(telemetry)
        assert len(shards) == 2
