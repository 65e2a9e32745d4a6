"""Cross-process span propagation: one stitched trace for any jobs=N.

The acceptance bar mirrors the parallel subsystem's: a pool run must
produce the *identical* span tree to a serial run — same deterministic
ids, same parent linkage — differing only in the volatile fields
(timings, pids).  These tests drive real pool workers and compare the
merged telemetry stream's span records against the serial run's.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import engine
from repro.obs.export import load_run_records
from repro.obs.spans import span_structure, span_tree
from repro.parallel.runner import Task, run_tasks
from repro.simkit.rng import RngRegistry


def _draw(seed: int) -> float:
    registry = RngRegistry(seed)
    return float(registry.stream("x").random())


def _tasks(count: int = 4) -> list[Task]:
    return [
        Task(f"t{i}", _draw, {"seed": 10 + i}, seed=10 + i)
        for i in range(count)
    ]


def _traced_run(tmp_path, jobs: int, label: str) -> list[dict]:
    path = tmp_path / f"run-{label}.jsonl"
    with obs.session(telemetry_path=str(path), trace_label="prop"):
        run_tasks(_tasks(), jobs=jobs, label="fan")
    return load_run_records(path)


class TestCrossProcessLinkage:
    def test_workers_join_the_parent_trace(self, tmp_path):
        records = _traced_run(tmp_path, jobs=2, label="join")
        spans = [r for r in records if r.get("type") == "span"]
        assert len({r["trace"] for r in spans}) == 1
        # spans were emitted from the parent and at least one worker
        assert len({r["pid"] for r in spans}) >= 2

    def test_task_spans_parent_under_run_tasks(self, tmp_path):
        records = _traced_run(tmp_path, jobs=2, label="parent")
        roots, children = span_tree(records)
        assert [r["name"] for r in roots] == ["parallel.run_tasks"]
        task_names = sorted(
            r["name"] for r in children[roots[0]["span"]]
        )
        assert task_names == ["t0", "t1", "t2", "t3"]

    def test_span_structure_identical_serial_vs_parallel(self, tmp_path):
        serial = _traced_run(tmp_path, jobs=1, label="serial")
        parallel = _traced_run(tmp_path, jobs=3, label="parallel")
        assert span_structure(serial) == span_structure(parallel)
        assert len(span_structure(serial)) == 5  # run_tasks + 4 tasks

    def test_trace_id_is_deterministic_across_runs(self, tmp_path):
        first = _traced_run(tmp_path, jobs=2, label="first")
        second = _traced_run(tmp_path, jobs=2, label="second")
        assert span_structure(first) == span_structure(second)


class TestEngineTrace:
    def test_engine_spans_stitch_for_any_jobs(self, tmp_path):
        def run(jobs: int):
            path = tmp_path / f"engine-{jobs}.jsonl"
            with obs.session(telemetry_path=str(path), trace_label="e"):
                engine.ENGINE.run("table4", scale=0.02, seed=7, jobs=jobs)
            return load_run_records(path)

        serial, parallel = run(1), run(2)
        assert span_structure(serial) == span_structure(parallel)
        roots, children = span_tree(parallel)
        assert [r["name"] for r in roots] == ["engine.table4"]
        phases = {r["name"] for r in children[roots[0]["span"]]}
        assert phases == {"engine.plan", "engine.execute",
                          "engine.aggregate"}


class TestProgressHeartbeats:
    def test_heartbeats_reach_the_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="hb"):
            run_tasks(_tasks(), jobs=2, label="fan", progress=True)
        records = load_run_records(path)
        beats = [r for r in records if r.get("type") == "heartbeat"]
        assert beats, "progress=True must emit heartbeat records"
        final = beats[-1]
        assert final["done"] == final["total"] == 4
        assert final["label"] == "fan"
        assert {"packets_offered", "packets_per_s", "rss_kb",
                "unix"} <= set(final)
        assert [b["done"] for b in beats] == sorted(
            b["done"] for b in beats
        )

    def test_serial_progress_heartbeats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="hb"):
            run_tasks(_tasks(2), jobs=1, label="fan", progress=True)
        records = load_run_records(path)
        beats = [r for r in records if r.get("type") == "heartbeat"]
        assert [b["done"] for b in beats] == [1, 2]

    def test_no_heartbeats_without_progress(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="hb"):
            run_tasks(_tasks(), jobs=2, label="fan")
        records = load_run_records(path)
        assert not any(r.get("type") == "heartbeat" for r in records)

    def test_progress_without_sink_prints_stderr(self, capsys):
        run_tasks(_tasks(2), jobs=1, label="fan", progress=True)
        err = capsys.readouterr().err
        assert "progress: fan 2/2" in err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_heartbeat_packets_come_from_task_spans(self, tmp_path, jobs):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="e") as state:
            engine.ENGINE.run(
                "table2", scale=0.01, seed=7, jobs=jobs, progress=True
            )
            packets = state.metrics.counter("trace.packets_offered").value
        beats = [
            r for r in load_run_records(path) if r.get("type") == "heartbeat"
        ]
        assert beats[-1]["done"] == 9
        assert beats[-1]["packets_offered"] == packets > 0

    def test_engine_threads_progress(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.session(telemetry_path=str(path), trace_label="e"):
            engine.ENGINE.run(
                "table4", scale=0.02, seed=7, jobs=2, progress=True
            )
        records = load_run_records(path)
        assert any(r.get("type") == "heartbeat" for r in records)
