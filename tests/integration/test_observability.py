"""End-to-end observability: CLI telemetry, spans, and stats.

The acceptance path of the instrumentation bus: run a real experiment
through ``python -m repro`` with telemetry and metrics on, then check
the per-layer accounting and the ``stats`` subcommand against the
emitted file.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import runtime
from repro.obs.stats import summarize_telemetry


@pytest.fixture(autouse=True)
def _reset_obs_state():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One table2 run with telemetry + metrics, shared by the module."""
    path = tmp_path_factory.mktemp("obs") / "table2.jsonl"
    exit_code = main(
        ["table2", "--scale", "0.01", "--telemetry", str(path), "--metrics"]
    )
    return exit_code, path


class TestTelemetryCli:
    def test_exits_cleanly_and_resets_state(self, telemetry_run):
        exit_code, _ = telemetry_run
        assert exit_code == 0
        assert runtime.STATE.enabled is False  # CLI tore the session down

    def test_file_is_valid_jsonl(self, telemetry_run):
        _, path = telemetry_run
        with open(path, encoding="utf-8") as stream:
            lines = [json.loads(line) for line in stream]
        assert lines[0]["kind"] == "repro-telemetry"
        header, records = obs.read_telemetry(path)
        assert len(records) == len(lines) - 1

    def test_manifest_has_nonzero_layer_counters(self, telemetry_run):
        _, path = telemetry_run
        _, records = obs.read_telemetry(path)
        assert not [r for r in records if r["type"] in ("manifest", "resource")]
        (span,) = [
            r for r in records
            if r["type"] == "span" and r["name"] == "engine.table2"
        ]
        assert span["attrs"]["kind"] == "experiment"
        assert span["attrs"]["scale"] == 0.01
        assert span["wall_s"] > 0
        assert span["peak_rss_kb"] > 0
        counters = span["counters"]
        assert counters["trace.packets_offered"] > 0
        for layer in ("phy.", "mac.", "link."):
            layer_total = sum(
                v for k, v in counters.items() if k.startswith(layer)
            )
            assert layer_total > 0, f"no nonzero {layer}* counters"

    def test_final_metrics_record_present(self, telemetry_run):
        _, path = telemetry_run
        _, records = obs.read_telemetry(path)
        (metrics_record,) = [r for r in records if r["type"] == "metrics"]
        counters = metrics_record["metrics"]["counters"]
        assert counters["trace.packets_offered"] > 0
        assert "timers" not in metrics_record["metrics"]
        # Trial time is attributed by one trace span per trial.
        trials = [
            r for r in records
            if r["type"] == "span" and r["name"] == "trace.trial"
        ]
        assert trials and all(r["wall_s"] > 0 for r in trials)

    def test_metrics_flag_prints_summary(self, telemetry_run, capsys):
        # Re-run with --metrics only (no telemetry) and capture stdout.
        exit_code = main(["table2", "--scale", "0.01", "--metrics"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "counters:" in captured.out
        assert "phy.packets_sampled" in captured.out


class TestStatsCli:
    def test_stats_summarizes_telemetry(self, telemetry_run, capsys):
        _, path = telemetry_run
        assert main(["stats", str(path)]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out
        assert "packets offered" in captured.out

    def test_stats_without_target_errors(self, capsys):
        assert main(["stats"]) == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err

    def test_stats_rows_do_not_depend_on_jobs(self, tmp_path, capsys):
        """One ``table2`` row either way: trial spans are not rows, and
        the pooled run's row carries the merged trials' counters."""
        rows = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            argv = ["table2", "--scale", "0.01", "--jobs", str(jobs),
                    "--telemetry", str(path)]
            assert main(argv) == 0
            assert main(["stats", str(path)]) == 0
            # (name, events, packets) of each row; wall-clock varies.
            rows[jobs] = [
                (fields[0], fields[2], fields[3])
                for fields in map(str.split, capsys.readouterr().out.splitlines())
                if len(fields) > 3 and fields[1].startswith("wall=")
            ]
        assert rows[1] == [("table2", "events=0", "packets=14071")]
        assert rows[2] == rows[1]
        summary = summarize_telemetry(tmp_path / "jobs2.jsonl")
        assert summary.experiment_rows() == [("table2", 0, 14071)]


class TestDesTelemetry:
    def test_des_run_writes_only_spans_and_metrics(self, tmp_path, capsys):
        """A discrete-event run records no per-event stream: its events
        are one counter, read off the experiment span by ``stats``."""
        path = tmp_path / "mac.jsonl"
        assert main(["mac", "--scale", "0.05", "--telemetry", str(path)]) == 0
        _, records = obs.read_telemetry(path)
        assert {r["type"] for r in records} == {"span", "metrics"}
        (span,) = [r for r in records
                   if r["type"] == "span" and r["name"] == "engine.mac"]
        events = span["counters"]["sim.events_fired"]
        assert events > 0
        (metrics_record,) = [r for r in records if r["type"] == "metrics"]
        assert list(metrics_record["metrics"]) == ["counters"]
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"events={events} " in out
        assert f"{events} events fired" in out


class TestSeedStabilityUnderObservation:
    def test_observation_does_not_change_results(self):
        """Instrumentation must be purely observational: the same seed
        gives bit-identical results with and without a session."""
        from repro.experiments import baseline

        bare = baseline.run(scale=0.01, seed=7)
        with obs.session():
            observed = baseline.run(scale=0.01, seed=7)
        assert observed.aggregate_ber == bare.aggregate_ber
        assert observed.worst_loss_percent == bare.worst_loss_percent
        assert [r.body_bits_received for r in observed.rows] == [
            r.body_bits_received for r in bare.rows
        ]
