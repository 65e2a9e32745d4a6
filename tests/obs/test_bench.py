"""The benchmark regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    DEFAULT_TOLERANCE,
    TimingDelta,
    diff_stages,
    load_snapshot,
    main_diff,
    render_diff,
)


def _snapshot(tmp_path, name: str, stages: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "stages": stages}))
    return str(path)


class TestSnapshots:
    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "stages": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)


class TestDiff:
    def test_compares_only_wall_s_keys(self):
        deltas, uncompared = diff_stages(
            {"stages": {"s": {"bulk_wall_s": 0.1, "packets": 100,
                              "speedup_vs_scalar": 3.0}}},
            {"stages": {"s": {"bulk_wall_s": 0.2, "packets": 200,
                              "speedup_vs_scalar": 1.0}}},
        )
        assert [(d.stage, d.key) for d in deltas] == [("s", "bulk_wall_s")]
        assert uncompared == []

    def test_compares_throughput_keys_too(self):
        deltas, uncompared = diff_stages(
            {"stages": {"s": {"bulk_wall_s": 0.1,
                              "bulk_packets_per_s": 100_000,
                              "scalar_records_per_s": 5_000,
                              "speedup_vs_scalar": 3.0}}},
            {"stages": {"s": {"bulk_wall_s": 0.1,
                              "bulk_packets_per_s": 90_000,
                              "scalar_records_per_s": 5_000,
                              "speedup_vs_scalar": 3.0}}},
        )
        assert [(d.stage, d.key) for d in deltas] == [
            ("s", "bulk_packets_per_s"),
            ("s", "bulk_wall_s"),
            ("s", "scalar_records_per_s"),
        ]
        assert uncompared == []

    def test_regression_detection_respects_tolerance(self):
        delta = TimingDelta("s", "bulk_wall_s", 0.1, 0.12)
        assert not delta.regressed(0.25)  # 1.2x within 25%
        assert delta.regressed(0.1)

    def test_throughput_regresses_downward(self):
        delta = TimingDelta("s", "bulk_packets_per_s", 100_000, 80_000)
        assert delta.kind == "throughput"
        assert not delta.regressed(0.25)  # -20% within 25%
        assert delta.regressed(0.1)
        # A throughput *increase* is never a regression ...
        faster = TimingDelta("s", "bulk_packets_per_s", 100_000, 200_000)
        assert not faster.regressed(0.1)
        assert faster.improved(0.1)
        # ... while the same ratio on a wall key is one.
        slower = TimingDelta("s", "bulk_wall_s", 0.1, 0.2)
        assert slower.kind == "wall"
        assert slower.regressed(0.25)

    def test_one_sided_stages_reported_not_gating(self):
        deltas, uncompared = diff_stages(
            {"stages": {"old": {"bulk_wall_s": 0.1}}},
            {"stages": {"new": {"bulk_wall_s": 0.1}}},
        )
        assert deltas == []
        assert len(uncompared) == 2
        assert any("baseline only" in note for note in uncompared)
        assert any("no baseline" in note for note in uncompared)

    def test_zero_baseline_never_divides(self):
        delta = TimingDelta("s", "bulk_wall_s", 0.0, 1.0)
        assert delta.ratio == 1.0
        assert not delta.regressed(DEFAULT_TOLERANCE)

    def test_render_flags_regressions(self):
        deltas = [
            TimingDelta("s", "bulk_wall_s", 0.1, 0.5),
            TimingDelta("s", "scalar_wall_s", 0.1, 0.05),
        ]
        text = render_diff(deltas, [], tolerance=0.25)
        assert "REGRESSION" in text
        assert "improved" in text
        assert "1 regression" in text

    def test_render_throughput_rows_use_rate_units(self):
        deltas = [
            TimingDelta("s", "bulk_packets_per_s", 100_000, 50_000),
            TimingDelta("s", "bulk_wall_s", 0.1, 0.1),
        ]
        text = render_diff(deltas, [], tolerance=0.25)
        assert "/s" in text
        assert "REGRESSION" in text  # the halved throughput
        assert "1 regression" in text

    def test_gate_fails_on_throughput_drop(self, tmp_path):
        baseline = _snapshot(
            tmp_path, "base.json", {"s": {"bulk_packets_per_s": 100_000}}
        )
        current = _snapshot(
            tmp_path, "cur.json", {"s": {"bulk_packets_per_s": 50_000}}
        )
        assert main_diff(baseline, current, tolerance=0.25) == 1
        assert main_diff(baseline, current, tolerance=0.6) == 0


class TestGate:
    def test_exit_zero_within_tolerance(self, tmp_path, capsys):
        baseline = _snapshot(tmp_path, "base.json",
                             {"s": {"bulk_wall_s": 0.1}})
        current = _snapshot(tmp_path, "cur.json",
                            {"s": {"bulk_wall_s": 0.11}})
        assert main_diff(baseline, current, tolerance=0.25) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        baseline = _snapshot(tmp_path, "base.json",
                             {"s": {"bulk_wall_s": 0.1}})
        current = _snapshot(tmp_path, "cur.json",
                            {"s": {"bulk_wall_s": 0.2}})
        assert main_diff(baseline, current, tolerance=0.25) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        baseline = _snapshot(tmp_path, "base.json",
                             {"s": {"bulk_wall_s": 0.1}})
        current = _snapshot(tmp_path, "cur.json",
                            {"s": {"bulk_wall_s": 0.4}})
        assert main(["bench", "diff", baseline, current]) == 1
        assert main(
            ["bench", "diff", baseline, current, "--tolerance", "5.0"]
        ) == 0


class TestUnknownAndMalformedStages:
    """A current snapshot may carry stages the committed baseline has
    never seen (a freshly added benchmark), and hand-edited snapshots
    may carry junk payloads.  Neither must hard-fail the gate."""

    def test_new_stage_in_current_exits_zero(self, tmp_path, capsys):
        baseline = _snapshot(tmp_path, "base.json",
                             {"old": {"bulk_wall_s": 0.1}})
        current = _snapshot(tmp_path, "cur.json",
                            {"old": {"bulk_wall_s": 0.1},
                             "serve_ingest": {"ingest_wall_s": 0.5}})
        assert main_diff(baseline, current) == 0
        out = capsys.readouterr().out
        assert "serve_ingest" in out
        assert "new (no baseline)" in out

    def test_new_stage_never_compares(self):
        deltas, uncompared = diff_stages(
            {"stages": {}},
            {"stages": {"serve_ingest": {"ingest_wall_s": 0.5}}},
        )
        assert deltas == []
        assert any("serve_ingest" in note for note in uncompared)

    def test_malformed_stage_payload_warns_not_crashes(self, tmp_path,
                                                       capsys):
        baseline = _snapshot(tmp_path, "base.json",
                             {"s": {"bulk_wall_s": 0.1},
                              "junk": "not-an-object"})
        current = _snapshot(tmp_path, "cur.json",
                            {"s": {"bulk_wall_s": 0.1},
                             "junk": [1, 2, 3]})
        assert main_diff(baseline, current) == 0
        out = capsys.readouterr().out
        assert "malformed payload" in out

    def test_malformed_one_side_only(self):
        deltas, uncompared = diff_stages(
            {"stages": {"s": {"bulk_wall_s": 0.1}}},
            {"stages": {"s": None}},
        )
        assert deltas == []
        assert any("malformed" in note and "current" in note
                   for note in uncompared)

    def test_non_object_stages_table(self):
        deltas, uncompared = diff_stages(
            {"stages": ["oops"]}, {"stages": {"s": {"bulk_wall_s": 0.1}}}
        )
        assert any("not an object" in note for note in uncompared)
        assert deltas == []

    def test_non_object_snapshot_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_snapshot(path)
