"""Traces across pool boundaries: pool results travel by pickle."""

import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.parallel import Task, run_tasks
from repro.trace.columnar import ColumnarTrace
from repro.trace.trial import TrialConfig, run_fast_trial

COLUMNS = (
    "times", "levels", "silences", "qualities", "antennas", "offsets",
    "lengths",
)


@pytest.fixture(scope="module")
def trace():
    return run_fast_trial(
        TrialConfig(name="handoff", packets=300, mean_level=10.0, seed=21)
    ).trace


@pytest.fixture(scope="module")
def classified(trace):
    return classify_trace(trace)


def _records(trace) -> list:
    return [trace.record(index) for index in range(trace.packets_received)]


def _assert_same_records(original, loaded):
    assert _records(loaded) == _records(original)


class TestPickleHandoff:
    def test_unread_trial_pickles_its_frame_builder(self):
        """A simulated trial whose frames nothing has read ships the
        recipe for its frames, not the frames themselves."""
        trace = run_fast_trial(
            TrialConfig(name="clean", packets=20_000, mean_level=20.0, seed=5)
        ).trace
        shipped = pickle.dumps(trace)
        clone = pickle.loads(shipped)
        assert clone.payload.nbytes > 10 * len(shipped)
        assert len(shipped) < 2_000_000
        np.testing.assert_array_equal(clone.payload, trace.payload)
        for key in COLUMNS:
            original = getattr(trace, key)
            copied = getattr(clone, key)
            assert copied.dtype == original.dtype
            assert copied.tobytes() == original.tobytes()
        assert (clone.name, clone.spec, clone.packets_sent) == (
            trace.name, trace.spec, trace.packets_sent
        )

    def test_classified_trace_round_trips(self, classified):
        resolved = pickle.loads(pickle.dumps(classified))
        assert len(resolved.packets) == len(classified.packets)
        for a, b in zip(classified.packets, resolved.packets):
            assert a.packet_class == b.packet_class
            assert a.sequence == b.sequence
            assert a.wrapper_damaged == b.wrapper_damaged
            assert a.body_bits_damaged == b.body_bits_damaged
            assert a.truncated_bytes_missing == b.truncated_bytes_missing
            assert (a.syndrome is None) == (b.syndrome is None)
            if a.syndrome is not None:
                assert repr(a.syndrome) == repr(b.syndrome)
        assert repr(metrics_from_classified(classified)) == repr(
            metrics_from_classified(resolved)
        )


# ----------------------------------------------------------------------
# Traces returned by pool workers
# ----------------------------------------------------------------------
def _trial(seed: int) -> ColumnarTrace:
    return run_fast_trial(
        TrialConfig(name="pool", packets=60, mean_level=10.0, seed=seed)
    ).trace


def _raise(seed: int):
    raise RuntimeError("task failed")


class TestMerge:
    def test_merge_concatenates_shards(self):
        """The merge step for traces that came back from pool workers:
        concatenate them (offsets rebased, ``packets_sent`` summed)."""
        tasks = [Task(f"t{i}", _trial, {"seed": 7}) for i in range(2)]
        pooled = [result.value for result in run_tasks(tasks, jobs=2)]
        single = _trial(7)
        merged = ColumnarTrace.concat(pooled, name="merged")
        assert merged.name == "merged"
        assert merged.packets_received == 2 * single.packets_received
        assert merged.packets_sent == 2 * single.packets_sent
        assert _records(merged) == _records(single) * 2


class TestPoolHandoffFiles:
    """A pool run leaves nothing behind in the temp dir."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        """A private system temp dir, so the listing sees only this run."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_resolved_run_leaves_nothing(self, temp_root):
        tasks = [Task(f"t{i}", _trial, {"seed": i}) for i in range(3)]
        results = run_tasks(tasks, jobs=2)
        assert all(isinstance(r.value, ColumnarTrace) for r in results)
        for seed, result in enumerate(results):
            _assert_same_records(_trial(seed), result.value)
        assert os.listdir(temp_root) == []

    def test_failed_run_leaves_nothing(self, temp_root):
        tasks = [
            Task("a", _trial, {"seed": 1}),
            Task("b", _trial, {"seed": 2}),
            Task("boom", _raise, {"seed": 3}),
        ]
        with pytest.raises(RuntimeError, match="task failed"):
            run_tasks(tasks, jobs=2)
        assert os.listdir(temp_root) == []
