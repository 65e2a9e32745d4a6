"""The columnar handoff across pool boundaries."""

import os
import pickle
import tempfile

import pytest

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.parallel import Task, run_tasks
from repro.parallel.handoff import (
    PortableClassifiedTrace,
    export_classified,
    export_trace,
    resolve_portable,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.trial import TrialConfig, run_fast_trial


@pytest.fixture(scope="module")
def trace():
    return run_fast_trial(
        TrialConfig(name="handoff", packets=300, mean_level=10.0, seed=21)
    ).trace


@pytest.fixture(scope="module")
def classified(trace):
    return classify_trace(trace)


def _assert_same_records(original, loaded):
    assert loaded.packets_received == len(original.records)
    for a, b in zip(original.records, loaded.records):
        assert bytes(a.data) == bytes(b.data)
        assert a.time == b.time
        assert a.status.signal_level == b.status.signal_level


class TestTraceHandle:
    def test_roundtrip(self, trace):
        handle = export_trace(trace)
        loaded = handle.load()
        assert isinstance(loaded, ColumnarTrace)
        _assert_same_records(trace, loaded)

    def test_handle_survives_pickle(self, trace):
        """The whole point: the handle crosses the pool boundary as a
        pickle of constant size."""
        handle = pickle.loads(pickle.dumps(export_trace(trace)))
        _assert_same_records(trace, handle.load())

    def test_file_handle_pickles_small(self, trace):
        handle = export_trace(trace)
        try:
            assert len(pickle.dumps(handle)) < 500
        finally:
            handle.release()

    def test_file_consumed_on_load(self, trace, tmp_path):
        handle = export_trace(trace, directory=tmp_path)
        location = handle.location
        assert os.path.exists(location)
        loaded = handle.load()
        assert not os.path.exists(location)  # unlinked once mapped
        _assert_same_records(trace, loaded)  # mapping stays valid

    def test_release_discards(self, trace, tmp_path):
        handle = export_trace(trace, directory=tmp_path)
        handle.release()
        assert not os.path.exists(handle.location)
        handle.release()  # idempotent


class TestPortableClassified:
    def test_resolve_equivalent(self, classified):
        portable = export_classified(classified)
        resolved = pickle.loads(pickle.dumps(portable)).resolve()
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

    def test_resolve_portable_protocol(self, classified):
        portable = export_classified(classified)
        assert isinstance(portable, PortableClassifiedTrace)
        resolved = resolve_portable(portable)
        assert resolved.__class__.__name__ == "ClassifiedTrace"

    def test_resolve_portable_passthrough(self):
        sentinel = object()
        assert resolve_portable(sentinel) is sentinel
        assert resolve_portable(None) is None


class TestMerge:
    def test_merge_concatenates_shards(self, trace):
        """The merge step for a trace split across workers: concatenate
        the loaded shards (offsets rebased, ``packets_sent`` summed)."""
        handles = [export_trace(trace), export_trace(trace)]
        merged = ColumnarTrace.concat(
            [handle.load() for handle in handles], name="merged"
        )
        assert merged.name == "merged"
        assert merged.packets_received == 2 * len(trace.records)
        assert merged.packets_sent == 2 * trace.packets_sent
        doubled = list(trace.records) + list(trace.records)
        for view, record in zip(merged.records, doubled):
            assert bytes(view.data) == bytes(record.data)


# ----------------------------------------------------------------------
# Pool runs own their handoff files
# ----------------------------------------------------------------------
def _exported_trial(seed: int):
    return export_trace(
        run_fast_trial(
            TrialConfig(name="pool", packets=60, mean_level=10.0, seed=seed)
        ).trace
    )


def _raise(seed: int):
    raise RuntimeError("task failed")


def _handoff_files(root) -> list:
    return [
        name
        for _dir, _subdirs, names in os.walk(root)
        for name in names
        if name.startswith("repro-") and name.endswith(".wlt2")
    ]


class TestPoolHandoffFiles:
    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        """A private system temp dir, so the count sees only this run."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_resolved_run_leaves_nothing(self, temp_root):
        tasks = [Task(f"t{i}", _exported_trial, {"seed": i}) for i in range(3)]
        results = run_tasks(tasks, jobs=2)
        assert all(isinstance(r.value, ColumnarTrace) for r in results)
        assert _handoff_files(temp_root) == []
        assert os.listdir(temp_root) == []  # the run's directory is gone

    def test_failed_run_leaves_nothing(self, temp_root):
        """One raising task must not strand the handles the others
        already exported."""
        tasks = [
            Task("a", _exported_trial, {"seed": 1}),
            Task("b", _exported_trial, {"seed": 2}),
            Task("boom", _raise, {"seed": 3}),
        ]
        with pytest.raises(RuntimeError, match="task failed"):
            run_tasks(tasks, jobs=2)
        assert _handoff_files(temp_root) == []
        assert os.listdir(temp_root) == []
