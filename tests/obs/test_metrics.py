"""Registry semantics: instruments, labels, snapshots, disabled no-ops."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    Metrics,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    render_snapshot,
    scoped_name,
)


class TestScopedName:
    def test_plain_name_unchanged(self):
        assert scoped_name("phy.bits_flipped") == "phy.bits_flipped"

    def test_labels_folded_sorted(self):
        key = scoped_name("link.drops", {"reason": "mac_collision"})
        assert key == "link.drops{reason=mac_collision}"
        multi = scoped_name("m", {"b": "2", "a": "1"})
        assert multi == "m{a=1,b=2}"


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        metrics = Metrics()
        counter = metrics.counter("phy.missed")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_same_key_same_instrument(self):
        metrics = Metrics()
        a = metrics.counter("mac.attempts", protocol="csma_ca")
        b = metrics.counter("mac.attempts", protocol="csma_ca")
        assert a is b
        c = metrics.counter("mac.attempts", protocol="csma_cd")
        assert c is not a


class TestLabelledHandleCache:
    """Labelled counters are handed out from a cache keyed by the call's
    name and label items; the storage key stays ``name{k=v,...}``."""

    def test_label_order_does_not_matter(self):
        metrics = Metrics()
        first = metrics.counter("x", a="1", b="2")
        assert first is metrics.counter("x", b="2", a="1")
        assert first is metrics.counter("x", a="1", b="2")
        first.inc()
        assert metrics.counters_snapshot() == {"x{a=1,b=2}": 1}
        assert metrics.counter("x", a="1") is not metrics.counter("x", b="1")

    def test_reset_drops_cached_handles(self):
        metrics = Metrics()
        old = metrics.counter("link.drops", reason="missed")
        old.inc(4)
        metrics.reset()
        fresh = metrics.counter("link.drops", reason="missed")
        assert fresh is not old
        assert fresh.value == 0
        old.inc(3)
        assert metrics.counters_snapshot() == {"link.drops{reason=missed}": 0}
        assert metrics.snapshot()["counters"] == {"link.drops{reason=missed}": 0}

    def test_merge_adds_into_the_cached_instrument(self):
        parent, worker = Metrics(), Metrics()
        handle = parent.counter("mac.attempts", protocol="csma_ca")
        handle.inc(2)
        worker.counter("mac.attempts", protocol="csma_ca").inc(5)
        worker.counter("link.drops", reason="missed").inc(1)
        parent.merge_state(worker.export_state())
        assert handle.value == 7
        assert parent.counter("mac.attempts", protocol="csma_ca") is handle
        # A key first created by the merge is the one later handed out.
        merged = parent.counter("link.drops", reason="missed")
        assert merged.value == 1
        parent.merge_state(worker.export_state())
        assert merged.value == 2

    def test_disabled_registry_hands_out_the_null_counter(self):
        metrics = Metrics(enabled=False)
        assert metrics.counter("x", a="1") is NULL_COUNTER
        assert metrics.counter("x") is NULL_COUNTER

    def test_snapshot_and_export_keys_unchanged(self):
        metrics = Metrics()
        metrics.counter("phy.missed").inc()
        metrics.counter("m", b="2", a="1").inc(2)
        metrics.counter("link.drops", reason="mac_collision").inc(3)
        metrics.counter("rng.calls", stream="phy").inc(4)
        metrics.counter("m", a="1", b="2").inc(5)
        snapshot = json.dumps(metrics.snapshot()["counters"])
        assert snapshot == (
            '{"link.drops{reason=mac_collision}": 3, "m{a=1,b=2}": 7, '
            '"phy.missed": 1, "rng.calls{stream=phy}": 4}'
        )
        exported = metrics.export_state()["counters"]
        assert json.dumps(exported, sort_keys=True) == snapshot


class TestGauge:
    def test_last_write_wins(self):
        gauge = Metrics().gauge("sim.queue_depth")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_running_moments(self):
        histogram = Metrics().histogram("mac.backoff_slots")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.stddev == pytest.approx(1.118, abs=1e-3)

    def test_empty_summary(self):
        summary = Metrics().histogram("h").summary()
        assert summary["count"] == 0
        assert summary["min"] is None


class TestMergeableState:
    """export_state/merge_state: how worker registries fold into the
    parent's after a parallel run."""

    def test_counters_add(self):
        parent, worker = Metrics(), Metrics()
        parent.counter("trace.packets_offered").inc(10)
        worker.counter("trace.packets_offered").inc(5)
        worker.counter("link.drops", reason="missed").inc(2)
        parent.merge_state(worker.export_state())
        assert parent.counter("trace.packets_offered").value == 15
        assert parent.counter("link.drops", reason="missed").value == 2

    def test_histogram_merge_is_exact(self):
        parent, worker = Metrics(), Metrics()
        for value in (1.0, 5.0):
            parent.histogram("h").record(value)
        for value in (2.0, 3.0, 10.0):
            worker.histogram("h").record(value)
        parent.merge_state(worker.export_state())
        merged = parent.histogram("h")
        reference = Metrics().histogram("h")
        for value in (1.0, 5.0, 2.0, 3.0, 10.0):
            reference.record(value)
        assert merged.count == reference.count
        assert merged.total == reference.total
        assert merged.minimum == reference.minimum
        assert merged.maximum == reference.maximum
        assert merged.stddev == pytest.approx(reference.stddev)

    def test_empty_worker_state_is_noop(self):
        parent = Metrics()
        parent.counter("c").inc(3)
        parent.merge_state(Metrics().export_state())
        assert parent.counter("c").value == 3
        assert parent.histogram("h").count == 0

    def test_gauges_last_write_wins(self):
        parent, worker = Metrics(), Metrics()
        parent.gauge("g").set(1)
        worker.gauge("g").set(9)
        parent.merge_state(worker.export_state())
        assert parent.gauge("g").value == 9

    def test_state_is_pickle_friendly(self):
        import pickle

        worker = Metrics()
        worker.counter("c").inc()
        worker.histogram("h").record(2.0)
        state = pickle.loads(pickle.dumps(worker.export_state()))
        parent = Metrics()
        parent.merge_state(state)
        assert parent.counter("c").value == 1

    def test_disabled_registry_merge_is_noop(self):
        disabled = Metrics(enabled=False)
        worker = Metrics()
        worker.counter("c").inc(5)
        disabled.merge_state(worker.export_state())
        assert all(not section for section in disabled.snapshot().values())


class TestDisabledRegistry:
    def test_hands_out_shared_null_instruments(self):
        metrics = Metrics(enabled=False)
        assert metrics.counter("x") is NULL_COUNTER
        assert metrics.gauge("x") is NULL_GAUGE
        assert metrics.histogram("x") is NULL_HISTOGRAM

    def test_null_mutators_are_noops(self):
        metrics = Metrics(enabled=False)
        metrics.counter("x").inc(5)
        metrics.gauge("x").set(5)
        metrics.histogram("x").record(5)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_disabled_snapshot_empty(self):
        metrics = Metrics(enabled=False)
        metrics.counter("x").inc()
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert "timers" not in snapshot


class TestSnapshot:
    def test_json_serializable_and_sorted(self):
        metrics = Metrics()
        metrics.counter("b").inc(2)
        metrics.counter("a").inc(1)
        metrics.gauge("g").set(1.5)
        metrics.histogram("h").record(2.0)
        snapshot = metrics.snapshot()
        json.dumps(snapshot)  # must not raise
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_counters_snapshot_is_plain_dict(self):
        metrics = Metrics()
        metrics.counter("phy.missed").inc(4)
        assert metrics.counters_snapshot() == {"phy.missed": 4}

    def test_reset_forgets_everything(self):
        metrics = Metrics()
        metrics.counter("x").inc()
        metrics.reset()
        assert metrics.counters_snapshot() == {}


class TestRenderSnapshot:
    def test_mentions_each_section(self):
        metrics = Metrics()
        metrics.counter("phy.missed").inc(2)
        metrics.gauge("sim.queue_depth").set(3)
        metrics.histogram("mac.backoff_slots").record(1.0)
        text = render_snapshot(metrics.snapshot())
        assert "phy.missed" in text
        assert "sim.queue_depth" in text
        assert "mac.backoff_slots" in text

    def test_empty_snapshot(self):
        assert "no metrics" in render_snapshot(Metrics().snapshot())
