"""Registry semantics: counters, labels, snapshots, disabled no-ops."""

from __future__ import annotations

import json

from repro.obs.metrics import (
    Metrics,
    NULL_COUNTER,
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

    def test_empty_worker_state_is_noop(self):
        parent = Metrics()
        parent.counter("c").inc(3)
        parent.merge_state(Metrics().export_state())
        assert parent.counters_snapshot() == {"c": 3}

    def test_state_is_pickle_friendly(self):
        import pickle

        worker = Metrics()
        worker.counter("c").inc()
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
        assert metrics.counter("y", reason="z") is NULL_COUNTER

    def test_null_mutators_are_noops(self):
        metrics = Metrics(enabled=False)
        metrics.counter("x").inc(5)
        NULL_COUNTER.inc()
        assert NULL_COUNTER.value == 0

    def test_disabled_snapshot_empty(self):
        metrics = Metrics(enabled=False)
        metrics.counter("x").inc()
        assert metrics.snapshot() == {"counters": {}}


class TestSnapshot:
    def test_json_serializable_and_sorted(self):
        metrics = Metrics()
        metrics.counter("b").inc(2)
        metrics.counter("a").inc(1)
        snapshot = metrics.snapshot()
        json.dumps(snapshot)  # must not raise
        assert list(snapshot["counters"]) == ["a", "b"]

    def test_snapshot_and_export_hold_only_counters(self):
        """The counter is the registry's one instrument: the ``metrics``
        record and a worker's exported state have no other section."""
        metrics = Metrics()
        metrics.counter("mac.backoff_slots", protocol="csma_ca").inc(3)
        metrics.counter("sim.events_fired").inc()
        assert metrics.snapshot() == {"counters": {
            "mac.backoff_slots{protocol=csma_ca}": 3, "sim.events_fired": 1,
        }}
        assert list(metrics.export_state()) == ["counters"]

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
        metrics.counter("mac.backoff_slots", protocol="csma_cd").inc(7)
        text = render_snapshot(metrics.snapshot())
        assert text.splitlines() == [
            "counters:",
            "  mac.backoff_slots{protocol=csma_cd}  7",
            "  phy.missed                           2",
        ]

    def test_empty_snapshot(self):
        assert "no metrics" in render_snapshot(Metrics().snapshot())
