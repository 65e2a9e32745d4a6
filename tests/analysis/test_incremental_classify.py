"""Incremental classification == batch, for every chunking.

The streaming service's correctness rests on one property: verdicts
depend only on their own record's bytes, so feeding a trace through
:class:`IncrementalClassifier` in chunks of 1, 7, or all-at-once is
byte-identical to :func:`classify_trace`.  These tests pin that for
record lists and columnar traces, for the damaged rows'
syndromes as well as the verdict columns, and for the degenerate
shapes an ingest server sees routinely: zero-record traces and
zero-length final chunks.
"""

import io

import numpy as np
import pytest

from repro.analysis.classify import (
    CLASS_ORDER,
    IncrementalClassifier,
    PacketClass,
    classify_trace,
    verdict_row_bytes,
)
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_START
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import (
    ColumnarTrace,
    read_columnar,
    read_columnar_buffer,
    write_columnar,
)
from repro.trace.persist import load_trace, save_trace
from repro.trace.records import PacketRecord

STATUS = ModemRxStatus(29, 3, 15, 0)
WEAK_STATUS = ModemRxStatus(6, 3, 8, 1)


@pytest.fixture
def mixed_records(factory) -> list:
    """A small trace's rows, with every damage shape the classifier
    knows."""
    return [
        PacketRecord.from_bytes(factory.build(0), STATUS),
        PacketRecord.from_bytes(factory.build(1)[:700], WEAK_STATUS),
        PacketRecord.from_bytes(
            flip_bits(
                factory.build(2),
                np.array([BODY_START * 8 + 3, BODY_START * 8 + 11]),
            ),
            WEAK_STATUS,
        ),
        PacketRecord.from_bytes(
            flip_bits(factory.build(3), np.array([30])), WEAK_STATUS
        ),
        PacketRecord.from_bytes(factory.build(4), STATUS),
        PacketRecord.from_bytes(b"\x55" * 64, WEAK_STATUS),  # outsider
        PacketRecord.from_bytes(factory.build(5), STATUS),
    ]


@pytest.fixture
def mixed_trace(spec, mixed_records) -> ColumnarTrace:
    return ColumnarTrace.from_records(mixed_records, "mixed", spec, 10)


def _assert_packets_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.packet_class is b.packet_class
        assert a.sequence == b.sequence
        assert a.wrapper_damaged == b.wrapper_damaged
        assert a.body_bits_damaged == b.body_bits_damaged
        assert a.truncated_bytes_missing == b.truncated_bytes_missing
        assert (a.syndrome is None) == (b.syndrome is None)
        if a.syndrome is not None:
            np.testing.assert_array_equal(
                a.syndrome.body_bit_positions, b.syndrome.body_bit_positions
            )


def _columns_equal(left: dict, right: dict):
    assert left.keys() == right.keys()
    for key in left:
        np.testing.assert_array_equal(left[key], right[key])


def _assert_matches_batch(clf, trace, batch):
    _columns_equal(clf.verdict_columns(), batch.columns)
    assert clf.syndromes.keys() == batch.syndromes.keys()
    _assert_packets_equal(clf.finish(trace).packets, batch.packets)


class TestChunkedEqualsBatch:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_v1_records(self, mixed_trace, mixed_records, chunk):
        batch = classify_trace(mixed_trace)
        clf = IncrementalClassifier(
            mixed_trace.spec, mixed_trace.packets_sent
        )
        records = mixed_records
        size = chunk or len(records)
        for start in range(0, len(records), size):
            clf.feed_records(records[start : start + size])
        _assert_matches_batch(clf, mixed_trace, batch)
        assert dict(clf.class_counts) == {
            k: v for k, v in batch.class_counts().items() if v
        }

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_columnar(self, mixed_trace, chunk):
        columnar = mixed_trace
        batch = classify_trace(columnar)
        clf = IncrementalClassifier(columnar.spec, columnar.packets_sent)
        n = columnar.packets_received
        size = chunk or n
        for start in range(0, n, size):
            clf.feed_columnar(columnar, start, min(start + size, n))
        _assert_matches_batch(clf, columnar, batch)
        assert clf.count_summary() == {
            cls.value: count for cls, count in batch.class_counts().items()
        }

    def test_v1_equals_columnar(self, mixed_trace, mixed_records):
        a = IncrementalClassifier(mixed_trace.spec, 10)
        a.feed_records(mixed_records)
        b = IncrementalClassifier(mixed_trace.spec, 10)
        b.feed(mixed_trace)
        _columns_equal(a.verdict_columns(), b.verdict_columns())
        assert a.syndromes.keys() == b.syndromes.keys()

    def test_records_entry_does_not_feed_columns(
        self, mixed_trace, mixed_records, monkeypatch
    ):
        """feed_records runs the loop itself: a wrapper counting rows in
        both entry points must see each row once."""

        def refuse(*args, **kwargs):
            raise AssertionError("feed_records went through feed_columnar")

        clf = IncrementalClassifier(mixed_trace.spec, 10)
        monkeypatch.setattr(clf, "feed_columnar", refuse)
        clf.feed_records(mixed_records)
        assert clf.records_seen == mixed_trace.packets_received

    def test_syndromes_keyed_by_fed_row(self, mixed_trace):
        """Damaged rows keep their syndrome under their row index, so a
        classified trace can hand it back without re-extracting it."""
        classified = classify_trace(mixed_trace)
        damaged = classified.rows(
            PacketClass.BODY_DAMAGED, PacketClass.WRAPPER_DAMAGED
        ).tolist()
        assert damaged and set(damaged) <= classified.syndromes.keys()
        for index, syndrome in classified.syndromes.items():
            assert syndrome.sequence == classified.columns["sequences"][index]

    def test_wlt2_round_trip_stream(self, mixed_trace, tmp_path):
        """A trace streamed back from its .wlt2 encoding classifies
        identically to the in-memory original."""
        path = tmp_path / "mixed.wlt2"
        with open(path, "wb") as stream:
            write_columnar(mixed_trace, stream)
        loaded = read_columnar(path)
        batch = classify_trace(mixed_trace)
        clf = IncrementalClassifier(loaded.spec, loaded.packets_sent)
        for start in range(0, loaded.packets_received, 2):
            clf.feed_columnar(loaded, start, start + 2)
        _assert_matches_batch(clf, loaded, batch)


class TestDigestStability:
    def test_row_bytes_concatenation_stable(self, mixed_trace):
        """rows(chunk A) + rows(chunk B) == rows(whole) — the property
        that makes the server's running digest chunking-independent."""
        columnar = mixed_trace
        whole = IncrementalClassifier(columnar.spec, 10)
        whole.feed(columnar)
        whole_bytes = verdict_row_bytes(whole.verdict_columns())
        streamed = b""
        for start in range(0, columnar.packets_received, 3):
            clf = IncrementalClassifier(columnar.spec, 10)
            clf.feed_columnar(columnar, start, start + 3)
            streamed += verdict_row_bytes(clf.verdict_columns())
        assert streamed == whole_bytes


class TestDegenerateShapes:
    def test_zero_record_v1(self, spec, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_trace(ColumnarTrace.from_records([], "empty", spec, 0), path)
        classified = classify_trace(load_trace(path))
        assert classified.packets == []
        counts = classified.class_counts()
        assert set(counts) == set(CLASS_ORDER)
        assert sum(counts.values()) == 0

    def test_zero_record_columnar(self, spec):
        trace = ColumnarTrace.from_records([], "empty", spec, 0)
        assert trace.packets_received == 0
        classified = classify_trace(trace)
        assert classified.packets == []

    def test_zero_record_wlt2_round_trip(self, spec, tmp_path):
        trace = ColumnarTrace.from_records([], "empty", spec, 0)
        path = tmp_path / "empty.wlt2"
        with open(path, "wb") as stream:
            write_columnar(trace, stream)
        loaded = read_columnar(path)
        assert classify_trace(loaded).packets == []

    @pytest.mark.parametrize("records_first", [True, False])
    def test_zero_length_final_chunk(
        self, mixed_trace, mixed_records, records_first
    ):
        """Feeding an empty tail chunk (a client flushing at EOF)
        through either entry point, after a trace fed through either,
        neither raises nor perturbs the verdicts."""
        columnar = mixed_trace
        n = columnar.packets_received
        clf = IncrementalClassifier(columnar.spec, 10)
        if records_first:
            clf.feed_records(mixed_records)
        else:
            clf.feed_columnar(columnar, 0, n)
        clf.feed_columnar(columnar, n, n)  # empty tail
        clf.feed_records([])  # and an empty record list
        assert clf.records_seen == n
        assert clf.syndromes.keys() == classify_trace(columnar).syndromes.keys()
        reference = IncrementalClassifier(columnar.spec, 10)
        reference.feed(columnar)
        _columns_equal(clf.verdict_columns(), reference.verdict_columns())

    def test_empty_classifier_columns(self, spec):
        clf = IncrementalClassifier(spec, 0)
        columns = clf.verdict_columns()
        assert all(len(column) == 0 for column in columns.values())
        assert verdict_row_bytes(columns) == b""

    def test_empty_slice_encodes(self, mixed_trace):
        """An empty columnar slice survives an encode/decode round
        trip (the wire shape of an idle session's only chunk)."""
        empty = mixed_trace.slice(2, 2)
        assert empty.packets_received == 0
        buffer = io.BytesIO()
        write_columnar(empty, buffer)
        decoded = read_columnar_buffer(buffer.getvalue(), origin="<test>")
        assert classify_trace(decoded).packets == []


class TestBoundedMemory:
    def test_a_long_trial_is_classified_one_chunk_at_a_time(self):
        """Classifying a 50k-row simulated trial never builds its 51 MiB
        of frames at once: the traced peak stays at a few chunks' worth,
        and the trace is still unbuilt afterwards."""
        import tracemalloc

        from repro.trace.trial import TrialConfig, run_fast_trial

        trace = run_fast_trial(
            TrialConfig(name="long", packets=50_000, mean_level=20.0, seed=3)
        ).trace
        frame_bytes = int(trace.lengths.sum())
        assert frame_bytes > 50 * 2**20
        tracemalloc.start()
        try:
            classified = classify_trace(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert callable(trace._payload)
        assert sum(classified.class_counts().values()) == trace.packets_received
