"""The v2 columnar store: writer, lazy views, and zero-copy analysis."""

import io

import numpy as np
import pytest

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.environment.geometry import Point
from repro.framing.testpacket import FRAME_BYTES
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.trace.columnar import (
    ColumnarTrace,
    ColumnarTraceWriter,
    is_columnar_file,
    read_columnar,
    read_columnar_buffer,
    write_columnar,
)
from repro.trace.persist import save_trace
from repro.trace.records import PacketRecord, TrialTrace
from repro.trace.trial import TrialConfig, run_fast_trial


@pytest.fixture(scope="module")
def clean_trace():
    return run_fast_trial(
        TrialConfig(name="col-clean", packets=400, mean_level=29.5, seed=11)
    ).trace


@pytest.fixture(scope="module")
def damaged_trace():
    """A trace whose records exercise truncation, damage, and the
    scalar fallback paths of classification."""
    return run_fast_trial(
        TrialConfig(
            name="col-damaged",
            packets=600,
            seed=12,
            tx_position=Point(0.0, 0.0),
            rx_position=Point(10.0, 5.0),
            interference=(
                SpreadSpectrumPhonePair(
                    handset_position=Point(11.0, 6.0),
                    base_position=Point(0.0, 30.0),
                    variant="att",
                    handset_level_at_1ft=23.5,
                ),
            ),
        )
    ).trace


def _column_view(trace):
    return ColumnarTrace.from_trace(trace)


class TestWriter:
    def test_streaming_append_matches_whole_trace_write(self, clean_trace):
        streamed = io.BytesIO()
        writer = ColumnarTraceWriter(
            streamed,
            name=clean_trace.name,
            spec=clean_trace.spec,
            packets_sent=clean_trace.packets_sent,
        )
        for record in clean_trace.records:
            writer.append(bytes(record.data), record.status, record.time)
        writer.close()
        whole = io.BytesIO()
        write_columnar(clean_trace, whole)
        assert streamed.getvalue() == whole.getvalue()

    def test_context_manager(self, clean_trace, tmp_path):
        path = tmp_path / "ctx.wlt2"
        with ColumnarTraceWriter(
            path, name="ctx", spec=clean_trace.spec, packets_sent=3
        ) as writer:
            for record in clean_trace.records[:3]:
                writer.append(bytes(record.data), record.status, record.time)
        loaded = read_columnar(path)
        assert loaded.packets_received == 3
        assert is_columnar_file(path)

    def test_write_from_columnar_identical(self, clean_trace, tmp_path):
        """Re-serializing a ColumnarTrace streams the payload wholesale
        and must produce the same bytes as serializing the original."""
        first = io.BytesIO()
        write_columnar(clean_trace, first)
        second = io.BytesIO()
        write_columnar(read_columnar_buffer(first.getvalue()), second)
        assert first.getvalue() == second.getvalue()


class TestLazyRecords:
    def test_length_and_iteration(self, clean_trace):
        col = _column_view(clean_trace)
        assert len(col.records) == len(clean_trace.records)
        for view, record in zip(col.records, clean_trace.records):
            assert view.time == record.time
            assert bytes(view.data) == bytes(record.data)

    def test_status_fields(self, clean_trace):
        col = _column_view(clean_trace)
        view = col.records[7]
        status = clean_trace.records[7].status
        assert view.status.signal_level == status.signal_level
        assert view.status.silence_level == status.silence_level
        assert view.status.signal_quality == status.signal_quality
        assert view.status.antenna == status.antenna

    def test_negative_index_and_slice(self, clean_trace):
        col = _column_view(clean_trace)
        assert bytes(col.records[-1].data) == bytes(
            clean_trace.records[-1].data
        )
        tail = col.records[-3:]
        assert len(tail) == 3
        assert bytes(tail[0].data) == bytes(clean_trace.records[-3].data)

    def test_out_of_range(self, clean_trace):
        col = _column_view(clean_trace)
        with pytest.raises(IndexError):
            col.records[len(col.records)]


class TestFrameMatrix:
    def test_full_matrix_matches_record_bytes(self, clean_trace):
        col = _column_view(clean_trace)
        full = np.nonzero(col.lengths == FRAME_BYTES)[0]
        matrix = col.frame_matrix(full, FRAME_BYTES)
        assert matrix.shape == (full.size, FRAME_BYTES)
        for row, index in zip(matrix[:5], full[:5].tolist()):
            assert row.tobytes() == bytes(clean_trace.records[index].data)

    def test_gather_path_on_mixed_lengths(self, damaged_trace):
        col = _column_view(damaged_trace)
        full = np.nonzero(col.lengths == FRAME_BYTES)[0]
        assert full.size < col.packets_received  # truncation happened
        matrix = col.frame_matrix(full, FRAME_BYTES)
        for row, index in zip(matrix, full.tolist()):
            assert row.tobytes() == bytes(damaged_trace.records[index].data)


class TestConcat:
    def test_concat_rebases_offsets(self, clean_trace, damaged_trace):
        a = _column_view(clean_trace)
        b = ColumnarTrace.from_trace(
            TrialTrace(
                name=clean_trace.name,
                spec=clean_trace.spec,
                packets_sent=damaged_trace.packets_sent,
                records=list(damaged_trace.records),
            )
        )
        merged = ColumnarTrace.concat([a, b])
        assert merged.packets_received == (
            a.packets_received + b.packets_received
        )
        assert merged.packets_sent == a.packets_sent + b.packets_sent
        combined = list(clean_trace.records) + list(damaged_trace.records)
        for view, record in zip(merged.records, combined):
            assert bytes(view.data) == bytes(record.data)
            assert view.time == record.time

    def test_concat_rejects_spec_mismatch(self, clean_trace):
        import dataclasses

        a = _column_view(clean_trace)
        other_spec = dataclasses.replace(
            clean_trace.spec, src_port=clean_trace.spec.src_port + 1
        )
        b = ColumnarTrace.from_trace(
            TrialTrace(name="other", spec=other_spec, packets_sent=0)
        )
        with pytest.raises(ValueError, match="spec"):
            ColumnarTrace.concat([a, b])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            ColumnarTrace.concat([])


class TestClassifyEquivalence:
    @pytest.mark.parametrize("fixture", ["clean_trace", "damaged_trace"])
    def test_verdicts_identical(self, fixture, request, tmp_path):
        trace = request.getfixturevalue(fixture)
        path = tmp_path / "trace.wlt2"
        write_columnar(trace, path)
        mem = classify_trace(trace)
        col = classify_trace(read_columnar(path))

        def verdicts(classified):
            return [
                (
                    p.packet_class,
                    p.sequence,
                    p.wrapper_damaged,
                    p.body_bits_damaged,
                    p.truncated_bytes_missing,
                    None if p.syndrome is None else repr(p.syndrome),
                )
                for p in classified.packets
            ]

        assert verdicts(mem) == verdicts(col)
        assert repr(metrics_from_classified(mem)) == repr(
            metrics_from_classified(col)
        )


class TestConversions:
    def test_from_trace_keeps_every_row(self, damaged_trace):
        """Columnarizing the trial's rows as plain records rebuilds the
        columns the trial assembled, payload layout included."""
        records = TrialTrace(
            name=damaged_trace.name,
            spec=damaged_trace.spec,
            packets_sent=damaged_trace.packets_sent,
            records=[
                PacketRecord.from_bytes(view.data, view.status, view.time)
                for view in damaged_trace.records
            ],
        )
        col = ColumnarTrace.from_trace(records)
        assert col.packets_sent == damaged_trace.packets_sent
        for key in ("times", "levels", "silences", "qualities", "antennas",
                    "offsets", "lengths", "payload"):
            np.testing.assert_array_equal(
                getattr(col, key), getattr(damaged_trace, key)
            )


class TestDeferredPayload:
    """A payload given as a builder runs on first read, once, and is
    kept; a write of frames nothing has read does not keep them."""

    def _deferred(self, trace, calls):
        def build():
            calls.append(1)
            return trace.payload.copy()

        return ColumnarTrace(
            name=trace.name,
            spec=trace.spec,
            packets_sent=trace.packets_sent,
            times=trace.times,
            levels=trace.levels,
            silences=trace.silences,
            qualities=trace.qualities,
            antennas=trace.antennas,
            offsets=trace.offsets,
            lengths=trace.lengths,
            payload=build,
        )

    def test_reads_build_once(self, damaged_trace):
        calls = []
        deferred = self._deferred(damaged_trace, calls)
        assert calls == []
        assert deferred.data(3) == damaged_trace.data(3)
        np.testing.assert_array_equal(deferred.payload, damaged_trace.payload)
        assert len(calls) == 1

    def test_writes_do_not_keep_frames(self, damaged_trace, tmp_path):
        calls = []
        deferred = self._deferred(damaged_trace, calls)
        first, second = io.BytesIO(), io.BytesIO()
        write_columnar(deferred, first)
        save_trace(deferred, tmp_path / "deferred.jsonl")
        write_columnar(deferred, second)
        assert len(calls) == 3
        reference = io.BytesIO()
        write_columnar(damaged_trace, reference)
        assert first.getvalue() == second.getvalue() == reference.getvalue()
