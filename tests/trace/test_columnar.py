"""The columnar trace: rows, the v2 writer, and zero-copy analysis."""

import hashlib
import io

import numpy as np
import pytest

from repro.analysis.classify import classify_trace
from repro.analysis.metrics import metrics_from_classified
from repro.environment.geometry import Point
from repro.framing.testpacket import FRAME_BYTES
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import (
    ColumnarTrace,
    is_columnar_file,
    read_columnar,
    read_columnar_buffer,
    write_columnar,
)
from repro.trace.persist import save_trace
from repro.trace.records import PacketRecord
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


def _records(trace):
    return [trace.record(index) for index in range(trace.packets_received)]


class TestWriter:
    def test_records_write_like_columns(self, clean_trace):
        """A trace columnarized from its rows, one record at a time,
        writes the bytes its columns write."""
        rebuilt = ColumnarTrace.from_records(
            _records(clean_trace),
            clean_trace.name,
            clean_trace.spec,
            clean_trace.packets_sent,
        )
        streamed, whole = io.BytesIO(), io.BytesIO()
        write_columnar(rebuilt, streamed)
        write_columnar(clean_trace, whole)
        assert streamed.getvalue() == whole.getvalue()

    def test_write_to_path(self, clean_trace, tmp_path):
        path = tmp_path / "path.wlt2"
        write_columnar(clean_trace.slice(0, 3), path)
        loaded = read_columnar(path)
        assert loaded.packets_received == 3
        assert is_columnar_file(path)

    def test_bytes_pinned(self, spec, factory):
        """The v2 layout, byte for byte: an odd-sized payload (so the
        columns are padded), a full frame, a cut one and an outsider.
        Saved files and wire chunks depend on these bytes."""
        records = [
            PacketRecord.from_bytes(
                factory.build(0), ModemRxStatus(29, 3, 15, 0), 0.0
            ),
            PacketRecord.from_bytes(b"\x55" * 61, ModemRxStatus(6, 2, 8, 1), 0.5),
            PacketRecord.from_bytes(
                factory.build(1)[:100], ModemRxStatus(12, 4, 11, 1), 1.0
            ),
        ]
        buffer = io.BytesIO()
        write_columnar(ColumnarTrace.from_records(records, "pinned", spec, 3), buffer)
        assert hashlib.sha256(buffer.getvalue()).hexdigest() == (
            "2fffe385d426d135af8fee14131ff1cf5a162f7f9ab69ccba0fb4ea0c71b3ed7"
        )

    def test_write_from_columnar_identical(self, clean_trace, tmp_path):
        """Re-serializing a ColumnarTrace streams the payload wholesale
        and must produce the same bytes as serializing the original."""
        first = io.BytesIO()
        write_columnar(clean_trace, first)
        second = io.BytesIO()
        write_columnar(read_columnar_buffer(first.getvalue()), second)
        assert first.getvalue() == second.getvalue()


class TestRecord:
    def test_every_row(self, damaged_trace):
        offsets = damaged_trace.offsets
        for index, record in enumerate(_records(damaged_trace)):
            assert record.time == damaged_trace.times[index]
            start = int(offsets[index])
            assert record.data == damaged_trace.payload[
                start : start + int(damaged_trace.lengths[index])
            ].tobytes()
            assert record.length == damaged_trace.lengths[index]

    def test_status_fields(self, clean_trace):
        status = clean_trace.record(7).status
        assert status.signal_level == clean_trace.levels[7]
        assert status.silence_level == clean_trace.silences[7]
        assert status.signal_quality == clean_trace.qualities[7]
        assert status.antenna == clean_trace.antennas[7]

    def test_negative_index(self, clean_trace):
        last = clean_trace.packets_received - 1
        assert clean_trace.record(-1) == clean_trace.record(last)

    def test_out_of_range(self, clean_trace):
        with pytest.raises(IndexError):
            clean_trace.record(clean_trace.packets_received)


class TestFrameMatrix:
    def test_full_matrix_matches_record_bytes(self, clean_trace):
        full = np.nonzero(clean_trace.lengths == FRAME_BYTES)[0]
        matrix = clean_trace.frame_matrix(full, FRAME_BYTES)
        assert matrix.shape == (full.size, FRAME_BYTES)
        for row, index in zip(matrix[:5], full[:5].tolist()):
            assert row.tobytes() == clean_trace.data(index)

    def test_gather_path_on_mixed_lengths(self, damaged_trace):
        full = np.nonzero(damaged_trace.lengths == FRAME_BYTES)[0]
        assert full.size < damaged_trace.packets_received  # truncation happened
        matrix = damaged_trace.frame_matrix(full, FRAME_BYTES)
        for row, index in zip(matrix, full.tolist()):
            assert row.tobytes() == damaged_trace.data(index)


class TestSlice:
    def test_rows_out_of_payload_order(self):
        """Rows need not sit in payload order: a slice's window spans
        its rows' bytes wherever they lie, so chunked classification of
        rows in reverse payload order, across chunk boundaries, gives
        each row the verdict it gets in order."""
        trace = run_fast_trial(
            TrialConfig(name="col-reversed", packets=5_000, mean_level=9.0,
                        seed=13)
        ).trace
        payload = trace.payload
        reverse = slice(None, None, -1)
        reversed_rows = ColumnarTrace(
            name=trace.name,
            spec=trace.spec,
            packets_sent=trace.packets_sent,
            **{
                key: getattr(trace, key)[reverse]
                for key in ("times", "levels", "silences", "qualities",
                            "antennas", "offsets", "lengths")
            },
            payload=payload,
        )
        n = trace.packets_received
        piece = reversed_rows.slice(1000, 3000)
        for index in (0, 777, 1999):
            assert piece.data(index) == trace.data(n - 1 - 1000 - index)
        forward = classify_trace(trace).columns
        backward = classify_trace(reversed_rows).columns
        for key, column in forward.items():
            np.testing.assert_array_equal(backward[key], column[reverse])


class TestConcat:
    def test_concat_rebases_offsets(self, clean_trace, damaged_trace):
        a = clean_trace
        b = ColumnarTrace.from_records(
            _records(damaged_trace),
            clean_trace.name,
            clean_trace.spec,
            damaged_trace.packets_sent,
        )
        merged = ColumnarTrace.concat([a, b])
        assert merged.packets_received == (
            a.packets_received + b.packets_received
        )
        assert merged.packets_sent == a.packets_sent + b.packets_sent
        combined = _records(clean_trace) + _records(damaged_trace)
        assert _records(merged) == combined
        assert merged.offsets.dtype == np.uint64
        full = np.nonzero(merged.lengths == FRAME_BYTES)[0]
        matrix = merged.frame_matrix(full, FRAME_BYTES)
        assert [row.tobytes() for row in matrix] == [
            merged.data(index) for index in full.tolist()
        ]

    def test_concat_rejects_spec_mismatch(self, clean_trace):
        import dataclasses

        other_spec = dataclasses.replace(
            clean_trace.spec, src_port=clean_trace.spec.src_port + 1
        )
        b = ColumnarTrace.from_records([], "other", other_spec, 0)
        with pytest.raises(ValueError, match="spec"):
            ColumnarTrace.concat([clean_trace, b])

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
    def test_from_records_keeps_every_row(self, damaged_trace):
        """Columnarizing the trial's rows as plain records rebuilds the
        columns the trial assembled, payload layout included."""
        col = ColumnarTrace.from_records(
            _records(damaged_trace),
            damaged_trace.name,
            damaged_trace.spec,
            damaged_trace.packets_sent,
        )
        assert col.packets_sent == damaged_trace.packets_sent
        for key in ("times", "levels", "silences", "qualities", "antennas",
                    "offsets", "lengths", "payload"):
            np.testing.assert_array_equal(
                getattr(col, key), getattr(damaged_trace, key)
            )


class TestDeferredPayload:
    """A payload given as a range builder builds the whole payload on
    its first read, once, and keeps it; a write of frames nothing has
    read builds them range by range and keeps none."""

    def _deferred(self, trace, calls):
        def build(start, stop):
            calls.append((start, stop))
            return trace.slice(start, stop).payload.copy()

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
