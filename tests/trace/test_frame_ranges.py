"""A simulated trial's frames, built one range of rows at a time.

``run_fast_trial`` returns an unbuilt trace: its payload is a range
builder (``repro.trace.trial._frames``).  Every range it builds must be
the matching slice of the whole trial's bytes, as the whole-trial
builder it replaced made them (``whole_trial_frames_oracle.py``);
slices and concatenations of unbuilt traces stay unbuilt; and writing
one gives the bytes its built twin writes.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framing.testpacket import FRAME_BYTES, TestPacketFactory
from repro.phy.modem import ModemRxStatus
from repro.serve import protocol
from repro.trace.columnar import (
    MATCH_CHUNK_RECORDS,
    ColumnarTrace,
    write_columnar,
)
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.persist import save_trace
from repro.trace.records import PacketRecord
from repro.trace.trial import TrialConfig, _assemble, run_fast_trial
from tests.trace.whole_trial_frames_oracle import (
    whole_trial_frames,
    whole_trial_payload,
)


def _window(trace: ColumnarTrace, whole: np.ndarray, start: int, stop: int):
    """Rows ``[start, stop)``'s bytes cut out of ``whole``."""
    if start >= stop:
        return whole[:0]
    end = int(trace.offsets[stop - 1]) + int(trace.lengths[stop - 1])
    return whole[int(trace.offsets[start]) : end]


def _unbuilt(trace: ColumnarTrace) -> bool:
    return callable(trace._payload)


@st.composite
def trial_inputs(draw):
    """``_run_bulk``-shaped rows and delivered outsider records: cut
    rows, flips of delivered and undelivered damaged rows, and outsiders
    anywhere in time, adjacent ones included."""
    sequences = np.array(
        sorted(draw(st.sets(st.integers(0, 199), max_size=40))),
        dtype=np.int64,
    )
    n = len(sequences)
    lengths = np.array(
        draw(st.lists(
            st.one_of(st.just(FRAME_BYTES), st.integers(1, FRAME_BYTES - 1)),
            min_size=n, max_size=n,
        )),
        dtype=np.uint32,
    )
    owners = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    owners = [o for o in owners if o < n]
    flip_owner = []
    for owner in owners:
        flip_owner.extend([-1] * draw(st.integers(0, 1)))
        flip_owner.append(owner)
    flip_counts = draw(st.lists(
        st.integers(0, 6), min_size=len(flip_owner), max_size=len(flip_owner)
    ))
    flip_positions = np.array(
        draw(st.lists(
            st.integers(0, 8 * FRAME_BYTES - 1),
            min_size=sum(flip_counts), max_size=sum(flip_counts),
        )),
        dtype=np.int64,
    )
    rows = {
        "sequences": sequences,
        "levels": np.full(n, 20, dtype=np.int16),
        "silences": np.full(n, 3, dtype=np.int16),
        "qualities": np.full(n, 15, dtype=np.int16),
        "antennas": np.zeros(n, dtype=np.int16),
        "lengths": lengths,
        "flip_owner": np.array(flip_owner, dtype=np.int64),
        "flip_offsets": np.concatenate(
            [[0], np.cumsum(flip_counts, dtype=np.int64)]
        ).astype(np.int64),
        "flip_positions": flip_positions,
    }
    times = sorted(draw(st.sets(st.integers(-1, 200), max_size=10)))
    status = ModemRxStatus(
        signal_level=9, silence_level=2, signal_quality=11, antenna=1
    )
    outsiders = [
        PacketRecord.from_bytes(
            draw(st.binary(min_size=1, max_size=90)), status, time + 0.5
        )
        for time in times
    ]
    return rows, outsiders


class TestRangesEqualTheWholeTrial:
    @given(trial_inputs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_range_is_a_slice_of_the_whole(self, inputs, data):
        rows, outsiders = inputs
        config = TrialConfig(name="ranges", packets=200)
        factory = TestPacketFactory(config.spec)
        trace = _assemble(config, factory, rows, outsiders)
        extra = (
            ColumnarTrace.from_records(
                outsiders, config.name, config.spec, config.packets
            )
            if outsiders
            else None
        )
        whole = whole_trial_frames(factory, rows, extra)
        n = trace.packets_received
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        piece = trace.slice(start, stop)
        assert _unbuilt(trace)
        assert piece.payload.tobytes() == _window(trace, whole, start, stop).tobytes()
        inner = data.draw(st.integers(0, stop - start))
        nested = piece.slice(inner, stop - start)
        assert nested.payload.tobytes() == _window(
            trace, whole, start + inner, stop
        ).tobytes()
        assert trace.payload.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed", [3, 41])
    @pytest.mark.parametrize("level", [5.0, 9.0])
    def test_damaged_trials_with_outsiders(self, seed, level):
        config = TrialConfig(
            name="ranges-trial", packets=3_000, mean_level=level, seed=seed,
            outsiders=OutsiderTraffic(rate_per_test_packet=0.3, mean_level=9.0),
        )
        trace = run_fast_trial(config).trace
        whole = whole_trial_payload(config)
        assert (trace.lengths < FRAME_BYTES).any()
        n = trace.packets_received
        bounds = sorted({0, 1, 777, MATCH_CHUNK_RECORDS, n - 1, n})
        for start, stop in zip(bounds, bounds[1:]):
            assert trace.slice(start, stop).payload.tobytes() == _window(
                trace, whole, start, stop
            ).tobytes()
        chunks = [chunk.payload for chunk in trace.chunks()]
        assert len(chunks) == -(-n // MATCH_CHUNK_RECORDS)
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert _unbuilt(trace)


@pytest.fixture(scope="module")
def trial():
    """An unbuilt trial longer than one chunk, with damage and
    outsiders (re-run per use: reading it would build it)."""
    config = TrialConfig(
        name="unbuilt", packets=5_000, mean_level=7.0, seed=8,
        outsiders=OutsiderTraffic(rate_per_test_packet=0.05, mean_level=9.0),
    )
    return lambda: run_fast_trial(config).trace


def _built_twin(trace: ColumnarTrace) -> ColumnarTrace:
    twin = trace.slice(0, trace.packets_received)
    twin.payload  # built and kept by the twin alone
    assert not _unbuilt(twin)
    return twin


class TestUnbuiltTraces:
    def test_slice_and_concat_stay_unbuilt(self, trial):
        trace = trial()
        n = trace.packets_received
        parts = [trace.slice(0, 3000), trace.slice(3000, n)]
        assert all(_unbuilt(part) for part in parts)
        joined = ColumnarTrace.concat(parts)
        assert _unbuilt(joined)
        whole = _built_twin(trace).payload
        assert joined.payload.tobytes() == whole.tobytes()
        np.testing.assert_array_equal(joined.offsets, trace.offsets)
        mixed = ColumnarTrace.concat([_built_twin(parts[0]), parts[1]])
        assert _unbuilt(mixed)
        assert mixed.slice(2990, 3010).payload.tobytes() == (
            _window(trace, whole, 2990, 3010).tobytes()
        )
        assert _unbuilt(trace)

    def test_a_pickled_slice_ships_its_builder(self, trial):
        piece = trial().slice(1000, 4000)
        clone = pickle.loads(pickle.dumps(piece))
        assert _unbuilt(clone)
        assert clone.payload.tobytes() == piece.payload.tobytes()

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz", ".wlt2"])
    def test_save_writes_the_built_twins_bytes(self, trial, tmp_path, suffix):
        trace = trial()
        twin = _built_twin(trace)
        save_trace(trace, tmp_path / f"unbuilt{suffix}")
        save_trace(twin, tmp_path / f"built{suffix}")
        assert (tmp_path / f"unbuilt{suffix}").read_bytes() == (
            tmp_path / f"built{suffix}"
        ).read_bytes()
        assert _unbuilt(trace)

    def test_chunk_encoder_writes_the_built_twins_bytes(self, trial):
        trace = trial()
        twin = _built_twin(trace)
        for start, stop in ((0, 0), (0, 4096), (1500, 5000), (0, None)):
            assert protocol.encode_chunk(trace, start, stop) == (
                protocol.encode_chunk(twin, start, stop)
            )
        buffer = io.BytesIO()
        write_columnar(trace, buffer)
        assert _unbuilt(trace)
