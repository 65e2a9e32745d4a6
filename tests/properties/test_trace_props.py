"""Property-based tests on the columnar trace's frame gather.

Classification slices each chunk's full-length rows into one matrix.
Truncated and outsider rows between them break the payload into
non-adjacent spans, which ``frame_matrix`` must copy out row by row;
back-to-back rows stay a zero-copy view.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framing.testpacket import FRAME_BYTES, TestPacketFactory, TestPacketSpec
from repro.phy.modem import ModemRxStatus
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

_SPEC = TestPacketSpec.default()
_FACTORY = TestPacketFactory(_SPEC)
_STATUS = ModemRxStatus(
    signal_level=20, silence_level=3, signal_quality=15, antenna=0
)

# A row of a received trace: a whole test packet, one cut short by the
# modem, or a foreign (ARP / bridge hello sized) frame.  Whole packets
# are the common row, as in a real trace.
rows = st.tuples(
    st.sampled_from(["full", "full", "full", "truncated", "outsider"]),
    st.integers(0, 2**20),
)


def _trace(layout: list, seed: int) -> ColumnarTrace:
    rng = np.random.default_rng(seed)
    datas = []
    for kind, value in layout:
        if kind == "full":
            datas.append(_FACTORY.build(value % 1000))
        elif kind == "truncated":
            cut = 1 + value % (FRAME_BYTES - 1)
            datas.append(_FACTORY.build(value % 1000)[:cut])
        else:
            length = 42 + value % 87
            datas.append(rng.integers(0, 256, length, dtype=np.uint8).tobytes())
    records = [
        PacketRecord.from_bytes(data, _STATUS, time=float(index))
        for index, data in enumerate(datas)
    ]
    return ColumnarTrace.from_records(records, "prop", _SPEC, len(records))


class TestFrameMatrix:
    @given(
        st.lists(rows, min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_stacked_rows(self, layout, seed, data):
        trace = _trace(layout, seed)
        full = np.nonzero(trace.lengths == FRAME_BYTES)[0]
        keep = data.draw(
            st.lists(st.booleans(), min_size=full.size, max_size=full.size)
        )
        chosen = full[np.array(keep, dtype=bool)]
        payload_before = trace.payload.copy()

        matrix = trace.frame_matrix(chosen, FRAME_BYTES)

        assert matrix.shape == (chosen.size, FRAME_BYTES)
        assert matrix.dtype == np.uint8
        assert matrix.flags.c_contiguous
        expected = [trace.data(index) for index in chosen.tolist()]
        assert [row.tobytes() for row in matrix] == expected
        offsets = trace.offsets[chosen]
        back_to_back = bool((np.diff(offsets) == FRAME_BYTES).all())
        if not back_to_back:
            # A gathered copy: scribbling on it leaves the trace intact.
            assert matrix.flags.writeable
            matrix ^= 0xFF
            assert np.array_equal(trace.payload, payload_before)
