"""Columnar binary trace storage (format v2).

The v1 JSON-lines format (:mod:`repro.trace.persist`) is self-describing
and greppable, but reloading a half-million-packet trial means parsing
half a million JSON objects and hex-decoding every frame — the analysis
pipeline's bulk paths then immediately re-pack those per-record objects
into matrices.  Format v2 stores the trace the way the analysis consumes
it: contiguous numpy columns plus one flat frame-bytes buffer, so a
loader can ``np.memmap`` the file and hand the columns straight to
:meth:`repro.analysis.matching.TraceMatcher.match_matrix_arrays`
without ever materializing per-packet objects for the undamaged
majority.

Layout (single file; identical bytes in a serve wire chunk or ring
slot)::

    [0:8]   magic  b"WLTRACE2"
    [8:..]  payload — every record's raw bytes, back to back
    ...     columns, each 8-byte aligned:
              times     <f8   offsets  <u8 (relative to payload start)
              levels    <i2   lengths  <u4
              silences  <i2
              qualities <i2
              antennas  <i2
    [..]    footer JSON (name, spec, packets_sent, counts, column table)
    [-16:-8] footer length, little-endian u64
    [-8:]   magic  b"WLTRACE2"  (trailer: absent on a truncated write)

The footer lives at the end, after the data it describes; the trailing
magic makes truncation detectable (a crashed writer leaves no trailer,
and the loader refuses the file loudly rather than serving partial
columns).
"""

from __future__ import annotations

import bisect
import functools
import json
import struct
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.framing.ethernet import MacAddress
from repro.framing.testpacket import TestPacketSpec
from repro.phy.modem import ModemRxStatus
from repro.trace.records import PacketRecord

MAGIC = b"WLTRACE2"
FORMAT_VERSION = 2
TRACE_KIND = "wavelan-trial-trace"
# Canonical filename suffix for v2 columnar traces (detection is by
# magic, not suffix; the suffix only steers ``save_trace``'s default).
V2_SUFFIX = ".wlt2"

_ALIGN = 8
_LEN_STRUCT = struct.Struct("<Q")

# Column name -> dtype, in file order.
_COLUMNS: dict[str, str] = {
    "times": "<f8",
    "levels": "<i2",
    "silences": "<i2",
    "qualities": "<i2",
    "antennas": "<i2",
    "offsets": "<u8",
    "lengths": "<u4",
}

#: Rows one pass over a trace takes at a time.  The classifier matches
#: this many records per batch (large enough that the bulk matcher's
#: whole-matrix reductions amortize, small enough that the byte matrix
#: stays cache-friendly, ~2 MB), and a pass over an unbuilt trace —
#: classifying or writing it — builds this many rows' frames at once.
MATCH_CHUNK_RECORDS = 2048

PathLike = Union[str, Path]

#: A range builder: rows ``[start, stop)``'s frame bytes, back to back.
RangeBuilder = Callable[[int, int], np.ndarray]


def spec_to_dict(spec: TestPacketSpec) -> dict:
    """JSON-serializable form of a test-packet spec (shared with v1)."""
    return {
        "src_mac": str(spec.src_mac),
        "dst_mac": str(spec.dst_mac),
        "src_ip": spec.src_ip,
        "dst_ip": spec.dst_ip,
        "src_port": spec.src_port,
        "dst_port": spec.dst_port,
        "network_id": spec.network_id,
        "first_sequence": spec.first_sequence,
    }


def spec_from_dict(data: dict) -> TestPacketSpec:
    return TestPacketSpec(
        src_mac=MacAddress.from_string(data["src_mac"]),
        dst_mac=MacAddress.from_string(data["dst_mac"]),
        src_ip=data["src_ip"],
        dst_ip=data["dst_ip"],
        src_port=data["src_port"],
        dst_port=data["dst_port"],
        network_id=data["network_id"],
        first_sequence=data["first_sequence"],
    )


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_columnar(
    trace: "ColumnarTrace", target: Union[PathLike, IO[bytes]]
) -> None:
    """Write ``trace`` as one v2 block: magic, payload, the 8-byte
    aligned columns, footer, footer length and trailer magic."""
    if not hasattr(target, "write"):
        with open(target, "wb") as stream:
            write_columnar(trace, stream)
        return
    count = trace.packets_received
    target.write(MAGIC)
    nbytes = 0
    for piece in _payload_pieces(trace):
        target.write(np.ascontiguousarray(piece).data)
        nbytes += int(piece.shape[0])
    position = len(MAGIC) + nbytes
    column_table: dict[str, dict] = {}
    for key, dtype in _COLUMNS.items():
        position = _pad(target, position)
        block = np.ascontiguousarray(getattr(trace, key), dtype=dtype).tobytes()
        column_table[key] = {"dtype": dtype, "offset": position, "count": count}
        target.write(block)
        position += len(block)
    _pad(target, position)
    footer = json.dumps(
        {
            "kind": TRACE_KIND,
            "format": FORMAT_VERSION,
            "name": trace.name,
            "spec": spec_to_dict(trace.spec),
            "packets_sent": trace.packets_sent,
            # Always 0, read by no one: the spec carries the base.
            "first_sequence": 0,
            "count": count,
            "payload": {"offset": len(MAGIC), "nbytes": nbytes},
            "columns": column_table,
        },
        sort_keys=True,
    ).encode("utf-8")
    target.write(footer)
    target.write(_LEN_STRUCT.pack(len(footer)))
    target.write(MAGIC)


def _pad(stream: IO[bytes], position: int) -> int:
    """Zero-fill ``stream`` from ``position`` to the next column boundary."""
    pad = (-position) % _ALIGN
    stream.write(b"\0" * pad)
    return position + pad


# ----------------------------------------------------------------------
# The columnar trace
# ----------------------------------------------------------------------
class ColumnarTrace:
    """A trial trace held as contiguous columns: the one in-memory form.

    Every source builds one — the fast trial from its columns, the MAC
    trial, :class:`~repro.trace.receiver.TraceRecorder` and the v1
    loader from records through :meth:`from_records`, the v2 reader
    over a file or buffer — and every consumer takes it as it is.
    ``packets_sent`` is ground truth the experimenters knew (they ran
    the sender); everything else must be inferred from the rows.
    Columns may be views onto a memory-mapped file or a shared-memory
    block (``_backing`` keeps the mapping alive); nothing is copied
    until a consumer asks for per-record bytes.

    ``payload`` may also be given as a range builder, a picklable
    function of ``(start, stop)`` returning those rows' bytes back to
    back: the trace is then *unbuilt*.  A simulated trial is, so its
    memory is its columns, whatever its length.  Passes over it go by
    :meth:`slice`, which of an unbuilt trace is an unbuilt trace over
    the same builder: the classifier and the writers build one
    :data:`MATCH_CHUNK_RECORDS` chunk's frames at a time and drop them.
    :meth:`concat` of unbuilt traces is unbuilt too, and pickling one
    ships its builder, not its frames.  Only reading :attr:`payload`
    (or a row through it) builds the whole payload, which is then kept.
    """

    def __init__(
        self,
        name: str,
        spec: TestPacketSpec,
        packets_sent: int,
        *,
        times: np.ndarray,
        levels: np.ndarray,
        silences: np.ndarray,
        qualities: np.ndarray,
        antennas: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        payload: Union[np.ndarray, RangeBuilder],
        backing: object = None,
    ) -> None:
        self.name = name
        self.spec = spec
        self.packets_sent = packets_sent
        self.times = times
        self.levels = levels
        self.silences = silences
        self.qualities = qualities
        self.antennas = antennas
        self.offsets = offsets
        self.lengths = lengths
        self._payload = payload
        self._backing = backing

    @property
    def payload(self) -> np.ndarray:
        """Every record's raw bytes, back to back (see ``offsets``)."""
        if callable(self._payload):
            self._payload = self._payload(0, self.packets_received)
        return self._payload

    # -- rows ----------------------------------------------------------
    @property
    def packets_received(self) -> int:
        return int(self.times.shape[0])

    def data(self, index: int) -> bytes:
        offset = int(self.offsets[index])
        return self.payload[offset : offset + int(self.lengths[index])].tobytes()

    def record(self, index: int) -> PacketRecord:
        """Row ``index`` as the receiver logged it."""
        status = ModemRxStatus(
            signal_level=int(self.levels[index]),
            silence_level=int(self.silences[index]),
            signal_quality=int(self.qualities[index]),
            antenna=int(self.antennas[index]),
        )
        return PacketRecord.from_bytes(
            self.data(index), status, float(self.times[index])
        )

    # -- bulk access ---------------------------------------------------
    def frame_matrix(self, rows: np.ndarray, frame_bytes: int) -> np.ndarray:
        """An ``(len(rows), frame_bytes)`` uint8 matrix of full frames.

        ``rows`` must index records whose length is ``frame_bytes``.
        When the selected payload spans are back to back (the common
        case: a clean trial written in arrival order) the matrix is a
        zero-copy reshape of the payload; otherwise each row is copied
        out of a strided window view of the payload (one
        ``frame_bytes``-wide window per byte offset), with no index
        matrix built.
        """
        offsets = self.offsets[rows]
        if offsets.size == 0:
            return np.empty((0, frame_bytes), dtype=np.uint8)
        start = int(offsets[0])
        if offsets.size == 1 or bool(
            (np.diff(offsets) == frame_bytes).all()
        ):
            flat = self.payload[start : start + offsets.size * frame_bytes]
            return flat.reshape(offsets.size, frame_bytes)
        windows = np.lib.stride_tricks.sliding_window_view(
            self.payload, frame_bytes
        )
        return windows[offsets]

    # -- conversion ----------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[PacketRecord],
        name: str,
        spec: TestPacketSpec,
        packets_sent: int,
    ) -> "ColumnarTrace":
        """Columnarize a record list: one payload join, one pass per
        column, no file encoding in between."""
        datas = [record.data for record in records]
        statuses = [record.status for record in records]
        lengths = np.fromiter(map(len, datas), dtype=np.uint32, count=len(datas))
        return cls(
            name=name,
            spec=spec,
            packets_sent=packets_sent,
            times=np.array([record.time for record in records], dtype=np.float64),
            levels=np.array([s.signal_level for s in statuses], dtype=np.int16),
            silences=np.array([s.silence_level for s in statuses], dtype=np.int16),
            qualities=np.array(
                [s.signal_quality for s in statuses], dtype=np.int16
            ),
            antennas=np.array([s.antenna for s in statuses], dtype=np.int16),
            offsets=start_offsets(lengths),
            lengths=lengths,
            payload=np.frombuffer(b"".join(datas), dtype=np.uint8),
        )

    # -- slicing -------------------------------------------------------
    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """Rows ``[start, stop)`` as a standalone columnar trace.

        A built payload is cut to the window that spans the selected
        records' bytes, from the lowest offset to the highest end, and
        offsets are rebased to it: rows in any order slice correctly,
        and rows written back to back get exactly their bytes.  Columns
        are views (zero-copy) into this trace's columns except
        ``offsets``, which must be rebased.  A slice of an unbuilt trace
        is unbuilt: it builds its rows through this trace's builder when
        something reads them.  An empty slice (``start >= stop``) is a
        valid zero-record trace.
        """
        n = self.packets_received
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        if start == stop:
            base, payload = 0, np.zeros(0, dtype=np.uint8)
        elif callable(self._payload):
            base = int(self.offsets[start])
            payload = functools.partial(_shifted, self._payload, start)
        else:
            offsets = self.offsets[start:stop]
            base = int(offsets.min())
            end = int((offsets + self.lengths[start:stop]).max())
            payload = self._payload[base:end]
        return ColumnarTrace(
            name=self.name,
            spec=self.spec,
            packets_sent=self.packets_sent,
            times=self.times[start:stop],
            levels=self.levels[start:stop],
            silences=self.silences[start:stop],
            qualities=self.qualities[start:stop],
            antennas=self.antennas[start:stop],
            offsets=self.offsets[start:stop] - np.uint64(base),
            lengths=self.lengths[start:stop],
            payload=payload,
            backing=self._backing,
        )

    def chunks(self) -> Iterator["ColumnarTrace"]:
        """The trace as consecutive slices (:meth:`slice`) of at most
        :data:`MATCH_CHUNK_RECORDS` rows, none for an empty trace."""
        n = self.packets_received
        for start in range(0, n, MATCH_CHUNK_RECORDS):
            yield self.slice(start, start + MATCH_CHUNK_RECORDS)

    # -- merge ---------------------------------------------------------
    @classmethod
    def concat(
        cls, traces: Sequence["ColumnarTrace"], name: Optional[str] = None
    ) -> "ColumnarTrace":
        """Concatenate shard traces column-wise (the parallel merge step).

        ``packets_sent`` adds up (the paper's "aggregating multiple
        bursts to form a long trial"); specs must agree.  When any part
        is unbuilt the result is too: its builder builds each part's
        rows from that part.
        """
        if not traces:
            raise ValueError("cannot concatenate zero traces")
        spec = traces[0].spec
        for trace in traces[1:]:
            if trace.spec != spec:
                raise ValueError(
                    "cannot aggregate traces with different specs"
                )
        unbuilt = any(callable(t._payload) for t in traces)
        if unbuilt:
            # Row bounds of the parts; an unbuilt part's rows are back
            # to back, so its bytes are its lengths' sum.
            bounds = np.cumsum(
                [0] + [t.packets_received for t in traces]
            ).tolist()
            payload = functools.partial(_concat_frames, tuple(traces), bounds)
            sizes = [int(t.lengths.sum()) for t in traces[:-1]]
        else:
            payload = np.concatenate([t.payload for t in traces])
            sizes = [t.payload.shape[0] for t in traces[:-1]]
        # uint64 like the offsets: an int64 shift would promote them to
        # float64.
        shifts = np.cumsum([0] + sizes, dtype=np.uint64)
        return cls(
            name=name if name is not None else traces[0].name,
            spec=spec,
            packets_sent=sum(t.packets_sent for t in traces),
            times=np.concatenate([t.times for t in traces]),
            levels=np.concatenate([t.levels for t in traces]),
            silences=np.concatenate([t.silences for t in traces]),
            qualities=np.concatenate([t.qualities for t in traces]),
            antennas=np.concatenate([t.antennas for t in traces]),
            offsets=np.concatenate(
                [t.offsets + shift for t, shift in zip(traces, shifts)]
            ),
            lengths=np.concatenate([t.lengths for t in traces]),
            payload=payload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace(name={self.name!r}, "
            f"packets_sent={self.packets_sent}, "
            f"packets_received={self.packets_received})"
        )


def _shifted(build: RangeBuilder, base: int, start: int, stop: int):
    """``build``'s rows ``[base + start, base + stop)``: a slice's builder."""
    return build(base + start, base + stop)


def _concat_frames(
    parts: tuple[ColumnarTrace, ...], bounds: list[int], start: int, stop: int
) -> np.ndarray:
    """Rows ``[start, stop)`` of the concatenation of ``parts``, whose
    first rows sit at ``bounds``: each part's share from that part."""
    pieces = [np.zeros(0, dtype=np.uint8)]
    for index in range(bisect.bisect_right(bounds, start) - 1, len(parts)):
        first = bounds[index]
        if first >= stop:
            break
        pieces.append(
            parts[index].slice(start - first, stop - first).payload
        )
    return np.concatenate(pieces)


def _payload_pieces(trace: ColumnarTrace) -> Iterator[np.ndarray]:
    """``trace``'s payload in order, for one pass such as a write.

    A built payload is one piece.  An unbuilt one comes one chunk of
    rows at a time, each built for the caller and not kept: writing a
    simulated trial never holds more than a chunk of its frames.
    """
    if not callable(trace._payload):
        yield trace._payload
        return
    for chunk in trace.chunks():
        yield chunk.payload


def start_offsets(lengths: np.ndarray) -> np.ndarray:
    """Where each of back-to-back rows of ``lengths`` bytes starts."""
    offsets = np.zeros(len(lengths), dtype=np.uint64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def _parse_columnar(flat: np.ndarray, origin: str, backing: object,
                    copy: bool) -> ColumnarTrace:
    """Build a :class:`ColumnarTrace` over a flat uint8 buffer.

    Every damaged footer — undecodable text, a missing or mistyped key,
    a dtype other than the column's own — raises ValueError naming
    ``origin``.
    """
    total = flat.shape[0]
    min_size = 2 * len(MAGIC) + _LEN_STRUCT.size
    if total < min_size or flat[: len(MAGIC)].tobytes() != MAGIC:
        raise ValueError(f"{origin}: not a columnar (v2) trace file")
    if flat[total - len(MAGIC) :].tobytes() != MAGIC:
        raise ValueError(
            f"{origin}: truncated columnar trace (trailer magic missing — "
            "the writer did not finish)"
        )
    (footer_len,) = _LEN_STRUCT.unpack(
        flat[total - len(MAGIC) - _LEN_STRUCT.size : total - len(MAGIC)]
        .tobytes()
    )
    footer_start = total - len(MAGIC) - _LEN_STRUCT.size - footer_len
    if footer_start < len(MAGIC):
        raise ValueError(f"{origin}: corrupt columnar trace footer")
    try:
        footer = json.loads(
            flat[footer_start : footer_start + footer_len].tobytes()
        )
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 damage
        raise ValueError(
            f"{origin}: corrupt columnar trace footer: {exc!r}"
        ) from exc
    if not isinstance(footer, dict) or footer.get("kind") != TRACE_KIND:
        raise ValueError(f"{origin}: not a trial trace file")
    if footer.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"{origin}: format {footer.get('format')} "
            f"(this reader supports {FORMAT_VERSION})"
        )

    def column(key: str) -> np.ndarray:
        entry = footer["columns"][key]
        start, count = _index(entry["offset"]), _index(entry["count"])
        dtype = np.dtype(entry["dtype"])
        if dtype != np.dtype(_COLUMNS[key]):
            raise ValueError(f"column {key!r} has dtype {dtype}")
        stop = start + count * dtype.itemsize
        if stop > footer_start:
            raise ValueError(f"column {key!r} overruns the file")
        view = flat[start:stop].view(dtype)
        return view.copy() if copy else view

    try:
        payload_meta = footer["payload"]
        payload_start = _index(payload_meta["offset"])
        payload = flat[
            payload_start : payload_start + _index(payload_meta["nbytes"])
        ]
        # Written as 0 and ignored (the spec carries the base), but a
        # malformed value still fails the load.
        _index(footer.get("first_sequence", 0))
        return ColumnarTrace(
            name=footer["name"],
            spec=spec_from_dict(footer["spec"]),
            packets_sent=_index(footer["packets_sent"]),
            times=column("times"),
            levels=column("levels"),
            silences=column("silences"),
            qualities=column("qualities"),
            antennas=column("antennas"),
            offsets=column("offsets"),
            lengths=column("lengths"),
            payload=payload.copy() if copy else payload,
            backing=None if copy else backing,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{origin}: malformed columnar trace footer: {exc!r}"
        ) from exc


def _index(value: object) -> int:
    """A footer count or byte offset: a non-negative int, else TypeError."""
    if type(value) is not int or value < 0:
        raise TypeError(f"{value!r} is not a count or offset")
    return value


def read_columnar(path: PathLike) -> ColumnarTrace:
    """Memory-map a v2 file; columns are zero-copy views into the map."""
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"{path}: empty trace file")
    flat = np.memmap(path, dtype=np.uint8, mode="r")
    return _parse_columnar(flat, str(path), backing=flat, copy=False)


def read_columnar_buffer(
    buffer, origin: str = "<buffer>", *, copy: bool = False,
    backing: object = None,
) -> ColumnarTrace:
    """Read v2 bytes from any buffer (shared memory, BytesIO contents).

    With ``copy=False`` the columns are views — the caller must keep the
    buffer alive, or pass it as ``backing`` so the trace pins it.
    """
    flat = np.frombuffer(buffer, dtype=np.uint8)
    return _parse_columnar(flat, origin, backing=backing, copy=copy)


def is_columnar_file(path: PathLike) -> bool:
    """True when ``path`` starts with the v2 magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
