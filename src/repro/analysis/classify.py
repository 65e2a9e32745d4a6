"""Per-packet damage classification.

Mirrors the packet classes of the paper's tables (e.g. Table 3):
undamaged, truncated, wrapper damaged, body damaged, and outsiders
(undamaged/damaged).  A packet can be both wrapper- and body-damaged;
like the paper's tables we give body damage precedence for the primary
class but keep both flags.

Classification is *incremental at heart*: :class:`IncrementalClassifier`
consumes frame chunks as they arrive (record lists or columnar slices),
runs each chunk through the batched matching fast paths, and maintains
running verdicts and per-class counts.  Because every verdict depends
only on its own record's bytes, chunk boundaries never change the
output — :func:`classify_trace` is a thin wrapper that feeds a whole
trial through one classifier, and a streaming consumer
(:mod:`repro.serve`) feeds the same machinery one network chunk at a
time with byte-identical results.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.analysis.matching import MatchOutcome, MatchResult, TraceMatcher
from repro.analysis.syndrome import ErrorSyndrome, extract_syndrome
from repro.obs import runtime as _obs
from repro.framing.crc import check_fcs
from repro.framing.modem import NETWORK_ID_LEN
from repro.framing.testpacket import FRAME_BYTES
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord, TrialTrace

AnyTrace = Union[TrialTrace, ColumnarTrace]

# Stable code order for PacketClass verdict columns: the wire/handoff
# encoding (repro.parallel.handoff, repro.serve.protocol) and the
# incremental verdict columns all index this list.
CLASS_ORDER: "list[PacketClass]"


class PacketClass(enum.Enum):
    """Primary damage class of a received packet."""

    UNDAMAGED = "undamaged"
    TRUNCATED = "truncated"
    WRAPPER_DAMAGED = "wrapper_damaged"
    BODY_DAMAGED = "body_damaged"
    OUTSIDER_UNDAMAGED = "outsider_undamaged"
    OUTSIDER_DAMAGED = "outsider_damaged"

    @property
    def is_test_packet(self) -> bool:
        return self not in (
            PacketClass.OUTSIDER_UNDAMAGED,
            PacketClass.OUTSIDER_DAMAGED,
        )


CLASS_ORDER = list(PacketClass)
CLASS_CODE = {cls: code for code, cls in enumerate(CLASS_ORDER)}


@dataclass
class ClassifiedPacket:
    """One record plus everything the analysis derived from it."""

    record: PacketRecord
    packet_class: PacketClass
    sequence: Optional[int] = None
    syndrome: Optional[ErrorSyndrome] = None
    wrapper_damaged: bool = False
    body_bits_damaged: int = 0
    truncated_bytes_missing: int = 0


@dataclass
class ClassifiedTrace:
    """A whole trial's classification output."""

    trace: TrialTrace
    packets: list[ClassifiedPacket] = field(default_factory=list)

    def by_class(self, *classes: PacketClass) -> list[ClassifiedPacket]:
        wanted = set(classes)
        return [p for p in self.packets if p.packet_class in wanted]

    @property
    def test_packets(self) -> list[ClassifiedPacket]:
        return [p for p in self.packets if p.packet_class.is_test_packet]

    @property
    def outsiders(self) -> list[ClassifiedPacket]:
        return [p for p in self.packets if not p.packet_class.is_test_packet]

    def class_counts(self) -> dict[PacketClass, int]:
        """Packets per primary class.  Conservation invariant: the
        values always sum to ``len(self.packets)`` — trivially (and
        importantly for streaming consumers) also for empty traces."""
        counts = Counter(p.packet_class for p in self.packets)
        return {cls: counts.get(cls, 0) for cls in CLASS_ORDER}


def _classify_outsider(data: bytes) -> PacketClass:
    """Damage heuristic for foreign packets: without ground truth, the
    Ethernet CRC is the only oracle (the paper's tool had the same
    limitation — weak foreign packets failing CRC are "damaged")."""
    if len(data) > NETWORK_ID_LEN and check_fcs(data[NETWORK_ID_LEN:]):
        return PacketClass.OUTSIDER_UNDAMAGED
    return PacketClass.OUTSIDER_DAMAGED


# Records are matched in batches of this many: large enough that the
# bulk matcher's whole-matrix reductions amortize, small enough that the
# materialized byte matrix stays cache-friendly (~2 MB per chunk).
MATCH_CHUNK_RECORDS = 2048


class IncrementalClassifier:
    """Online matching + damage classification over arriving frames.

    The streaming core that :func:`classify_trace` (batch) and the
    :mod:`repro.serve` ingest service (online) share.  Feed frame
    chunks as they arrive — record lists via :meth:`feed_records`,
    columnar slices via :meth:`feed_columnar` — in any chunking; every
    verdict depends only on its own record's bytes, so the output is
    byte-identical for chunk size 1, 7, or the whole trial.  The
    classifier maintains running verdicts (:attr:`packets`) and
    per-class counts (:attr:`class_counts`); :meth:`finish` wraps them
    into the :class:`ClassifiedTrace` the batch API returns, and
    :meth:`verdict_columns` exports them as compact numpy columns for
    pool/wire boundaries.

    Zero-record traces and zero-length chunks are routine (an idle
    server session is exactly that) and feed through without raising.
    """

    def __init__(
        self,
        spec,
        packets_sent: int,
        *,
        matcher: Optional[TraceMatcher] = None,
        collect_packets: bool = True,
    ) -> None:
        self.matcher = (
            matcher
            if matcher is not None
            else TraceMatcher(spec, packets_sent)
        )
        self.collect_packets = collect_packets
        self.packets: list[ClassifiedPacket] = []
        self.records_seen = 0
        self.class_counts: Counter = Counter()
        self._column_chunks: list[dict] = []

    # ------------------------------------------------------------------
    def _note(self, packet: ClassifiedPacket) -> ClassifiedPacket:
        if self.collect_packets:
            self.packets.append(packet)
        self.records_seen += 1
        self.class_counts[packet.packet_class] += 1
        return packet

    def _note_chunk(self, packets: list[ClassifiedPacket]) -> None:
        """Batched :meth:`_note`: one extend + one counter update."""
        if self.collect_packets:
            self.packets.extend(packets)
        self.records_seen += len(packets)
        self.class_counts.update(p.packet_class for p in packets)

    def feed_records(
        self, records: Sequence[PacketRecord]
    ) -> list[ClassifiedPacket]:
        """Classify a chunk of records (the v1 / in-memory path).

        Internally re-chunks at :data:`MATCH_CHUNK_RECORDS` so huge
        feeds stay cache-friendly; matching runs through the batched
        fast path (:meth:`TraceMatcher.match_records_arrays`) — the
        clean majority resolves as array columns, never materializing
        bytes or :class:`MatchResult` objects — with only the damaged
        minority falling back to the scalar voting/header procedure.
        Returns the newly classified packets (also appended to
        :attr:`packets`).
        """
        matcher = self.matcher
        out: list[ClassifiedPacket] = []
        for chunk_start in range(0, len(records), MATCH_CHUNK_RECORDS):
            chunk = records[chunk_start : chunk_start + MATCH_CHUNK_RECORDS]
            exact, sequences, datas = matcher.match_records_arrays(chunk)
            seq_list = sequences.tolist()
            chunk_out: list[ClassifiedPacket] = []
            for offset, record in enumerate(chunk):
                if exact[offset]:
                    # Exact fast-path rows are by definition
                    # undamaged with a known sequence — identical
                    # to _classify_one's verdict for them.
                    chunk_out.append(
                        ClassifiedPacket(
                            record=record,
                            packet_class=PacketClass.UNDAMAGED,
                            sequence=seq_list[offset],
                        )
                    )
                    continue
                data = datas[offset]
                if data is None:
                    data = record.data
                match = matcher.match_bytes(data, skip_fast=True)
                chunk_out.append(
                    _classify_one(matcher, record, data, match)
                )
            self._note_chunk(chunk_out)
            out.extend(chunk_out)
            if not self.collect_packets:
                self._column_chunks.append(
                    _columns_from_packets(chunk_out)
                )
        return out

    def feed_columnar(
        self,
        trace: ColumnarTrace,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> list[ClassifiedPacket]:
        """Classify rows ``[start, stop)`` of a columnar trace.

        The zero-copy route: frame matrices are sliced straight off the
        flat payload and fed to :meth:`TraceMatcher.match_matrix_arrays`;
        the undamaged majority never materializes per-packet records or
        bytes — classified packets carry lazy record views instead.
        Byte-for-byte the same verdicts as the record-list path.
        """
        matcher = self.matcher
        lengths = trace.lengths
        n = trace.packets_received
        if stop is None:
            stop = n
        stop = min(stop, n)
        if not self.collect_packets:
            self._feed_columnar_vectorized(trace, start, stop)
            return []
        out: list[ClassifiedPacket] = []
        for chunk_start in range(start, stop, MATCH_CHUNK_RECORDS):
            chunk_stop = min(chunk_start + MATCH_CHUNK_RECORDS, stop)
            chunk_lengths = lengths[chunk_start:chunk_stop]
            m = chunk_stop - chunk_start
            exact = np.zeros(m, dtype=bool)
            sequences = np.full(m, -1, dtype=np.int64)
            full_local = np.nonzero(chunk_lengths == FRAME_BYTES)[0]
            if full_local.size:
                matrix = trace.frame_matrix(
                    chunk_start + full_local, FRAME_BYTES
                )
                ex, matched = matcher.match_matrix_arrays(matrix)
                exact[full_local[ex]] = True
                sequences[full_local[ex]] = matched[ex]
            seq_list = sequences.tolist()
            lengths_list = chunk_lengths.tolist()
            chunk_out: list[ClassifiedPacket] = []
            for offset, index in enumerate(
                range(chunk_start, chunk_stop)
            ):
                if exact[offset]:
                    chunk_out.append(
                        ClassifiedPacket(
                            record=trace.record_view(index),
                            packet_class=PacketClass.UNDAMAGED,
                            sequence=seq_list[offset],
                        )
                    )
                    continue
                data = trace.data(index)
                match = matcher.match_bytes(data, skip_fast=True)
                chunk_out.append(
                    _classify_one(
                        matcher,
                        trace.record_view(index),
                        data,
                        match,
                        length=lengths_list[offset],
                    )
                )
            self._note_chunk(chunk_out)
            out.extend(chunk_out)
        return out

    def _feed_columnar_vectorized(
        self, trace: ColumnarTrace, start: int, stop: int
    ) -> None:
        """Columns-only twin of the columnar loop (``collect_packets``
        off): verdicts land straight in numpy columns, so the clean
        majority never materializes a single per-packet Python object.
        Exact fast-path rows are *by definition* undamaged with a known
        sequence — identical to what :func:`_classify_one` returns for
        them — and only the damaged minority runs the scalar fallback.
        The streaming server's hot path.
        """
        matcher = self.matcher
        lengths = trace.lengths
        undamaged_code = CLASS_CODE[PacketClass.UNDAMAGED]
        for chunk_start in range(start, stop, MATCH_CHUNK_RECORDS):
            chunk_stop = min(chunk_start + MATCH_CHUNK_RECORDS, stop)
            m = chunk_stop - chunk_start
            codes = np.full(m, undamaged_code, dtype=np.uint8)
            sequences = np.full(m, -1, dtype=np.int64)
            wrapper = np.zeros(m, dtype=bool)
            body_bits = np.zeros(m, dtype=np.int64)
            truncated = np.zeros(m, dtype=np.int32)
            chunk_lengths = lengths[chunk_start:chunk_stop]
            resolved = np.zeros(m, dtype=bool)
            full_local = np.nonzero(chunk_lengths == FRAME_BYTES)[0]
            if full_local.size:
                matrix = trace.frame_matrix(
                    chunk_start + full_local, FRAME_BYTES
                )
                exact, matched = matcher.match_matrix_arrays(matrix)
                hit_local = full_local[exact]
                resolved[hit_local] = True
                sequences[hit_local] = matched[exact]
            for offset in np.nonzero(~resolved)[0].tolist():
                index = chunk_start + offset
                data = trace.data(index)
                match = matcher.match_bytes(data, skip_fast=True)
                packet = _classify_one(
                    matcher,
                    trace.record_view(index),
                    data,
                    match,
                    length=int(chunk_lengths[offset]),
                )
                codes[offset] = CLASS_CODE[packet.packet_class]
                sequences[offset] = (
                    -1 if packet.sequence is None else packet.sequence
                )
                wrapper[offset] = packet.wrapper_damaged
                body_bits[offset] = packet.body_bits_damaged
                truncated[offset] = packet.truncated_bytes_missing
            self._column_chunks.append({
                "class_codes": codes,
                "sequences": sequences,
                "wrapper_damaged": wrapper,
                "body_bits_damaged": body_bits,
                "truncated_missing": truncated,
            })
            self.records_seen += m
            for code, count in enumerate(
                np.bincount(codes, minlength=len(CLASS_ORDER)).tolist()
            ):
                if count:
                    self.class_counts[CLASS_ORDER[code]] += count

    def feed(self, trace: AnyTrace) -> list[ClassifiedPacket]:
        """Classify a whole trace-shaped chunk (dispatch on its type)."""
        if isinstance(trace, ColumnarTrace):
            return self.feed_columnar(trace)
        return self.feed_records(trace.records)

    # ------------------------------------------------------------------
    def verdict_columns(self) -> dict:
        """The running verdicts as compact numpy columns.

        Same encoding the parallel handoff uses (``class_codes`` index
        :data:`CLASS_ORDER`; ``sequences`` holds -1 for "none"): cheap
        to pickle across a pool boundary or frame onto a wire.
        """
        if not self.collect_packets:
            chunks = self._column_chunks
            if len(chunks) == 1:
                return dict(chunks[0])
            if not chunks:
                return _columns_from_packets([])
            return {
                key: np.concatenate([chunk[key] for chunk in chunks])
                for key in chunks[0]
            }
        return _columns_from_packets(self.packets)

    def count_summary(self) -> dict[str, int]:
        """JSON-friendly per-class counts (zero-filled, conserved)."""
        return {
            cls.value: self.class_counts.get(cls, 0) for cls in CLASS_ORDER
        }

    def finish(self, trace: AnyTrace) -> ClassifiedTrace:
        """Wrap the running verdicts as the batch-API result object."""
        if not self.collect_packets:
            raise RuntimeError(
                "finish() needs per-packet results; this classifier was "
                "built with collect_packets=False (columns only)"
            )
        return ClassifiedTrace(trace=trace, packets=self.packets)


def _columns_from_packets(
    packets: Sequence[ClassifiedPacket],
) -> dict:
    """Pack classified packets into the compact verdict columns."""
    n = len(packets)
    class_codes = np.empty(n, dtype=np.uint8)
    sequences = np.empty(n, dtype=np.int64)
    wrapper_damaged = np.empty(n, dtype=bool)
    body_bits = np.empty(n, dtype=np.int64)
    truncated = np.empty(n, dtype=np.int32)
    for index, packet in enumerate(packets):
        class_codes[index] = CLASS_CODE[packet.packet_class]
        sequences[index] = (
            -1 if packet.sequence is None else packet.sequence
        )
        wrapper_damaged[index] = packet.wrapper_damaged
        body_bits[index] = packet.body_bits_damaged
        truncated[index] = packet.truncated_bytes_missing
    return {
        "class_codes": class_codes,
        "sequences": sequences,
        "wrapper_damaged": wrapper_damaged,
        "body_bits_damaged": body_bits,
        "truncated_missing": truncated,
    }


def verdict_row_bytes(columns: dict) -> bytes:
    """Verdict columns re-packed as per-record rows, for digesting.

    Streaming consumers prove byte-identity with the batch path by
    hashing verdicts as they arrive; hashing column-by-column would
    make the digest depend on where chunk boundaries fell.  Row-major
    packing is concatenation-stable: ``rows(A) + rows(B) ==
    rows(A + B)`` for any split, so one running hash over any chunking
    equals the hash of the whole trace's columns.
    """
    codes = np.asarray(columns["class_codes"])
    rows = np.empty(
        codes.shape[0],
        dtype=[
            ("code", "u1"),
            ("sequence", "<i8"),
            ("wrapper", "u1"),
            ("body_bits", "<i8"),
            ("truncated", "<i4"),
        ],
    )
    rows["code"] = codes
    rows["sequence"] = columns["sequences"]
    rows["wrapper"] = columns["wrapper_damaged"]
    rows["body_bits"] = columns["body_bits_damaged"]
    rows["truncated"] = columns["truncated_missing"]
    return rows.tobytes()


def classify_trace(trace: AnyTrace) -> ClassifiedTrace:
    """Run matching + damage classification over a whole trial.

    A thin batch wrapper over :class:`IncrementalClassifier` — one
    classifier, the whole trace fed as a single chunk (the classifier
    re-chunks internally for cache friendliness), results identical to
    any streamed chunking of the same records.
    """
    classifier = IncrementalClassifier(trace.spec, trace.packets_sent)
    with _obs.trace_span(
        "analysis.classify",
        records=trace.packets_received,
        columnar=isinstance(trace, ColumnarTrace),
    ):
        classifier.feed(trace)
    return classifier.finish(trace)


def _classify_one(
    matcher: TraceMatcher,
    record: PacketRecord,
    data: Optional[bytes],
    match: MatchResult,
    length: Optional[int] = None,
) -> ClassifiedPacket:
    """Turn one record's match result into its classification.

    ``data`` may be ``None`` on the columnar path — but only for exact
    (fast-path) matches, whose branches never touch the bytes; every
    fallback verdict (outsiders, voting, header-led) arrives with the
    frame already materialized.
    """
    if length is None:
        length = len(data)
    if match.outcome is MatchOutcome.OUTSIDER:
        return ClassifiedPacket(
            record=record, packet_class=_classify_outsider(data)
        )
    sequence = match.sequence
    if sequence is None:
        # Confident test packet, ambiguous sequence: the IP id only
        # carries seq mod 2^16 and no surviving byte broke the tie
        # between trial epochs.  These are (near-)always deeply
        # truncated frames; classify the damage without claiming a
        # sequence rather than guessing the wrong epoch.
        assert match.ambiguous
        return ClassifiedPacket(
            record=record,
            packet_class=PacketClass.TRUNCATED
            if length < FRAME_BYTES
            else PacketClass.WRAPPER_DAMAGED,
            truncated_bytes_missing=max(0, FRAME_BYTES - length),
        )
    if match.exact:
        return ClassifiedPacket(
            record=record,
            packet_class=PacketClass.UNDAMAGED,
            sequence=sequence,
        )
    if length < FRAME_BYTES:
        return ClassifiedPacket(
            record=record,
            packet_class=PacketClass.TRUNCATED,
            sequence=sequence,
            truncated_bytes_missing=FRAME_BYTES - length,
        )
    syndrome = extract_syndrome(data, sequence, matcher.factory)
    if syndrome.body_bits_damaged > 0:
        packet_class = PacketClass.BODY_DAMAGED
    elif syndrome.wrapper_damaged:
        packet_class = PacketClass.WRAPPER_DAMAGED
    else:
        packet_class = PacketClass.UNDAMAGED
    return ClassifiedPacket(
        record=record,
        packet_class=packet_class,
        sequence=sequence,
        syndrome=syndrome,
        wrapper_damaged=syndrome.wrapper_damaged,
        body_bits_damaged=syndrome.body_bits_damaged,
    )
