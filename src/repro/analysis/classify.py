"""Per-packet damage classification.

Mirrors the packet classes of the paper's tables (e.g. Table 3):
undamaged, truncated, wrapper damaged, body damaged, and outsiders
(undamaged/damaged).  A packet can be both wrapper- and body-damaged;
like the paper's tables we give body damage precedence for the primary
class but keep both flags.

Classification is *incremental at heart*: :class:`IncrementalClassifier`
consumes columnar frame chunks as they arrive, runs each chunk through
the batched matching fast path, and keeps running verdict columns,
per-class counts and the damaged rows' syndromes.  Because every
verdict depends only on its own record's bytes, chunk boundaries never
change the output — :func:`classify_trace` is a thin wrapper that feeds
a whole trial through one classifier, and a streaming consumer
(:mod:`repro.serve`) feeds the same machinery one network chunk at a
time with byte-identical results.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analysis.matching import MatchOutcome, MatchResult, TraceMatcher
from repro.analysis.syndrome import ErrorSyndrome, extract_syndrome
from repro.obs import runtime as _obs
from repro.framing.crc import check_fcs
from repro.framing.modem import NETWORK_ID_LEN
from repro.framing.testpacket import FRAME_BYTES
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import PacketRecord

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
TEST_CLASSES = tuple(cls for cls in CLASS_ORDER if cls.is_test_packet)
OUTSIDER_CLASSES = tuple(cls for cls in CLASS_ORDER if not cls.is_test_packet)


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
    """A whole trial's classification output.

    The trace, its verdict columns (see
    :meth:`IncrementalClassifier.verdict_columns`) and a row-to-syndrome
    map for the damaged rows.  Consumers that summarize read the
    columns; :attr:`packets`, :meth:`by_class`, :attr:`test_packets` and
    :attr:`outsiders` build :class:`ClassifiedPacket` objects on access,
    for the rows asked for.
    """

    trace: ColumnarTrace
    columns: dict
    syndromes: dict[int, ErrorSyndrome] = field(default_factory=dict)

    @property
    def class_codes(self) -> np.ndarray:
        return self.columns["class_codes"]

    def rows(self, *classes: PacketClass) -> np.ndarray:
        """Indices of the rows whose primary class is in ``classes``."""
        codes = np.array([CLASS_CODE[cls] for cls in classes], dtype=np.uint8)
        return np.nonzero(np.isin(self.class_codes, codes))[0]

    @property
    def test_rows(self) -> np.ndarray:
        return self.rows(*TEST_CLASSES)

    def packet(self, index: int) -> ClassifiedPacket:
        columns = self.columns
        sequence = int(columns["sequences"][index])
        return ClassifiedPacket(
            record=self.trace.record(index),
            packet_class=CLASS_ORDER[columns["class_codes"][index]],
            sequence=None if sequence < 0 else sequence,
            syndrome=self.syndromes.get(index),
            wrapper_damaged=bool(columns["wrapper_damaged"][index]),
            body_bits_damaged=int(columns["body_bits_damaged"][index]),
            truncated_bytes_missing=int(columns["truncated_missing"][index]),
        )

    def _packets(self, rows: np.ndarray) -> list[ClassifiedPacket]:
        return [self.packet(index) for index in rows.tolist()]

    @property
    def packets(self) -> list[ClassifiedPacket]:
        return self._packets(np.arange(len(self.class_codes)))

    def by_class(self, *classes: PacketClass) -> list[ClassifiedPacket]:
        return self._packets(self.rows(*classes))

    @property
    def test_packets(self) -> list[ClassifiedPacket]:
        return self._packets(self.test_rows)

    @property
    def outsiders(self) -> list[ClassifiedPacket]:
        return self._packets(self.rows(*OUTSIDER_CLASSES))

    def syndromes_of(self, *classes: PacketClass) -> list[ErrorSyndrome]:
        """The syndromes of the rows in ``classes``, in row order."""
        return [
            self.syndromes[index]
            for index in self.rows(*classes).tolist()
            if index in self.syndromes
        ]

    def class_counts(self) -> dict[PacketClass, int]:
        """Packets per primary class.  Conservation invariant: the
        values always sum to the row count — trivially (and importantly
        for streaming consumers) also for empty traces."""
        counts = np.bincount(self.class_codes, minlength=len(CLASS_ORDER))
        return dict(zip(CLASS_ORDER, counts.tolist()))

    @classmethod
    def concat(
        cls, parts: Sequence["ClassifiedTrace"], name: Optional[str] = None
    ) -> "ClassifiedTrace":
        """Join classified traces row-wise, as :meth:`ColumnarTrace.concat`
        joins their traces: verdict columns concatenate, and each part's
        syndrome keys shift by the rows before it.  Every verdict stays
        the one its part's own classifier gave."""
        syndromes: dict[int, ErrorSyndrome] = {}
        offset = 0
        for part in parts:
            for row, syndrome in part.syndromes.items():
                syndromes[offset + row] = syndrome
            offset += len(part.class_codes)
        return cls(
            trace=ColumnarTrace.concat([part.trace for part in parts], name=name),
            columns=_concat_columns([part.columns for part in parts]),
            syndromes=syndromes,
        )


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
    chunks as they arrive — columnar slices via :meth:`feed_columnar`,
    record lists via :meth:`feed_records` — in any chunking; every
    verdict depends only on its own record's bytes, so the output is
    byte-identical for chunk size 1, 7, or the whole trial.  The
    classifier keeps running verdict columns (:meth:`verdict_columns`),
    per-class counts (:attr:`class_counts`) and the damaged rows'
    syndromes (:attr:`syndromes`, keyed by fed-row index);
    :meth:`finish` wraps them into the :class:`ClassifiedTrace` the
    batch API returns.

    Zero-record traces and zero-length chunks are routine (an idle
    server session is exactly that) and feed through without raising.
    """

    def __init__(
        self,
        spec,
        packets_sent: int,
        *,
        matcher: Optional[TraceMatcher] = None,
    ) -> None:
        self.matcher = (
            matcher
            if matcher is not None
            else TraceMatcher(spec, packets_sent)
        )
        self.records_seen = 0
        self.class_counts: Counter = Counter()
        self.syndromes: dict[int, ErrorSyndrome] = {}
        self._column_chunks: list[dict] = []

    # ------------------------------------------------------------------
    def feed_records(self, records: Sequence[PacketRecord]) -> None:
        """Classify a chunk of records.

        The chunk is columnarized once and runs the same loop as
        :meth:`feed_columnar`, without calling it: each entry point
        counts its own rows.
        """
        matcher = self.matcher
        trace = ColumnarTrace.from_records(
            records, "", matcher.spec, matcher.packets_sent
        )
        self._classify(trace, 0, trace.packets_received)

    def feed_columnar(
        self,
        trace: ColumnarTrace,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        """Classify rows ``[start, stop)`` of a columnar trace."""
        n = trace.packets_received
        stop = n if stop is None else min(stop, n)
        self._classify(trace, start, stop)

    def _classify(self, trace: ColumnarTrace, start: int, stop: int) -> None:
        """The classification loop.

        Frame matrices are sliced straight off the flat payload and fed
        to :meth:`TraceMatcher.match_matrix_arrays`; its exact rows are
        *by definition* undamaged with a known sequence, so verdicts
        land straight in numpy columns and the clean majority never
        materializes a per-packet Python object.  Only the rest runs the
        scalar fallback, whose syndromes the classifier keeps.
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
            resolved = np.zeros(m, dtype=bool)
            full_local = np.nonzero(
                lengths[chunk_start:chunk_stop] == FRAME_BYTES
            )[0]
            if full_local.size:
                matrix = trace.frame_matrix(
                    chunk_start + full_local, FRAME_BYTES
                )
                exact, matched = matcher.match_matrix_arrays(matrix)
                hit_local = full_local[exact]
                resolved[hit_local] = True
                sequences[hit_local] = matched[exact]
            for offset in np.nonzero(~resolved)[0].tolist():
                data = trace.data(chunk_start + offset)
                match = matcher.match_bytes(data, skip_fast=True)
                packet_class, sequence, syndrome, missing = _classify_one(
                    matcher, data, match
                )
                codes[offset] = CLASS_CODE[packet_class]
                if sequence is not None:
                    sequences[offset] = sequence
                truncated[offset] = missing
                if syndrome is not None:
                    self.syndromes[self.records_seen + offset] = syndrome
                    wrapper[offset] = syndrome.wrapper_damaged
                    body_bits[offset] = syndrome.body_bits_damaged
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

    def feed(self, trace: ColumnarTrace) -> None:
        """Classify every row of ``trace``."""
        self.feed_columnar(trace)

    # ------------------------------------------------------------------
    def verdict_columns(self) -> dict:
        """The running verdicts as compact numpy columns.

        Same encoding the parallel handoff uses (``class_codes`` index
        :data:`CLASS_ORDER`; ``sequences`` holds -1 for "none"): cheap
        to pickle across a pool boundary or frame onto a wire.
        """
        return _concat_columns(self._column_chunks)

    def count_summary(self) -> dict[str, int]:
        """JSON-friendly per-class counts (zero-filled, conserved)."""
        return {
            cls.value: self.class_counts.get(cls, 0) for cls in CLASS_ORDER
        }

    def finish(self, trace: ColumnarTrace) -> ClassifiedTrace:
        """Wrap the running verdicts as the batch-API result object.

        ``trace`` is the trace whose rows were fed, in order.
        """
        return ClassifiedTrace(
            trace=trace,
            columns=self.verdict_columns(),
            syndromes=dict(self.syndromes),
        )


def _concat_columns(chunks: Sequence[dict]) -> dict:
    """Verdict column chunks joined in order (zero chunks: empty
    columns of the right dtypes)."""
    if len(chunks) == 1:
        return dict(chunks[0])
    if not chunks:
        return {
            "class_codes": np.zeros(0, dtype=np.uint8),
            "sequences": np.zeros(0, dtype=np.int64),
            "wrapper_damaged": np.zeros(0, dtype=bool),
            "body_bits_damaged": np.zeros(0, dtype=np.int64),
            "truncated_missing": np.zeros(0, dtype=np.int32),
        }
    return {
        key: np.concatenate([chunk[key] for chunk in chunks])
        for key in chunks[0]
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


def classify_trace(trace: ColumnarTrace) -> ClassifiedTrace:
    """Run matching + damage classification over a whole trial.

    A thin batch wrapper over :class:`IncrementalClassifier` — one
    classifier, the whole trace fed as a single chunk (the classifier
    re-chunks internally for cache friendliness), results identical to
    any streamed chunking of the same records.
    """
    classifier = IncrementalClassifier(trace.spec, trace.packets_sent)
    with _obs.trace_span("analysis.classify", records=trace.packets_received):
        classifier.feed_columnar(trace)
    return classifier.finish(trace)


def _classify_one(
    matcher: TraceMatcher, data: bytes, match: MatchResult
) -> tuple[PacketClass, Optional[int], Optional[ErrorSyndrome], int]:
    """Turn one record's match result into its verdict.

    Returns the primary class, the recovered sequence (None when there
    is none), the syndrome of a full-length matched frame, and the
    bytes truncation took.
    """
    length = len(data)
    if match.outcome is MatchOutcome.OUTSIDER:
        return _classify_outsider(data), None, None, 0
    sequence = match.sequence
    if sequence is None:
        # Confident test packet, ambiguous sequence: the IP id only
        # carries seq mod 2^16 and no surviving byte broke the tie
        # between trial epochs.  These are (near-)always deeply
        # truncated frames; classify the damage without claiming a
        # sequence rather than guessing the wrong epoch.
        assert match.ambiguous
        packet_class = (
            PacketClass.TRUNCATED
            if length < FRAME_BYTES
            else PacketClass.WRAPPER_DAMAGED
        )
        return packet_class, None, None, max(0, FRAME_BYTES - length)
    if match.exact:
        return PacketClass.UNDAMAGED, sequence, None, 0
    if length < FRAME_BYTES:
        return PacketClass.TRUNCATED, sequence, None, FRAME_BYTES - length
    syndrome = extract_syndrome(data, sequence, matcher.factory)
    if syndrome.body_bits_damaged > 0:
        packet_class = PacketClass.BODY_DAMAGED
    elif syndrome.wrapper_damaged:
        packet_class = PacketClass.WRAPPER_DAMAGED
    else:
        packet_class = PacketClass.UNDAMAGED
    return packet_class, sequence, syndrome, 0
