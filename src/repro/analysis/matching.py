"""Heuristic test-packet identification and sequence recovery.

The paper (Section 4): "we ... use a heuristic matching procedure to
determine whether a given packet is one of the test series" and "a
second heuristic procedure to determine the sequence number of any
packet we believe is a test packet."

The test packets were designed for this: the body is a single 32-bit
word repeated 256 times, so a **majority vote over the body words**
recovers the sequence number through substantial corruption, and the
wrapper can then be compared against the expected header bytes for that
sequence.  The procedure here:

1. *Fast path* — frame is full length, body words unanimous, wrapper
   byte-identical to the expected frame: undamaged test packet.
2. *Voting path* — take all complete 32-bit words from the (possibly
   truncated) body region, find the plurality value; if it wins enough
   support and implies a plausible sequence number, score the wrapper
   against the expected template.  A combined body+wrapper score above
   threshold ⇒ test packet.
3. *Header path* — when the body is gone (deep truncation) or garbled
   beyond voting, a near-perfect header still identifies a test packet
   and the IP identification field (which the sender loads with the low
   16 bits of the sequence number) recovers the sequence.
4. Otherwise ⇒ outsider.  (The paper: "It is possible ... that some
   packets we identify as outsiders may instead be badly corrupted test
   packets."  The same ambiguity shrinks but persists here, and the
   integration tests measure how rarely it bites.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs
from repro.framing.testpacket import (
    BODY_START,
    FRAME_BYTES,
    TestPacketFactory,
    TestPacketSpec,
    WORD_BYTES,
)
from repro.trace.records import PacketRecord

# Minimum complete body words needed before a majority vote is trusted.
MIN_WORDS_FOR_VOTE = 8
# The winning word must carry at least this fraction of the vote.  The
# bar can be low because corrupted words scatter to essentially unique
# values (a 12% plurality among 100+ words is overwhelming) and a voted
# match must still pass the wrapper-score check.
MIN_VOTE_FRACTION = 0.12
# Sequence numbers this far beyond the number of packets sent are
# implausible and rejected.
SEQUENCE_SLACK = 16
# Fraction of wrapper bytes that must match the expected template for a
# voted match to be accepted (guards against foreign frames whose
# payload happens to repeat a word).
MIN_WRAPPER_SCORE = 0.5
# Header-led fallback: when the body is gone (deep truncation) or too
# corrupted to vote, an almost-intact header still identifies a test
# packet, and the IP identification field carries the low 16 bits of
# the sequence number.  The bar is high because the header is short.
MIN_HEADER_SCORE = 0.85
IP_ID_OFFSET = 20  # bytes: modem(2) + eth(14) + ip version..ttl(4)


def _plurality(words: np.ndarray) -> tuple[int, int]:
    """Winning word value and its count over an int array.

    Ties break toward the value that occurs *first* in ``words`` —
    the behaviour ``collections.Counter.most_common`` had here (its
    sort is stable over insertion order), preserved so the voting
    verdicts are bit-compatible with the old implementation.
    """
    values, first, counts = np.unique(
        words, return_index=True, return_counts=True
    )
    best = counts.max()
    tied = counts == best
    winner = values[tied][np.argmin(first[tied])]
    return int(winner), int(best)


class MatchOutcome(enum.Enum):
    """Verdict of the matching procedure for one record."""

    TEST_PACKET = "test"
    OUTSIDER = "outsider"


@dataclass
class MatchResult:
    """Outcome plus the recovered sequence number (test packets only)."""

    outcome: MatchOutcome
    sequence: Optional[int] = None
    exact: bool = False  # fast path: byte-identical to the pristine frame
    vote_fraction: float = 0.0
    wrapper_score: float = 0.0
    # True when the body was useless and the headers (plus the IP
    # identification field) carried the identification.
    header_led: bool = False
    # True when the record is confidently a test packet but the exact
    # sequence could not be pinned down (the IP id only carries the low
    # 16 bits; in trials longer than 2^16 packets several sequences
    # share it, and the bytes that could break the tie were damaged or
    # missing).  ``sequence`` is None in that case.
    ambiguous: bool = False


def _path_counter_name(result: MatchResult) -> str:
    """Which ``match.*`` counter a finished match result lands in."""
    if result.outcome is MatchOutcome.OUTSIDER:
        return "match.outsiders"
    if result.exact:
        return "match.fast_path_hits"
    if result.ambiguous:
        return "match.header_ambiguous"
    if result.header_led:
        return "match.header_path_hits"
    return "match.voting_path_hits"


class TraceMatcher:
    """Matches records against one trial's test-packet series.

    Holds the spec (the experimenters knew their own configuration) and
    the number of packets sent (they ran the sender), which bounds
    plausible sequence numbers.
    """

    def __init__(self, spec: TestPacketSpec, packets_sent: int) -> None:
        self.spec = spec
        self.packets_sent = packets_sent
        self.factory = TestPacketFactory(spec)
        self._bank: Optional[np.ndarray] = None

    def enable_template_cache(self, max_records: int = 65_536) -> bool:
        """Precompute the full template bank for this trial's sequences.

        The fast path's dominant cost on clean traffic is rebuilding
        expected frames (:meth:`TestPacketFactory.build_bulk`) for every
        candidate row.  A batch run pays that once per trace; a
        long-lived ingest session (:mod:`repro.serve`) matching many
        streams of the same series would pay it per chunk, forever.
        Caching every possible template turns the rebuild into a row
        gather.  Declined (returns False) when the bank would exceed
        ``max_records`` rows (~1 KB each) — the cache is a speed/memory
        trade the caller opts into, never a surprise allocation.
        """
        total = self.packets_sent + SEQUENCE_SLACK
        if total > max_records:
            return False
        if self._bank is None:
            self._bank = self.factory.build_bulk(
                np.arange(total, dtype=np.int64)
            )
        return True

    def _template_rows(self, sequences: np.ndarray) -> np.ndarray:
        """Expected frames for ``sequences``: cached gather or rebuild."""
        if self._bank is not None:
            return self._bank[sequences]
        return self.factory.build_bulk(sequences)

    # ------------------------------------------------------------------
    def match(self, record: PacketRecord) -> MatchResult:
        """Classify one record as test packet (with sequence) or outsider."""
        return self.match_bytes(record.data)

    def match_bytes(self, data: bytes, skip_fast: bool = False) -> MatchResult:
        """Like :meth:`match` for callers that already hold the bytes.

        ``skip_fast`` elides the exact-comparison fast path; callers use
        it after :meth:`match_bulk` has already proven the record is not
        byte-identical to any plausible template.
        """
        state = _obs.STATE
        if not state.enabled:
            return self._match_impl(data, skip_fast)
        if state.profiling:
            with state.metrics.timer("profile.match").time():
                result = self._match_impl(data, skip_fast)
        else:
            result = self._match_impl(data, skip_fast)
        state.metrics.counter(_path_counter_name(result)).inc()
        return result

    def match_bulk(self, datas: Sequence[bytes]) -> list[Optional[MatchResult]]:
        """Batched fast path over many records at once.

        Returns one entry per input: a fast-path :class:`MatchResult`
        where the record is byte-identical to its expected frame, else
        ``None`` (caller falls back to ``match_bytes(data,
        skip_fast=True)``).  The criteria are exactly those of
        :meth:`_fast_match` — full length, unanimous body words,
        plausible sequence, byte equality against the template bank —
        evaluated as whole-matrix reductions.
        """
        results: list[Optional[MatchResult]] = [None] * len(datas)
        full_rows = [i for i, data in enumerate(datas) if len(data) == FRAME_BYTES]
        if not full_rows:
            return results
        matrix = np.frombuffer(
            b"".join(datas[i] for i in full_rows), dtype=np.uint8
        ).reshape(len(full_rows), FRAME_BYTES)
        for row, match in enumerate(self.match_matrix(matrix)):
            results[full_rows[row]] = match
        return results

    def match_matrix(
        self, matrix: np.ndarray
    ) -> list[Optional[MatchResult]]:
        """The fast path over an ``(n, FRAME_BYTES)`` uint8 matrix.

        The columnar analysis path (:class:`repro.trace.columnar
        .ColumnarTrace`) feeds frame matrices straight off the
        memory-mapped payload — no per-record bytes objects are ever
        created for the rows this method resolves.  Same contract as
        :meth:`match_bulk`: a fast-path result per exactly-matching
        row, ``None`` elsewhere.
        """
        results: list[Optional[MatchResult]] = [None] * matrix.shape[0]
        if not matrix.shape[0]:
            return results
        exact, sequences = self.match_matrix_arrays(matrix)
        for row in np.nonzero(exact)[0].tolist():
            results[row] = MatchResult(
                MatchOutcome.TEST_PACKET,
                sequence=int(sequences[row]),
                exact=True,
                vote_fraction=1.0,
                wrapper_score=1.0,
            )
        return results

    def match_matrix_arrays(
        self, matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The fast path as pure arrays: no per-row result objects.

        Returns ``(exact, sequences)`` — a bool mask of rows that are
        byte-identical to their expected frame, and the matched
        sequence per hit row (-1 elsewhere).  This is the whole per-row
        cost for clean traffic; consumers that only need verdict
        columns (the streaming classifier) skip :class:`MatchResult`
        construction entirely and stay vectorized end to end.
        """
        n = matrix.shape[0]
        exact = np.zeros(n, dtype=bool)
        matched = np.full(n, -1, dtype=np.int64)
        if not n:
            return exact, matched
        if self._bank is not None:
            # Template-bank route (the streaming hot path): the first
            # body word alone names the candidate sequence, the cached
            # bank row is a cheap gather, and one whole-row equality
            # settles it.  Byte equality against the template *implies*
            # body unanimity (the template's body is one word repeated),
            # so the unanimity prefilter below is redundant here — the
            # verdicts are identical, minus two full-matrix passes and
            # two fancy-index copies.  Rows are compared as u64 lanes
            # (FRAME_BYTES is 8-aligned) to shrink the boolean temp 8x.
            word = np.ascontiguousarray(
                matrix[:, BODY_START : BODY_START + 4]
            ).view(">u4")[:, 0]
            sequences = (
                word.astype(np.int64) - self.spec.first_sequence
            ) & 0xFFFFFFFF
            plausible = sequences < self.packets_sent + SEQUENCE_SLACK
            first = int(sequences[0])
            if (
                first + n <= self._bank.shape[0]
                and bool(
                    (sequences == np.arange(first, first + n)).all()
                )
            ):
                # In-order chunk of a mostly-clean stream: the
                # candidate sequences are consecutive, so the bank rows
                # are one contiguous *view* — no fancy-index copy of
                # FRAME_BYTES per record, which at streaming rates is
                # the single largest memory cost of the whole kernel.
                bank = self._bank[first : first + n]
            else:
                bank = self._bank[np.where(plausible, sequences, 0)]
            if matrix.flags.c_contiguous:
                hit = (
                    matrix.view(np.uint64) == bank.view(np.uint64)
                ).all(axis=1)
            else:
                hit = (matrix == bank).all(axis=1)
            hit &= plausible
            exact[hit] = True
            matched[hit] = sequences[hit]
        else:
            # Bankless route (one-shot batch callers): keep the body
            # unanimity prefilter so templates are only *built* for
            # plausible candidates — build_bulk dwarfs the filter cost.
            body = np.ascontiguousarray(
                matrix[:, BODY_START : FRAME_BYTES - 4]
            ).view(">u4")
            unanimous = (body == body[:, :1]).all(axis=1)
            sequences = (
                body[:, 0].astype(np.int64) - self.spec.first_sequence
            ) & 0xFFFFFFFF
            candidates = unanimous & (
                sequences < self.packets_sent + SEQUENCE_SLACK
            )
            if candidates.any():
                rows = np.nonzero(candidates)[0]
                bank = self._template_rows(sequences[rows])
                hit = (matrix[rows] == bank).all(axis=1)
                hit_rows = rows[hit]
                exact[hit_rows] = True
                matched[hit_rows] = sequences[hit_rows]
        state = _obs.STATE
        if state.enabled:
            hits = int(exact.sum())
            if hits:
                state.metrics.counter("match.fast_path_hits").inc(hits)
        return exact, matched

    def match_records_arrays(
        self, records: Sequence[PacketRecord]
    ) -> tuple[np.ndarray, np.ndarray, list[Optional[bytes]]]:
        """The fast path over a chunk of records, bytes left lazy.

        Returns ``(exact, sequences, datas)``: the
        :meth:`match_matrix_arrays` verdict per record plus a bytes
        list populated *only* for the rows the fast path did not
        resolve (exactly the rows a caller must run the scalar
        fallback on).  Records stored as pristine references to this
        matcher's own spec are resolved without ever materializing
        their frames: ``record.data`` is *defined* as
        ``factory.build(sequence)``, and with equal specs that is
        byte-identical to the template the fast path would compare it
        against — so byte equality holds by construction and only the
        sequence-plausibility bound needs checking.  Explicit
        full-length rows still go through the whole-matrix comparison.
        """
        n = len(records)
        exact = np.zeros(n, dtype=bool)
        matched = np.full(n, -1, dtype=np.int64)
        datas: list[Optional[bytes]] = [None] * n
        if not n:
            return exact, matched, datas
        spec_ok: dict[int, bool] = {}
        pristine_rows: list[int] = []
        pristine_seqs: list[int] = []
        explicit_full: list[int] = []
        for index, record in enumerate(records):
            data = record._data
            if data is None:
                ref = record._pristine_ref
                if ref is not None:
                    factory = ref[0]
                    known = spec_ok.get(id(factory))
                    if known is None:
                        known = factory.spec == self.spec
                        spec_ok[id(factory)] = known
                    if known:
                        pristine_rows.append(index)
                        pristine_seqs.append(ref[1])
                        continue
                data = record.data  # foreign spec: no shortcut
                datas[index] = data
            else:
                datas[index] = data
            if len(data) == FRAME_BYTES:
                explicit_full.append(index)
        if pristine_rows:
            rows = np.asarray(pristine_rows, dtype=np.int64)
            seqs = np.asarray(pristine_seqs, dtype=np.int64)
            plausible = seqs < self.packets_sent + SEQUENCE_SLACK
            hit_rows = rows[plausible]
            exact[hit_rows] = True
            matched[hit_rows] = seqs[plausible]
            state = _obs.STATE
            if state.enabled and hit_rows.size:
                state.metrics.counter("match.fast_path_hits").inc(
                    int(hit_rows.size)
                )
            for row in rows[~plausible].tolist():
                datas[row] = records[row].data  # implausible: fall back
        if explicit_full:
            matrix = np.frombuffer(
                b"".join(datas[i] for i in explicit_full), dtype=np.uint8
            ).reshape(len(explicit_full), FRAME_BYTES)
            ex, seqs = self.match_matrix_arrays(matrix)
            rows = np.asarray(explicit_full, dtype=np.int64)
            hit_rows = rows[ex]
            exact[hit_rows] = True
            matched[hit_rows] = seqs[ex]
        return exact, matched, datas

    def _match_impl(self, data: bytes, skip_fast: bool = False) -> MatchResult:
        if not skip_fast:
            fast = self._fast_match(data)
            if fast is not None:
                return fast
        voted = self._voting_match(data)
        if voted.outcome is MatchOutcome.TEST_PACKET:
            return voted
        header = self._header_match(data)
        if header is not None:
            return header
        return voted

    # ------------------------------------------------------------------
    def _fast_match(self, data: bytes) -> Optional[MatchResult]:
        """Exact comparison for the common undamaged case."""
        if len(data) != FRAME_BYTES:
            return None
        body = np.frombuffer(data, dtype=">u4", count=-1, offset=BODY_START)
        # The final 4 bytes are the FCS, not a body word.
        body = body[: (FRAME_BYTES - BODY_START - 4) // WORD_BYTES]
        if not bool((body == body[0]).all()):
            return None
        sequence = self._sequence_from_word(int(body[0]))
        if sequence is None:
            return None
        if data == self.factory.build(sequence):
            return MatchResult(
                MatchOutcome.TEST_PACKET,
                sequence=sequence,
                exact=True,
                vote_fraction=1.0,
                wrapper_score=1.0,
            )
        return None  # fall through to the voting path

    def _voting_match(self, data: bytes) -> MatchResult:
        """Majority vote over body words + wrapper scoring."""
        body_bytes = data[BODY_START:]
        # Exclude a trailing FCS only when the frame is full length; a
        # truncated frame's tail is body bytes.
        if len(data) == FRAME_BYTES:
            body_bytes = data[BODY_START : FRAME_BYTES - 4]
        complete_words = len(body_bytes) // WORD_BYTES
        if complete_words < MIN_WORDS_FOR_VOTE:
            return MatchResult(MatchOutcome.OUTSIDER)
        words = np.frombuffer(
            body_bytes[: complete_words * WORD_BYTES], dtype=">u4"
        )
        winner, winner_count = _plurality(words.astype(np.int64))
        vote_fraction = winner_count / complete_words
        if vote_fraction < MIN_VOTE_FRACTION:
            return MatchResult(MatchOutcome.OUTSIDER, vote_fraction=vote_fraction)
        sequence = self._sequence_from_word(int(winner))
        if sequence is None:
            return MatchResult(MatchOutcome.OUTSIDER, vote_fraction=vote_fraction)
        wrapper_score = self._wrapper_score(data, sequence)
        if wrapper_score < MIN_WRAPPER_SCORE:
            return MatchResult(
                MatchOutcome.OUTSIDER,
                vote_fraction=vote_fraction,
                wrapper_score=wrapper_score,
            )
        return MatchResult(
            MatchOutcome.TEST_PACKET,
            sequence=sequence,
            vote_fraction=vote_fraction,
            wrapper_score=wrapper_score,
        )

    # ------------------------------------------------------------------
    def _sequence_from_word(self, word: int) -> Optional[int]:
        """Map a recovered body word back to a plausible sequence number."""
        sequence = (word - self.spec.first_sequence) & 0xFFFFFFFF
        if sequence >= self.packets_sent + SEQUENCE_SLACK:
            return None
        return sequence

    def _wrapper_score(self, data: bytes, sequence: int) -> float:
        """Fraction of received header bytes matching the expected frame.

        Only the leading wrapper (modem + Ethernet + IP + UDP headers)
        is scored: the FCS trailer is absent from truncated frames.
        """
        expected = self.factory.build(sequence)
        prefix_len = min(len(data), BODY_START)
        if prefix_len == 0:
            return 0.0
        received = np.frombuffer(data[:prefix_len], dtype=np.uint8)
        template = np.frombuffer(expected[:prefix_len], dtype=np.uint8)
        return float((received == template).mean())


    def _header_match(self, data: bytes) -> Optional[MatchResult]:
        """Header-led identification for body-destroyed packets.

        The paper's tooling did the analogous thing ("frequently we
        could determine that they were ARP packets" — and conversely,
        corrupted-station-address packets "associated with our test
        packets").  Requirements: enough prefix to read the IP id, an
        almost-intact wrapper (scored against the template with the
        sequence-dependent bytes excluded), and a plausible sequence in
        the id field.
        """
        if len(data) < IP_ID_OFFSET + 2:
            return None
        candidate_id = int.from_bytes(data[IP_ID_OFFSET : IP_ID_OFFSET + 2], "big")
        # The id carries seq mod 2^16, so every sequence congruent to it
        # below the plausibility bound is a candidate.  Trials of up to
        # 2^16 packets have at most one; longer trials (office5 at full
        # scale is 488k packets) alias seven or eight and need the
        # tie-break below.
        candidates = list(
            range(candidate_id, self.packets_sent + SEQUENCE_SLACK, 1 << 16)
        )
        if not candidates:
            return None
        # Score the wrapper once: the sequence-dependent bytes (IP
        # id+checksum, UDP checksum) are excluded because they prove
        # nothing beyond the id we already read — and with them masked,
        # every candidate's template is byte-identical in the prefix.
        expected = self.factory.build(candidates[0])
        prefix_len = min(len(data), BODY_START)
        received = np.frombuffer(data[:prefix_len], dtype=np.uint8)
        template = np.frombuffer(expected[:prefix_len], dtype=np.uint8)
        matches = received == template
        exclude = [20, 21, 26, 27, 42, 43]
        keep = np.ones(prefix_len, dtype=bool)
        for index in exclude:
            if index < prefix_len:
                keep[index] = False
        score = float(matches[keep].mean()) if keep.any() else 0.0
        if score < MIN_HEADER_SCORE:
            return None
        if len(candidates) == 1:
            sequence, ambiguous = candidates[0], False
        else:
            sequence, ambiguous = self._disambiguate(data, candidates)
        return MatchResult(
            MatchOutcome.TEST_PACKET,
            sequence=sequence,
            wrapper_score=score,
            header_led=True,
            ambiguous=ambiguous,
        )

    def _disambiguate(
        self, data: bytes, candidates: list[int]
    ) -> tuple[Optional[int], bool]:
        """Pick among sequences that share the same low 16 bits.

        Only bytes that depend on the *full* 32-bit sequence can break
        the tie: the UDP checksum (folded over the body word) and any
        surviving body bytes.  The IP id and IP checksum cannot — they
        are functions of seq mod 2^16 alone, identical for every
        candidate.  A unique best-scoring candidate wins; a tie (or no
        discriminating bytes at all) is reported as ambiguous rather
        than silently resolved to the wrong trial epoch.
        """
        length = min(len(data), FRAME_BYTES)
        scores = []
        for candidate in candidates:
            expected = self.factory.build(candidate)
            score = 0
            for index in (42, 43):  # UDP checksum
                if index < length and data[index] == expected[index]:
                    score += 1
            if length > BODY_START:
                received = np.frombuffer(data[BODY_START:length], dtype=np.uint8)
                template = np.frombuffer(
                    expected[BODY_START:length], dtype=np.uint8
                )
                score += int((received == template).sum())
            scores.append(score)
        best = max(scores)
        winners = [c for c, s in zip(candidates, scores) if s == best]
        if best > 0 and len(winners) == 1:
            return winners[0], False
        return None, True


def match_record(
    record: PacketRecord, spec: TestPacketSpec, packets_sent: int
) -> MatchResult:
    """One-shot convenience wrapper around :class:`TraceMatcher`."""
    return TraceMatcher(spec, packets_sent).match(record)
