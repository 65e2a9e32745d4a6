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
    BODY_END,
    BODY_START,
    FRAME_BYTES,
    IP_ID_OFFSET,
    SEQUENCE_BYTE_OFFSETS,
    UDP_CHECKSUM_OFFSET,
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


def _plurality(words: np.ndarray) -> tuple[int, int]:
    """Winning word value and its count over an int array.

    Ties break toward the value that occurs *first* in ``words`` —
    the behaviour ``collections.Counter.most_common`` had here (its
    sort is stable over insertion order), preserved so the voting
    verdicts are bit-compatible with the old implementation.  A strict
    majority for the first word is the unique plurality under any tie
    rule, so the common lightly damaged body costs one comparison; any
    other vote runs :func:`_plurality_unique`.
    """
    count = int(np.count_nonzero(words == words[0]))
    if 2 * count > len(words):
        return int(words[0]), count
    return _plurality_unique(words)


def _plurality_unique(words: np.ndarray) -> tuple[int, int]:
    """:func:`_plurality` of any vote, through one ``np.unique`` sort."""
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

    # ------------------------------------------------------------------
    def match(self, record: PacketRecord) -> MatchResult:
        """Classify one record as test packet (with sequence) or outsider."""
        return self.match_bytes(record.data)

    def match_bytes(self, data: bytes, skip_fast: bool = False) -> MatchResult:
        """Like :meth:`match` for callers that already hold the bytes.

        ``skip_fast`` elides the exact-comparison fast path; callers use
        it after :meth:`match_matrix_arrays` has already proven the
        record is not byte-identical to any plausible sent frame.
        """
        result = self._match_impl(data, skip_fast)
        state = _obs.STATE
        if state.enabled:
            state.metrics.counter(_path_counter_name(result)).inc()
        return result

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

        No expected frame is built.  A row equals ``build(seq)`` exactly
        when three vectorized checks hold: its 256 body words all equal
        the first, which names a plausible ``seq``; its header equals
        the trial's constant header with ``seq``'s six varying bytes;
        and its FCS equals the one
        :meth:`~repro.framing.testpacket.TestPacketFactory.wrapper_bulk`
        derives from those bytes alone.
        """
        matrix = np.ascontiguousarray(matrix)
        # Equality is byte-order blind, so rows compare as native 32-bit
        # lanes (header, body and FCS are each whole words long), and the
        # body words are unanimous exactly when their min is their max.
        words = matrix[:, BODY_START:BODY_END].view(np.uint32)
        unanimous = words.min(axis=1) == words.max(axis=1)
        first_word = matrix[:, BODY_START : BODY_START + WORD_BYTES].view(">u4")
        sequences = (
            first_word[:, 0].astype(np.int64) - self.spec.first_sequence
        ) & 0xFFFFFFFF
        exact = unanimous & (sequences < self.packets_sent + SEQUENCE_SLACK)
        headers, _, fcs = self.factory.wrapper_bulk(sequences)
        exact &= (
            matrix[:, :BODY_START].view(np.uint32) == headers.view(np.uint32)
        ).all(axis=1)
        exact &= matrix[:, BODY_END:].view(np.uint32)[:, 0] == fcs.view(np.uint32)[:, 0]
        matched = np.where(exact, sequences, -1)
        state = _obs.STATE
        if state.enabled:
            hits = int(exact.sum())
            if hits:
                state.metrics.counter("match.fast_path_hits").inc(hits)
        return exact, matched

    def match_records_arrays(self, records: Sequence[PacketRecord]):
        """Exists only because ``perfbench/layertrace.py`` wraps
        ``TraceMatcher.match_records_arrays`` by name; nothing calls it.
        Record lists are columnarized and matched through
        :meth:`match_matrix_arrays`."""
        raise NotImplementedError("records are matched as columns")

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
        received = np.frombuffer(data, dtype=np.uint8, count=prefix_len)
        template = np.frombuffer(expected, dtype=np.uint8, count=prefix_len)
        return np.count_nonzero(received == template) / prefix_len


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
        keep = np.ones(prefix_len, dtype=bool)
        for index in SEQUENCE_BYTE_OFFSETS:
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
            for index in (UDP_CHECKSUM_OFFSET, UDP_CHECKSUM_OFFSET + 1):
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
