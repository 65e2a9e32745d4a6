"""Property-based tests on the analysis pipeline.

The central invariant: whatever damage the channel inflicts (bit flips
outside the body's majority, truncation keeping enough words), the
matcher recovers the true sequence number, and the syndrome equals the
inflicted damage exactly.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.matching import SEQUENCE_SLACK, MatchOutcome, TraceMatcher
from repro.analysis.syndrome import extract_syndrome
from repro.framing.bits import flip_bits
from repro.framing.testpacket import (
    BODY_END,
    BODY_START,
    FRAME_BYTES,
    TestPacketFactory,
    TestPacketSpec,
)

_SPEC = TestPacketSpec.default()
_FACTORY = TestPacketFactory(_SPEC)
_MATCHER = TraceMatcher(_SPEC, packets_sent=1_000)

sequences = st.integers(0, 999)
flip_sets = st.sets(st.integers(0, FRAME_BYTES * 8 - 1), max_size=120)


class TestMatcherProperties:
    @given(sequences)
    @settings(max_examples=30, deadline=None)
    def test_pristine_always_exact(self, sequence):
        result = _MATCHER.match_bytes(_FACTORY.build(sequence))
        assert result.exact and result.sequence == sequence

    @given(sequences, flip_sets)
    @settings(max_examples=60, deadline=None)
    def test_sequence_recovered_under_scattered_damage(self, sequence, flips):
        """Up to 120 scattered bit flips never defeat the majority vote
        (120 flips can corrupt at most 120 of 255 non-FCS words) — as
        long as they don't wipe out most of the wrapper, which is the
        legitimate "corrupted beyond recognition" case the paper also
        has."""
        wrapper_bytes_hit = {p // 8 for p in flips if p < BODY_START * 8}
        assume(len(wrapper_bytes_hit) <= BODY_START // 2 - 2)
        positions = np.array(sorted(flips), dtype=np.int64)
        damaged = flip_bits(_FACTORY.build(sequence), positions)
        result = _MATCHER.match_bytes(damaged)
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == sequence

    @given(sequences, st.integers(BODY_START + 40, FRAME_BYTES - 1))
    @settings(max_examples=40, deadline=None)
    def test_sequence_recovered_under_truncation(self, sequence, keep):
        damaged = _FACTORY.build(sequence)[:keep]
        result = _MATCHER.match_bytes(damaged)
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == sequence


class TestExactMatchProperties:
    @given(
        first_sequence=st.integers(0, 2**32 - 1),
        packets_sent=st.integers(1, 200_000),
        sequence=st.integers(0, 250_000),
        position=st.one_of(
            st.none(),
            st.integers(0, BODY_START - 1),
            st.integers(BODY_START, BODY_END - 1),
            st.integers(BODY_END, FRAME_BYTES - 1),
        ),
        mask=st.integers(1, 255),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_iff_sent_frame_and_plausible(
        self, first_sequence, packets_sent, sequence, position, mask
    ):
        """The bulk fast path calls a row exact exactly when it is the
        sent frame of a plausible sequence, whatever single byte of
        header, body or FCS is XORed."""
        spec = replace(_SPEC, first_sequence=first_sequence)
        factory = TestPacketFactory(spec)
        frame = bytearray(factory.build(sequence))
        if position is not None:
            frame[position] ^= mask
        matrix = np.frombuffer(bytes(frame), dtype=np.uint8).reshape(1, -1)
        exact, matched = TraceMatcher(spec, packets_sent).match_matrix_arrays(matrix)
        expected = (
            bytes(frame) == factory.build(sequence)
            and sequence < packets_sent + SEQUENCE_SLACK
        )
        assert bool(exact[0]) == expected
        assert matched[0] == (sequence if expected else -1)


class TestSyndromeProperties:
    @given(sequences, flip_sets)
    @settings(max_examples=60, deadline=None)
    def test_syndrome_equals_inflicted_damage(self, sequence, flips):
        """extract_syndrome is the exact inverse of flip_bits."""
        positions = np.array(sorted(flips), dtype=np.int64)
        damaged = flip_bits(_FACTORY.build(sequence), positions)
        syndrome = extract_syndrome(damaged, sequence, _FACTORY)
        body_lo, body_hi = BODY_START * 8, (BODY_START + 1024) * 8
        expected_body = sorted(
            p - body_lo for p in flips if body_lo <= p < body_hi
        )
        expected_wrapper = sorted(p for p in flips if not body_lo <= p < body_hi)
        assert syndrome.body_bit_positions.tolist() == expected_body
        assert syndrome.wrapper_bit_positions.tolist() == expected_wrapper

    @given(sequences)
    @settings(max_examples=20, deadline=None)
    def test_clean_frame_has_empty_syndrome(self, sequence):
        syndrome = extract_syndrome(_FACTORY.build(sequence), sequence, _FACTORY)
        assert not syndrome.damaged
