"""Heuristic test-packet matching and sequence recovery."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.matching import MatchOutcome, TraceMatcher, _plurality
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_START, FRAME_BYTES
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.records import PacketRecord
from repro.phy.modem import ModemRxStatus

STATUS = ModemRxStatus(29, 3, 15, 0)


@pytest.fixture
def matcher(spec):
    return TraceMatcher(spec, packets_sent=10_000)


def _record(data: bytes) -> PacketRecord:
    return PacketRecord.from_bytes(data, STATUS)


class TestPlurality:
    """The body-word vote keeps ``Counter.most_common`` semantics."""

    def test_plurality_matches_counter(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            words = rng.integers(0, 12, size=int(rng.integers(1, 60)))
            winner, count = _plurality(words.astype(np.int64))
            expected = Counter(words.tolist()).most_common(1)[0]
            assert (winner, count) == expected

    def test_plurality_tie_breaks_to_first_occurrence(self):
        assert _plurality(np.array([9, 4, 4, 9, 1])) == (9, 2)
        assert _plurality(np.array([4, 9, 9, 4, 1])) == (4, 2)


class TestExactMatch:
    def test_pristine_frame_matches_fast_path(self, matcher, factory):
        result = matcher.match(_record(factory.build(123)))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == 123
        assert result.exact

    def test_every_sequence_recoverable(self, matcher, factory):
        for sequence in (0, 1, 999, 9_999):
            assert matcher.match(_record(factory.build(sequence))).sequence == sequence


class TestVotingMatch:
    def test_survives_scattered_corruption(self, matcher, factory):
        frame = factory.build(77)
        # Flip 200 scattered bits: vote still recovers the sequence.
        rng = np.random.default_rng(0)
        positions = rng.choice(FRAME_BYTES * 8, size=200, replace=False)
        damaged = flip_bits(frame, positions)
        result = matcher.match(_record(damaged))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == 77
        assert not result.exact

    def test_survives_truncation(self, matcher, factory):
        frame = factory.build(55)[:500]
        result = matcher.match(_record(frame))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == 55

    def test_survives_truncation_plus_corruption(self, matcher, factory):
        rng = np.random.default_rng(1)
        frame = factory.build(55)[:700]
        positions = rng.choice(len(frame) * 8, size=80, replace=False)
        damaged = flip_bits(frame, positions)
        result = matcher.match(_record(damaged))
        assert result.sequence == 55

    def test_deep_truncation_recovered_by_header(self, matcher, factory):
        """Fewer than MIN_WORDS_FOR_VOTE body words survive, but the
        intact headers (and the IP id field, which carries the sequence)
        still identify the packet."""
        frame = factory.build(55)[: BODY_START + 10]
        result = matcher.match(_record(frame))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.sequence == 55
        assert result.header_led


class TestOutsiderRejection:
    def test_arp_frame_is_outsider(self, matcher, rng):
        frame = OutsiderTraffic().build_frame(rng)
        assert matcher.match(_record(frame)).outcome is MatchOutcome.OUTSIDER

    def test_implausible_sequence_rejected(self, matcher, factory):
        """A frame whose body word implies a sequence far beyond the
        number of packets sent fails the vote — though with genuine
        test-packet headers it is still (correctly) identified as a
        catastrophically corrupted test packet via the header path."""
        bogus_spec_frame = bytearray(factory.build(0))
        body = (500_000).to_bytes(4, "big") * 256
        bogus_spec_frame[BODY_START : BODY_START + 1024] = body
        result = matcher.match(_record(bytes(bogus_spec_frame)))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.header_led
        assert result.sequence == 0
        # With foreign headers as well, it is an outsider.
        foreign = bytes(44) + body + bytes(4)
        assert matcher.match(_record(foreign)).outcome is MatchOutcome.OUTSIDER

    def test_repeating_word_with_foreign_wrapper_rejected(self, matcher):
        """A foreign frame that happens to repeat a plausible word must
        fail the wrapper score."""
        body = (42).to_bytes(4, "big") * 256
        frame = bytes(FRAME_BYTES - 1024 - 4) + body + bytes(4)
        result = matcher.match(_record(frame))
        assert result.outcome is MatchOutcome.OUTSIDER
        assert result.wrapper_score < 0.5

    def test_tiny_frame_is_outsider(self, matcher):
        assert matcher.match(_record(b"\x01\x02\x03")).outcome is MatchOutcome.OUTSIDER


class TestHeaderLedMatching:
    def test_corrupt_header_rejected(self, matcher, factory):
        """A deep-truncated frame with a battered header stays an
        outsider: the header path demands a near-perfect prefix."""
        import numpy as np

        from repro.framing.bits import flip_bits

        frame = factory.build(55)[: BODY_START + 4]
        rng = np.random.default_rng(0)
        positions = rng.choice(len(frame) * 8, size=60, replace=False)
        damaged = flip_bits(frame, positions)
        assert matcher.match(_record(damaged)).outcome is MatchOutcome.OUTSIDER

    def test_implausible_ip_id_rejected(self, spec, factory):
        """A header whose id field exceeds the packets-sent bound is not
        claimed."""
        matcher = TraceMatcher(spec, packets_sent=100)
        frame = factory.build(5000)[: BODY_START + 4]  # id = 5000 > 100
        assert matcher.match(_record(frame)).outcome is MatchOutcome.OUTSIDER

    def test_too_short_for_header(self, matcher):
        assert (
            matcher.match(_record(b"\x01" * 10)).outcome
            is MatchOutcome.OUTSIDER
        )

    def test_voting_still_preferred_when_possible(self, matcher, factory):
        """When the body vote works, the result is vote-led (richer
        evidence) rather than header-led."""
        frame = factory.build(77)[:700]
        result = matcher.match(_record(frame))
        assert result.sequence == 77
        assert not result.header_led


class TestSequenceAliasing:
    """Header-led recovery in trials longer than 2^16 packets.

    The IP id only carries seq mod 2^16; the matcher must unalias
    against the trial length instead of returning the low 16 bits
    verbatim (which silently mislabeled every deep-truncated packet
    beyond sequence 65535 — e.g. 66000 came back as 464)."""

    @pytest.fixture
    def long_matcher(self, spec):
        return TraceMatcher(spec, packets_sent=70_000)

    def test_deep_truncation_beyond_two_16(self, long_matcher, factory):
        frame = factory.build(66_000)[:BODY_START]
        result = long_matcher.match(_record(frame))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.header_led
        # Never the aliased low-16-bit value.
        assert result.sequence != 66_000 - (1 << 16)
        assert result.sequence == 66_000
        assert not result.ambiguous

    def test_first_epoch_still_exact(self, long_matcher, factory):
        result = long_matcher.match(_record(factory.build(464)[:BODY_START]))
        assert result.sequence == 464
        assert not result.ambiguous

    def test_body_fragment_discriminates(self, long_matcher, factory):
        """A few surviving body bytes (too few to vote) still pick the
        right epoch."""
        frame = factory.build(66_000)[: BODY_START + 8]
        result = long_matcher.match(_record(frame))
        assert result.sequence == 66_000
        assert result.header_led

    def test_damaged_discriminators_give_ambiguous(self, long_matcher, factory):
        """With the UDP checksum corrupted and no body left, the tie
        between epochs cannot be broken: the packet is still a test
        packet, but the sequence is reported as unknown, not guessed."""
        frame = bytearray(factory.build(66_000)[:BODY_START])
        frame[42] ^= 0xFF
        frame[43] ^= 0xFF
        result = long_matcher.match(_record(bytes(frame)))
        assert result.outcome is MatchOutcome.TEST_PACKET
        assert result.ambiguous
        assert result.sequence is None

    def test_short_trial_never_ambiguous(self, matcher, factory):
        """Trials under 2^16 packets have a single candidate; behaviour
        is unchanged even with the discriminating bytes damaged."""
        frame = bytearray(factory.build(464)[:BODY_START])
        frame[42] ^= 0xFF
        frame[43] ^= 0xFF
        result = matcher.match(_record(bytes(frame)))
        assert result.sequence == 464
        assert not result.ambiguous

    def test_ambiguous_packet_classifies_as_truncated(self, spec, factory):
        """classify_trace folds an ambiguous match into the truncated
        class without claiming a sequence."""
        from repro.analysis.classify import PacketClass, classify_trace
        from repro.trace.records import TrialTrace

        damaged = bytearray(factory.build(66_000)[:BODY_START])
        damaged[42] ^= 0xFF
        damaged[43] ^= 0xFF
        trace = TrialTrace(name="t", spec=spec, packets_sent=70_000)
        trace.records.append(_record(bytes(damaged)))
        classified = classify_trace(trace)
        packet = classified.packets[0]
        assert packet.packet_class is PacketClass.TRUNCATED
        assert packet.sequence is None


class TestSequencePlausibility:
    def test_slack_window(self, spec, factory):
        matcher = TraceMatcher(spec, packets_sent=100)
        # Just beyond sent count but within slack: plausible.
        assert matcher.match(_record(factory.build(105))).sequence == 105
        # Far beyond: outsider.
        assert (
            matcher.match(_record(factory.build(500))).outcome
            is MatchOutcome.OUTSIDER
        )


class TestBulkMatching:
    """``match_bulk`` + scalar fallback must equal the scalar matcher."""

    def _mixed_batch(self, factory, rng) -> list[bytes]:
        datas: list[bytes] = []
        for sequence in (0, 1, 77, 9_999):
            datas.append(factory.build(sequence))  # pristine → bulk exact
        damaged = factory.build(55)
        positions = rng.choice(FRAME_BYTES * 8, size=200, replace=False)
        datas.append(flip_bits(damaged, positions))  # scattered corruption
        datas.append(factory.build(56)[:500])  # truncated
        datas.append(factory.build(57)[: BODY_START + 10])  # deep truncation
        datas.append(OutsiderTraffic().build_frame(rng))  # foreign frame
        datas.append(b"\x00" * FRAME_BYTES)  # full-length garbage
        return datas

    def test_bulk_exactly_equals_scalar(self, matcher, factory, rng):
        datas = self._mixed_batch(factory, rng)
        bulk = matcher.match_bulk(datas)
        for data, bulk_result in zip(datas, bulk):
            scalar = matcher.match_bytes(data)
            resolved = (
                bulk_result
                if bulk_result is not None
                else matcher.match_bytes(data, skip_fast=True)
            )
            assert resolved.outcome is scalar.outcome
            assert resolved.sequence == scalar.sequence
            assert resolved.exact == scalar.exact

    def test_bulk_hits_only_pristine_frames(self, matcher, factory, rng):
        datas = self._mixed_batch(factory, rng)
        bulk = matcher.match_bulk(datas)
        # The first four are byte-identical pristine frames: the bulk
        # fast path must resolve them without scalar fallback.
        assert all(r is not None and r.exact for r in bulk[:4])
        # Everything else is damaged/foreign and must defer to scalar.
        assert all(r is None for r in bulk[4:])

    def test_empty_batch(self, matcher):
        assert matcher.match_bulk([]) == []

    def test_wrapped_sequences_and_slack(self, spec, factory):
        short = TraceMatcher(spec, packets_sent=100)
        inside = factory.build(105)  # within SEQUENCE_SLACK
        outside = factory.build(500)  # implausible → not a bulk hit
        results = short.match_bulk([inside, outside])
        assert results[0] is not None and results[0].sequence == 105
        assert results[1] is None
