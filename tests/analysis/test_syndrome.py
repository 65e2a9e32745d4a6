"""Error syndrome extraction."""

import numpy as np
import pytest

from repro.analysis.syndrome import extract_syndrome
from repro.framing.bits import flip_bits
from repro.framing.testpacket import BODY_END, BODY_START, FRAME_BYTES


class TestExtraction:
    def test_clean_frame_empty_syndrome(self, factory):
        syndrome = extract_syndrome(factory.build(5), 5, factory)
        assert syndrome.body_bits_damaged == 0
        assert not syndrome.wrapper_damaged
        assert not syndrome.damaged

    def test_body_flip_recovered_exactly(self, factory):
        frame = factory.build(5)
        body_bit = BODY_START * 8 + 100
        damaged = flip_bits(frame, np.array([body_bit]))
        syndrome = extract_syndrome(damaged, 5, factory)
        assert syndrome.body_bits_damaged == 1
        assert syndrome.body_bit_positions.tolist() == [100]
        assert not syndrome.wrapper_damaged

    def test_wrapper_flip_classified(self, factory):
        frame = factory.build(5)
        damaged = flip_bits(frame, np.array([17]))  # in the eth header
        syndrome = extract_syndrome(damaged, 5, factory)
        assert syndrome.wrapper_damaged
        assert syndrome.body_bits_damaged == 0

    def test_fcs_flip_is_wrapper_damage(self, factory):
        frame = factory.build(5)
        fcs_bit = (FRAME_BYTES - 2) * 8
        damaged = flip_bits(frame, np.array([fcs_bit]))
        syndrome = extract_syndrome(damaged, 5, factory)
        assert syndrome.wrapper_damaged

    def test_mixed_damage(self, factory):
        frame = factory.build(9)
        positions = np.array([8, BODY_START * 8 + 5, BODY_START * 8 + 6])
        damaged = flip_bits(frame, positions)
        syndrome = extract_syndrome(damaged, 9, factory)
        assert syndrome.wrapper_damaged
        assert syndrome.body_bits_damaged == 2

    def test_body_edges_split_exactly(self, factory):
        """The bits on either side of both body edges land on their own
        side, every bit of a damaged byte is found, and the frame's
        first and last bits count."""
        frame = factory.build(11)
        start, end = BODY_START * 8, BODY_END * 8
        positions = np.array(
            [0, start - 1, start, end - 1, end, FRAME_BYTES * 8 - 1]
            + list(range(start + 64, start + 72))
        )
        syndrome = extract_syndrome(flip_bits(frame, positions), 11, factory)
        assert syndrome.body_bit_positions.tolist() == [
            0, *range(64, 72), end - start - 1
        ]
        assert syndrome.wrapper_bit_positions.tolist() == [
            0, start - 1, end, FRAME_BYTES * 8 - 1
        ]

    def test_truncated_frame_rejected(self, factory):
        with pytest.raises(ValueError):
            extract_syndrome(factory.build(5)[:500], 5, factory)


class TestBurstSpans:
    def _syndrome(self, factory, positions):
        frame = factory.build(1)
        body_bits = BODY_START * 8 + np.asarray(positions)
        return extract_syndrome(flip_bits(frame, body_bits), 1, factory)

    def test_single_burst(self, factory):
        syndrome = self._syndrome(factory, [100, 105, 110])
        assert syndrome.burst_spans() == [(100, 110)]

    def test_two_bursts(self, factory):
        syndrome = self._syndrome(factory, [100, 101, 500, 503])
        assert syndrome.burst_spans() == [(100, 101), (500, 503)]

    def test_gap_parameter(self, factory):
        syndrome = self._syndrome(factory, [100, 140])
        assert len(syndrome.burst_spans(max_gap_bits=32)) == 2
        assert len(syndrome.burst_spans(max_gap_bits=64)) == 1

    def test_empty(self, factory):
        syndrome = extract_syndrome(factory.build(1), 1, factory)
        assert syndrome.burst_spans() == []
