"""Block interleaving."""

import numpy as np
import pytest

from repro.fec.interleave import BlockInterleaver


class TestRoundtrip:
    @pytest.mark.parametrize("length", [0, 1, 1023, 1024, 5000])
    def test_roundtrip_any_length(self, length, rng):
        interleaver = BlockInterleaver(16, 64)
        bits = rng.integers(0, 2, length).astype(np.uint8)
        out = interleaver.deinterleave(interleaver.interleave(bits), length)
        assert np.array_equal(out, bits)

    def test_output_padded_to_block_multiple(self, rng):
        interleaver = BlockInterleaver(4, 8)
        bits = rng.integers(0, 2, 33).astype(np.uint8)
        assert len(interleaver.interleave(bits)) == 64

    def test_misaligned_deinterleave_rejected(self):
        with pytest.raises(ValueError):
            BlockInterleaver(4, 8).deinterleave(np.zeros(33, dtype=np.uint8))


class TestBurstSpreading:
    def test_adjacent_bits_separated_by_rows(self):
        """The design guarantee: a channel burst of b adjacent bits lands
        at least `rows` apart after deinterleaving."""
        interleaver = BlockInterleaver(16, 64)
        n = interleaver.block_size
        # Track positions: interleave an index array.
        index_in = np.arange(n, dtype=np.int64)
        blocks = index_in.reshape(1, 16, 64)
        index_out = blocks.transpose(0, 2, 1).reshape(-1)
        # Adjacent channel positions originate `columns` apart (they are
        # successive rows of one column: row-major stride = 64).
        gaps = np.abs(np.diff(index_out))
        assert (gaps == 64).mean() > 0.9
        assert interleaver.burst_spread() == 64

    def test_interleaving_defeats_burst_for_viterbi(self, rng):
        """End-to-end: a 40-bit burst breaks the 1/2 code raw, but not
        through the interleaver."""
        from repro.fec.rcpc import RcpcCodec

        codec = RcpcCodec("1/2")
        interleaver = BlockInterleaver(32, 64)
        bits = rng.integers(0, 2, 1_000).astype(np.uint8)
        coded = codec.encode(bits)

        def run(with_interleave: bool) -> int:
            stream = interleaver.interleave(coded) if with_interleave else coded.copy()
            stream = stream.copy()
            stream[300:340] ^= 1  # contiguous burst
            if with_interleave:
                stream = interleaver.deinterleave(stream, len(coded))
            return int((codec.decode(stream) != bits).sum())

        assert run(with_interleave=False) > 0
        assert run(with_interleave=True) == 0


class TestRowwiseScramble:
    @pytest.mark.parametrize("length", [0, 1, 1000, 2048, 2600])
    def test_block_scrambles_each_row_like_a_single_stream(self, length, rng):
        interleaver = BlockInterleaver(32, 64)
        block = rng.integers(0, 2, (5, length)).astype(np.uint8)
        scrambled = interleaver.scramble(block)
        for row in range(block.shape[0]):
            assert np.array_equal(scrambled[row], interleaver.scramble(block[row]))
        assert np.array_equal(interleaver.unscramble(scrambled), block)
