"""Batched Viterbi/RCPC decode: byte-identity with the scalar path.

The batched decoders are the same add-compare-select kernel with the
step loop lifted to ``(batch, states)`` arrays — branch metrics
accumulate in the same floating-point order, so equivalence here is
*byte* identity across random damage, erasure, weight, and termination
patterns, not a statistical bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fec.convolutional import ConvolutionalCode
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.viterbi import ERASED, viterbi_decode, viterbi_decode_batch


@pytest.fixture
def code():
    return ConvolutionalCode()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def _damaged_batch(code, rng, batch, info_bits, flip=0.03, erase=0.0):
    rows = []
    for _ in range(batch):
        bits = rng.integers(0, 2, info_bits).astype(np.uint8)
        coded = code.encode(bits)
        coded[rng.random(coded.size) < flip] ^= 1
        if erase:
            coded[rng.random(coded.size) < erase] = ERASED
        rows.append(coded)
    return np.stack(rows)


class TestViterbiBatchIdentity:
    @pytest.mark.parametrize("terminated", [True, False])
    def test_matches_scalar_across_random_patterns(
        self, code, rng, terminated
    ):
        received = _damaged_batch(code, rng, 9, 64, flip=0.05, erase=0.08)
        batched = viterbi_decode_batch(code, received, terminated=terminated)
        for row in range(received.shape[0]):
            scalar = viterbi_decode(
                code, received[row], terminated=terminated
            )
            np.testing.assert_array_equal(batched[row], scalar)

    def test_matches_scalar_with_random_weights(self, code, rng):
        received = _damaged_batch(code, rng, 6, 48, flip=0.06, erase=0.05)
        weights = rng.random(received.shape)
        batched = viterbi_decode_batch(code, received, weights=weights)
        for row in range(received.shape[0]):
            scalar = viterbi_decode(
                code, received[row], weights=weights[row]
            )
            np.testing.assert_array_equal(batched[row], scalar)

    def test_all_ones_weights_identical_to_no_weights(self, code, rng):
        received = _damaged_batch(code, rng, 5, 64, flip=0.04, erase=0.1)
        plain = viterbi_decode_batch(code, received)
        weighted = viterbi_decode_batch(
            code, received, weights=np.ones(received.shape)
        )
        np.testing.assert_array_equal(plain, weighted)

    def test_batch_of_one_equals_scalar(self, code, rng):
        received = _damaged_batch(code, rng, 1, 128, flip=0.03)
        np.testing.assert_array_equal(
            viterbi_decode_batch(code, received)[0],
            viterbi_decode(code, received[0]),
        )

    def test_empty_batch_and_empty_steps(self, code):
        assert viterbi_decode_batch(
            code, np.empty((0, 12), dtype=np.uint8)
        ).shape == (0, 0)
        assert viterbi_decode_batch(
            code, np.empty((3, 0), dtype=np.uint8)
        ).shape == (3, 0)

    def test_shape_validation(self, code):
        with pytest.raises(ValueError, match="2-D"):
            viterbi_decode_batch(code, np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="multiple"):
            viterbi_decode_batch(code, np.zeros((2, 15), dtype=np.uint8))
        with pytest.raises(ValueError, match="weights shape"):
            viterbi_decode_batch(
                code,
                np.zeros((2, 16), dtype=np.uint8),
                weights=np.ones((2, 8)),
            )

    def test_symbols_outside_the_alphabet_rejected(self, code):
        """Each received bit must be 0, 1 or ERASED: the integer kernel
        reads a step's bits as base-3 digits."""
        received = np.zeros((2, 16), dtype=np.uint8)
        received[1, 5] = ERASED + 1
        with pytest.raises(ValueError, match="0, 1 or ERASED"):
            viterbi_decode_batch(code, received)


class TestRcpcBatchIdentity:
    @pytest.mark.parametrize("rate_name", RATE_ORDER)
    def test_matches_scalar_per_rate(self, rate_name, rng):
        codec = RcpcCodec(rate_name)
        batch, info_bits = 7, 96
        rows = []
        for _ in range(batch):
            bits = rng.integers(0, 2, info_bits).astype(np.uint8)
            transmitted = codec.encode(bits)
            transmitted[rng.random(transmitted.size) < 0.02] ^= 1
            rows.append(transmitted)
        received = np.stack(rows)
        weights = rng.random(received.shape)
        for w in (None, weights):
            batched = codec.decode_batch(received, weights=w)
            for row in range(batch):
                scalar = codec.decode(
                    received[row], None if w is None else w[row]
                )
                np.testing.assert_array_equal(batched[row], scalar)

    def test_clean_roundtrip(self, rng):
        codec = RcpcCodec("2/3")
        info = rng.integers(0, 2, (5, 64)).astype(np.uint8)
        received = np.stack([codec.encode(row) for row in info])
        decoded = codec.decode_batch(received)
        np.testing.assert_array_equal(decoded, info)

    def test_shape_validation(self):
        codec = RcpcCodec("1/2")
        with pytest.raises(ValueError, match="2-D"):
            codec.decode_batch(np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="weights shape"):
            codec.decode_batch(
                np.zeros((2, 16), dtype=np.uint8), weights=np.ones((2, 4))
            )

    def test_mixed_weighted_and_unweighted_rows_batch_together(self, rng):
        """fec_eval batches marked (weighted) and unmarked rows in one
        decode by giving unmarked rows all-ones weights — that must
        equal scalar decodes with weights=None for those rows."""
        codec = RcpcCodec("4/5")
        info = rng.integers(0, 2, (4, 48)).astype(np.uint8)
        received = np.stack([codec.encode(row) for row in info])
        received[rng.random(received.shape) < 0.03] ^= 1
        weights = np.ones(received.shape)
        weights[1] = rng.random(received.shape[1])
        batched = codec.decode_batch(received, weights=weights)
        np.testing.assert_array_equal(
            batched[0], codec.decode(received[0])
        )
        np.testing.assert_array_equal(
            batched[1], codec.decode(received[1], weights[1])
        )
