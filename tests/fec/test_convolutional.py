"""The K=7 convolutional encoder (and other rate-1/n codes)."""

import numpy as np
import pytest

from repro.fec.convolutional import ConvolutionalCode, parity


def loop_encode(
    code: ConvolutionalCode, bits: np.ndarray, terminate: bool = True
) -> np.ndarray:
    """Oracle: the state machine stepped one input bit at a time over the
    code's (state, bit) output and next-state tables."""
    bits = np.asarray(bits, dtype=np.uint8)
    if terminate:
        bits = np.concatenate([bits, np.zeros(code.tail_bits(), dtype=np.uint8)])
    coded = np.empty(len(bits) * code.n_outputs, dtype=np.uint8)
    outputs, next_state = code.output_table(), code.next_state_table()
    state = 0
    for cursor, bit in enumerate(bits):
        start = cursor * code.n_outputs
        coded[start : start + code.n_outputs] = outputs[state, bit]
        state = next_state[state, bit]
    return coded


ORACLE_CODES = {
    "K7 (171,133)": ConvolutionalCode(7, (0o171, 0o133)),
    "K3 (7,5)": ConvolutionalCode(3, (0o7, 0o5)),
    "K5 (23,35)": ConvolutionalCode(5, (0o23, 0o35)),
    "K7 rate 1/3 (133,165,171)": ConvolutionalCode(7, (0o133, 0o165, 0o171)),
}


class TestParity:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (1, 1), (3, 0), (7, 1), (0o171, 0o171.bit_count() & 1)],
    )
    def test_known_values(self, value, expected):
        assert parity(value) == expected


class TestCodeConstruction:
    def test_default_is_nasa_k7(self):
        code = ConvolutionalCode()
        assert code.constraint_length == 7
        assert code.generators == (0o171, 0o133)
        assert code.n_states == 64
        assert code.rate == 0.5

    def test_generator_too_wide_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(constraint_length=3, generators=(0o171,))

    def test_bad_constraint_length_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(constraint_length=1)


class TestEncoding:
    def test_output_length_terminated(self):
        code = ConvolutionalCode()
        coded = code.encode(np.zeros(100, dtype=np.uint8))
        assert len(coded) == (100 + 6) * 2

    def test_output_length_unterminated(self):
        code = ConvolutionalCode()
        coded = code.encode(np.zeros(100, dtype=np.uint8), terminate=False)
        assert len(coded) == 200

    def test_all_zero_input_all_zero_output(self):
        code = ConvolutionalCode()
        assert not code.encode(np.zeros(50, dtype=np.uint8)).any()

    def test_linearity(self, rng):
        """Convolutional codes are linear: enc(a ^ b) == enc(a) ^ enc(b)."""
        code = ConvolutionalCode()
        a = rng.integers(0, 2, 64).astype(np.uint8)
        b = rng.integers(0, 2, 64).astype(np.uint8)
        lhs = code.encode((a ^ b))
        rhs = code.encode(a) ^ code.encode(b)
        assert np.array_equal(lhs, rhs)

    def test_impulse_response_is_generators(self):
        """A single 1 bit produces the generator taps as output."""
        code = ConvolutionalCode()
        coded = code.encode(np.array([1], dtype=np.uint8))
        # First output pair corresponds to the MSB taps of each generator.
        g0_bits = [(0o171 >> (6 - i)) & 1 for i in range(7)]
        g1_bits = [(0o133 >> (6 - i)) & 1 for i in range(7)]
        expected = np.array(
            [bit for pair in zip(g0_bits, g1_bits) for bit in pair],
            dtype=np.uint8,
        )
        assert np.array_equal(coded, expected)

    def test_smaller_code_works(self):
        code = ConvolutionalCode(constraint_length=3, generators=(0o7, 0o5))
        coded = code.encode(np.array([1, 0, 1], dtype=np.uint8))
        assert len(coded) == (3 + 2) * 2


class TestEncoderEqualsStateMachine:
    """The shifted-XOR encoder equals the bit-serial state machine."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CODES))
    @pytest.mark.parametrize("length", [0, 1, 5, 1024])
    @pytest.mark.parametrize("terminate", [True, False])
    def test_byte_for_byte(self, name, length, terminate):
        code = ORACLE_CODES[name]
        bits = np.random.default_rng(length + 17).integers(0, 2, length)
        coded = code.encode(bits.astype(np.uint8), terminate=terminate)
        expected = loop_encode(code, bits, terminate=terminate)
        assert coded.dtype == np.uint8
        assert coded.tobytes() == expected.tobytes()
