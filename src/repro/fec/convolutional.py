"""Rate-1/2 convolutional encoding.

The default code is the ubiquitous constraint-length-7 code with octal
generators (171, 133) — the "k=7" code of the Qualcomm Q1650 decoder the
paper cites [31].  The shift register holds the newest bit in the MSB;
the encoder state is the K-1 older bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _parity_table() -> np.ndarray:
    """Parity of every 16-bit value (for vectorized output computation)."""
    values = np.arange(1 << 16, dtype=np.uint32)
    parity = values.copy()
    for shift in (8, 4, 2, 1):
        parity ^= parity >> shift
    return (parity & 1).astype(np.uint8)


_PARITY = _parity_table()


def parity(value: int) -> int:
    """Parity (XOR of all bits) of a non-negative integer."""
    result = 0
    while value:
        result ^= value & 1
        value >>= 1
    return result


@dataclass
class ConvolutionalCode:
    """A rate-1/n convolutional code defined by its generators."""

    constraint_length: int = 7
    generators: tuple[int, ...] = (0o171, 0o133)

    # Lookup tables built once per instance.
    _outputs: np.ndarray = field(init=False, repr=False)
    _next_state: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k = self.constraint_length
        if k < 2 or k > 16:
            raise ValueError(f"constraint length {k} out of supported range")
        for g in self.generators:
            if g >= (1 << k):
                raise ValueError(f"generator {g:o} wider than constraint length")
        n_states = 1 << (k - 1)
        outputs = np.zeros((n_states, 2, self.n_outputs), dtype=np.uint8)
        next_state = np.zeros((n_states, 2), dtype=np.int32)
        for state in range(n_states):
            for bit in (0, 1):
                register = (bit << (k - 1)) | state
                for gi, g in enumerate(self.generators):
                    outputs[state, bit, gi] = _PARITY[register & g]
                next_state[state, bit] = register >> 1
        self._outputs = outputs
        self._next_state = next_state

    @property
    def n_outputs(self) -> int:
        return len(self.generators)

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    @property
    def rate(self) -> float:
        return 1.0 / self.n_outputs

    def output_table(self) -> np.ndarray:
        """(state, bit) → coded output bits; shared with the decoder."""
        return self._outputs

    def next_state_table(self) -> np.ndarray:
        """(state, bit) → next state; shared with the decoder."""
        return self._next_state

    def encode(self, bits: np.ndarray, terminate: bool = True) -> np.ndarray:
        """Encode a bit array; appends K-1 flush bits when ``terminate``.

        Returns the coded bit stream (length n_outputs per input bit).
        """
        bits = np.asarray(bits, dtype=np.uint8)
        k = self.constraint_length
        steps = len(bits) + (k - 1 if terminate else 0)
        # At step t the register holds input t in its MSB (tap k-1) down
        # to input t-(k-1) in its LSB (tap 0), so with k-1 leading zeros
        # tap j reads ``padded[t + j]`` and each output is a XOR of
        # shifted copies of the input.  Flush bits are the trailing zeros.
        padded = np.zeros(steps + k - 1, dtype=np.uint8)
        padded[k - 1 : k - 1 + len(bits)] = bits
        coded = np.zeros((steps, self.n_outputs), dtype=np.uint8)
        for gi, generator in enumerate(self.generators):
            for tap in range(k):
                if generator >> tap & 1:
                    coded[:, gi] ^= padded[tap : tap + steps]
        return coded.reshape(-1)

    def tail_bits(self) -> int:
        """Number of flush bits a terminated encoding appends."""
        return self.constraint_length - 1
