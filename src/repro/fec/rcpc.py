"""Rate-compatible punctured convolutional (RCPC) codes.

Hagenauer's construction [19 in the paper]: start from a low-rate
"mother" code and delete (puncture) coded bits according to a family of
puncturing tables, where every higher-rate table's transmitted positions
are a subset of every lower-rate table's — so a transmitter can add
redundancy incrementally and one Viterbi decoder serves every rate
(punctured positions decode as erasures).

The default family is built on the K=7 rate-1/2 mother code with
puncturing period 8, giving rates 8/9, 4/5, 2/3 and 1/2 — redundancy
overheads of 12.5 % to 100 %, the kind of spread the paper quotes from
Hagenauer ("redundancy overhead varying from 12.5 % to 300 %").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.fec.convolutional import ConvolutionalCode
from repro.fec.viterbi import ERASED, viterbi_decode, viterbi_decode_batch

# Puncturing period (information bits per puncturing table column set).
PUNCTURE_PERIOD = 8

# Rate-compatible puncturing tables for the rate-1/2 mother code.
# Row g = generator stream, column t = position within the period; 1 =
# transmit, 0 = puncture.  Each lower-rate pattern is a superset of all
# higher-rate patterns (rate-compatibility).
_PATTERNS: dict[str, np.ndarray] = {
    # 8 info bits -> 9 coded bits
    "8/9": np.array(
        [[1, 1, 1, 1, 1, 1, 1, 1],
         [1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8
    ),
    # 8 info bits -> 10 coded bits
    "4/5": np.array(
        [[1, 1, 1, 1, 1, 1, 1, 1],
         [1, 0, 0, 0, 1, 0, 0, 0]], dtype=np.uint8
    ),
    # 8 info bits -> 12 coded bits
    "2/3": np.array(
        [[1, 1, 1, 1, 1, 1, 1, 1],
         [1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8
    ),
    # 8 info bits -> 16 coded bits (the unpunctured mother code)
    "1/2": np.array(
        [[1, 1, 1, 1, 1, 1, 1, 1],
         [1, 1, 1, 1, 1, 1, 1, 1]], dtype=np.uint8
    ),
}

RATE_ORDER = ("8/9", "4/5", "2/3", "1/2")  # weakest → strongest

#: The unpunctured member: every rate depunctures onto its trellis.
MOTHER_RATE = "1/2"


@dataclass
class RcpcCodec:
    """Encode/decode at one rate of the family."""

    rate_name: str
    code: ConvolutionalCode = field(default_factory=ConvolutionalCode)

    def __post_init__(self) -> None:
        if self.rate_name not in _PATTERNS:
            raise ValueError(
                f"unknown rate {self.rate_name!r}; choose from {RATE_ORDER}"
            )
        self.pattern = _PATTERNS[self.rate_name]

    @property
    def rate(self) -> Fraction:
        transmitted = int(self.pattern.sum())
        return Fraction(PUNCTURE_PERIOD, transmitted)

    @property
    def overhead(self) -> float:
        """Redundancy overhead: coded/info - 1 (e.g. 1/2 → 1.0 = 100 %)."""
        return float(1.0 / self.rate) - 1.0

    def _mask(self, n_steps: int) -> np.ndarray:
        """Transmit mask over the mother-coded stream for n_steps."""
        periods = -(-n_steps // PUNCTURE_PERIOD)
        tiled = np.tile(self.pattern, (1, periods))[:, :n_steps]
        # Mother stream order is interleaved per step: g0,g1,g0,g1,...
        return tiled.T.reshape(-1).astype(bool)

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Mother-encode then puncture; returns transmitted bits only."""
        mother = self.code.encode(np.asarray(bits, dtype=np.uint8))
        n_steps = len(mother) // self.code.n_outputs
        return mother[self._mask(n_steps)]

    def coded_length(self, info_bits: int) -> int:
        """Transmitted bits for ``info_bits`` information bits."""
        n_steps = info_bits + self.code.tail_bits()
        return int(self._mask(n_steps).sum())

    def _steps_for_length(self, n_received: int) -> int:
        """Trellis steps encoded by a transmitted stream of this length."""
        per_period = int(self.pattern.sum())
        periods, remainder = divmod(n_received, per_period)
        n_steps = periods * PUNCTURE_PERIOD
        if remainder:
            # Partial trailing period: count its transmitted positions.
            count = 0
            extra_steps = 0
            for step in range(PUNCTURE_PERIOD):
                step_bits = int(self.pattern[:, step % PUNCTURE_PERIOD].sum())
                if count + step_bits > remainder:
                    break
                count += step_bits
                extra_steps += 1
            if count != remainder:
                raise ValueError("received length does not align to pattern")
            n_steps += extra_steps
        return n_steps

    def decode(
        self, received: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Depuncture (erasures) and Viterbi-decode transmitted bits.

        ``received`` must be exactly the transmitted stream (bit values
        possibly corrupted, but no insertions/deletions).  ``weights``
        optionally assigns each transmitted bit a confidence in [0, 1]
        (see :func:`repro.fec.viterbi.viterbi_decode`).
        """
        received = np.asarray(received, dtype=np.uint8)
        n_steps = self._steps_for_length(len(received))
        mask = self._mask(n_steps)
        mother = np.full(n_steps * self.code.n_outputs, ERASED, dtype=np.uint8)
        mother[mask] = received
        mother_weights = None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if len(weights) != len(received):
                raise ValueError(
                    f"weights length {len(weights)} != received {len(received)}"
                )
            mother_weights = np.ones(len(mother), dtype=np.float64)
            mother_weights[mask] = weights
        return viterbi_decode(
            self.code, mother, terminated=True, weights=mother_weights
        )

    def depuncture_batch(
        self, received: np.ndarray, weights: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Mother-code streams for a ``(batch, length)`` block.

        Every row must be the same transmitted length (one puncturing
        mask serves the whole batch).  Punctured positions become
        :data:`~repro.fec.viterbi.ERASED` (weight 1.0 when ``weights``
        are given).  Returns the ``(batch, n_outputs * steps)`` streams
        and their weights, or ``None`` without ``weights``.
        """
        received = np.asarray(received, dtype=np.uint8)
        if received.ndim != 2:
            raise ValueError(
                f"batched received must be 2-D, got shape {received.shape}"
            )
        batch, length = received.shape
        n_steps = self._steps_for_length(length)
        mask = self._mask(n_steps)
        mother = np.full(
            (batch, n_steps * self.code.n_outputs), ERASED, dtype=np.uint8
        )
        mother[:, mask] = received
        mother_weights = None
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != received.shape:
                raise ValueError(
                    f"weights shape {weights.shape} != received "
                    f"{received.shape}"
                )
            mother_weights = np.ones(mother.shape, dtype=np.float64)
            mother_weights[:, mask] = weights
        return mother, mother_weights

    def decode_batch(
        self, received: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Depuncture and decode a ``(batch, length)`` block at once.

        Row ``i`` of the result equals ``decode(received[i],
        weights[i])`` bit for bit, via
        :func:`repro.fec.viterbi.viterbi_decode_batch`.
        """
        mother, mother_weights = self.depuncture_batch(received, weights)
        return viterbi_decode_batch(
            self.code, mother, terminated=True, weights=mother_weights
        )

    def roundtrip_errors(
        self, bits: np.ndarray, corrupt_positions: np.ndarray
    ) -> int:
        """Encode, flip the given transmitted-bit positions, decode;
        return the number of residual information-bit errors."""
        bits = np.asarray(bits, dtype=np.uint8)
        transmitted = self.encode(bits)
        damaged = transmitted.copy()
        positions = np.asarray(corrupt_positions, dtype=np.int64)
        positions = positions[positions < len(damaged)]
        damaged[positions] ^= 1
        decoded = self.decode(damaged)
        return int((decoded != bits).sum())


@dataclass
class RcpcFamily:
    """The whole rate-compatible family, weakest rate first."""

    code: ConvolutionalCode = field(default_factory=ConvolutionalCode)

    def codec(self, rate_name: str) -> RcpcCodec:
        return RcpcCodec(rate_name, self.code)

    def rates(self) -> list[str]:
        return list(RATE_ORDER)

    def codecs(self) -> list[RcpcCodec]:
        return [self.codec(name) for name in RATE_ORDER]
