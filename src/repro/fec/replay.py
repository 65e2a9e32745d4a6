"""Replaying observed channel damage through the FEC stack.

The Section-8 question — would FEC have repaired the errors the
channel actually made? — is answered by replay: take one codeword,
flip the bit positions a damaged packet's error syndrome says the
channel flipped, decode, and count what is still wrong.  Both the FEC
evaluation (``fec_eval``) and the goodput sweep (``throughput``) ask it
of whole populations of syndromes.  :func:`replay_populations` damages
every row of several populations, depunctures each onto the mother
code's trellis, and decodes them all in one :meth:`RcpcCodec.decode_batch`
call; :func:`replay_damage` is its one-population case.  Row results
are bit-identical to replaying each syndrome alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import MOTHER_RATE, RcpcCodec
from repro.fec.viterbi import ERASED


@dataclass(frozen=True)
class DamagePopulation:
    """Damage rows replayed against one codeword.

    ``codeword`` is ``codec.encode(info)``.  ``positions[i]`` lists the
    wire-order bit positions row ``i`` flips; positions at or past the
    codeword's end are dropped.  With an ``interleaver`` the codeword
    goes on the wire in its scrambled order and each row is unscrambled
    before decoding, so a burst of adjacent flips is spread apart.

    ``windows[i]``, when given and not ``None``, is a wire-order span
    ``(lo, hi)`` the receiver flags as hit by a burst (the modem's AGC
    knows when interference was on air).  Flagged spans decode as
    erasures, or, with ``soft_weight``, at that confidence instead of
    1.0.
    """

    codec: RcpcCodec
    info: np.ndarray
    codeword: np.ndarray
    positions: Sequence[np.ndarray]
    interleaver: BlockInterleaver | None = None
    windows: Sequence[tuple[int, int] | None] | None = None
    soft_weight: float | None = None

    def mother_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Every row damaged, unscrambled and depunctured onto the
        mother code's trellis, with its weights (``None`` when no row
        is soft-weighted)."""
        rows = len(self.positions)
        coded_bits = len(self.codeword)
        wire = (
            self.codeword
            if self.interleaver is None
            else self.interleaver.scramble(self.codeword)
        )
        damaged = np.repeat(wire[None, :], rows, axis=0)
        kept = [np.asarray(p, dtype=np.int64) for p in self.positions]
        kept = [p[p < coded_bits] for p in kept]
        row_index = np.repeat(np.arange(rows), [len(p) for p in kept])
        damaged[row_index, np.concatenate(kept)] ^= 1

        weights = None
        windows = self.windows
        if windows is not None and any(w is not None for w in windows):
            if self.soft_weight is not None:
                weights = np.ones((rows, coded_bits), dtype=np.float64)
            for row, window in enumerate(windows):
                if window is None:
                    continue
                lo, hi = window
                if weights is None:
                    damaged[row, lo:hi] = ERASED
                else:
                    weights[row, lo:hi] = self.soft_weight
        if self.interleaver is not None:
            damaged = self.interleaver.unscramble(damaged)
            if weights is not None:
                weights = self.interleaver.unscramble(weights)
        return self.codec.depuncture_batch(damaged, weights)


def replay_populations(populations: Sequence[DamagePopulation]) -> list[np.ndarray]:
    """Residual information-bit errors of every row of every population.

    Every rate of an RCPC family depunctures onto its mother code's
    trellis, so populations at different rates, interleavings and
    window markings decode together: their depunctured rows are stacked
    (unweighted rows at weight 1.0 beside soft-weighted ones, which is
    exactly no weight) and decoded in one ``decode_batch`` of the
    family's unpunctured member.  The populations must share the mother
    code and the information length.  Returns one int64 array of error
    counts per population, in order; a row is recovered when its count
    is 0.  Empty populations cost nothing, and none at all decode
    nothing.
    """
    live = [population for population in populations if len(population.positions)]
    if not live:
        return [np.zeros(0, dtype=np.int64) for _ in populations]
    code = live[0].codec.code
    signature = (code.constraint_length, tuple(code.generators))
    for population in live[1:]:
        other = population.codec.code
        if (other.constraint_length, tuple(other.generators)) != signature:
            raise ValueError("populations must share one mother code")
    parts = [population.mother_rows() for population in live]
    mother = np.concatenate([rows for rows, _ in parts])
    weights = None
    if any(w is not None for _, w in parts):
        weights = np.concatenate(
            [np.ones(rows.shape) if w is None else w for rows, w in parts]
        )
    decoded = RcpcCodec(MOTHER_RATE, code).decode_batch(mother, weights=weights)

    errors = []
    start = 0
    for population in populations:
        size = len(population.positions)
        if not size:
            errors.append(np.zeros(0, dtype=np.int64))
            continue
        info = np.asarray(population.info, dtype=np.uint8)
        block = decoded[start:start + size]
        errors.append((block != info[None, :]).sum(axis=1, dtype=np.int64))
        start += size
    return errors


def replay_damage(
    codec: RcpcCodec,
    info: np.ndarray,
    codeword: np.ndarray,
    positions: Sequence[np.ndarray],
    interleaver: BlockInterleaver | None = None,
    windows: Sequence[tuple[int, int] | None] | None = None,
    soft_weight: float | None = None,
) -> np.ndarray:
    """Residual information-bit errors of each replayed damage row.

    One :class:`DamagePopulation` (see it for the arguments) through
    :func:`replay_populations`: an int64 array with one error count per
    row; a row is recovered when its count is 0.
    """
    (errors,) = replay_populations(
        [DamagePopulation(
            codec, info, codeword, positions, interleaver, windows, soft_weight
        )]
    )
    return errors
