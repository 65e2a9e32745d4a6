"""Replaying observed channel damage through the FEC stack.

The Section-8 question — would FEC have repaired the errors the
channel actually made? — is answered by replay: take one codeword,
flip the bit positions a damaged packet's error syndrome says the
channel flipped, decode, and count what is still wrong.  Both the FEC
evaluation (``fec_eval``) and the goodput sweep (``throughput``) ask it
of whole populations of syndromes, so :func:`replay_damage` damages
every row at once and decodes them in one :meth:`RcpcCodec.decode_batch`
call; row results are bit-identical to replaying each syndrome alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RcpcCodec
from repro.fec.viterbi import ERASED


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

    ``codeword`` is ``codec.encode(info)``.  ``positions[i]`` lists the
    wire-order bit positions row ``i`` flips; positions at or past the
    codeword's end are dropped.  With an ``interleaver`` the codeword
    goes on the wire in its scrambled order and each row is unscrambled
    before decoding, so a burst of adjacent flips is spread apart.

    ``windows[i]``, when given and not ``None``, is a wire-order span
    ``(lo, hi)`` the receiver flags as hit by a burst (the modem's AGC
    knows when interference was on air).  Flagged spans decode as
    erasures, or, with ``soft_weight``, at that confidence instead of
    1.0.  Returns an int64 array with one error count per row; a row
    is recovered when its count is 0.
    """
    rows = len(positions)
    if rows == 0:
        return np.zeros(0, dtype=np.int64)
    coded_bits = len(codeword)
    wire = codeword if interleaver is None else interleaver.scramble(codeword)
    damaged = np.repeat(wire[None, :], rows, axis=0)
    kept = [np.asarray(p, dtype=np.int64) for p in positions]
    kept = [p[p < coded_bits] for p in kept]
    row_index = np.repeat(np.arange(rows), [len(p) for p in kept])
    damaged[row_index, np.concatenate(kept)] ^= 1

    weights = None
    if windows is not None and any(w is not None for w in windows):
        if soft_weight is not None:
            weights = np.ones((rows, coded_bits), dtype=np.float64)
        for row, window in enumerate(windows):
            if window is None:
                continue
            lo, hi = window
            if weights is None:
                damaged[row, lo:hi] = ERASED
            else:
                weights[row, lo:hi] = soft_weight
    if interleaver is not None:
        damaged = interleaver.unscramble(damaged)
        if weights is not None:
            weights = interleaver.unscramble(weights)
    decoded = codec.decode_batch(damaged, weights=weights)
    return (decoded != np.asarray(info, dtype=np.uint8)[None, :]).sum(
        axis=1, dtype=np.int64
    )
