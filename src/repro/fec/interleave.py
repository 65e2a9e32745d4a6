"""Block interleaving.

The channel's corruption is bursty (the multi-bit syndromes of Section
6.2 and the spread-spectrum-phone clumps of Section 7.3), and
convolutional codes handle scattered errors far better than bursts.  A
rows×columns block interleaver writes the coded stream row-wise and
transmits column-wise, spreading a burst of b adjacent channel errors at
least ``rows`` positions apart after deinterleaving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockInterleaver:
    """A rows×columns block interleaver (with padding for partial blocks)."""

    rows: int = 16
    columns: int = 64

    @property
    def block_size(self) -> int:
        return self.rows * self.columns

    def _padded(self, bits: np.ndarray) -> tuple[np.ndarray, int]:
        bits = np.asarray(bits, dtype=np.uint8)
        pad = (-len(bits)) % self.block_size
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return bits, pad

    def interleave(self, bits: np.ndarray) -> np.ndarray:
        """Permute: write row-wise, read column-wise (per block).

        Input shorter than a whole number of blocks is zero-padded, so
        the output length is rounded up to a block multiple; pass the
        original length to :meth:`deinterleave` to strip the pad.
        """
        padded, _ = self._padded(bits)
        blocks = padded.reshape(-1, self.rows, self.columns)
        return blocks.transpose(0, 2, 1).reshape(-1)

    def deinterleave(
        self, bits: np.ndarray, original_length: int | None = None
    ) -> np.ndarray:
        """Inverse permutation; strips padding down to ``original_length``."""
        bits = np.asarray(bits, dtype=np.uint8)
        if len(bits) % self.block_size != 0:
            raise ValueError(
                f"interleaved length {len(bits)} is not a block multiple"
            )
        blocks = bits.reshape(-1, self.columns, self.rows)
        out = blocks.transpose(0, 2, 1).reshape(-1)
        if original_length is not None:
            out = out[:original_length]
        return out

    def permutation(self, length: int) -> np.ndarray:
        """The wire-order permutation for a stream of ``length`` bits.

        ``perm[i]`` is the source index transmitted in wire slot ``i``.
        Pad positions of partial blocks are skipped, so the on-air
        stream has exactly ``length`` bits — the channel must see the
        same exposure with or without interleaving.
        """
        padded = length + (-length) % self.block_size
        indices = np.arange(padded, dtype=np.int64)
        blocks = indices.reshape(-1, self.rows, self.columns)
        wire_order = blocks.transpose(0, 2, 1).reshape(-1)
        return wire_order[wire_order < length]

    def scramble(self, bits: np.ndarray) -> np.ndarray:
        """Length-preserving interleave: reorder ``bits`` into wire order.

        Reorders along the last axis, so a ``(rows, length)`` block
        scrambles every row at once.
        """
        bits = np.asarray(bits)
        return bits[..., self.permutation(bits.shape[-1])]

    def unscramble(self, bits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`scramble` (also along the last axis)."""
        bits = np.asarray(bits)
        out = np.empty_like(bits)
        out[..., self.permutation(bits.shape[-1])] = bits
        return out

    def burst_spread(self) -> int:
        """Separation, in the deinterleaved stream, of two bits that were
        adjacent on the channel (the interleaver's design guarantee):
        consecutive channel bits come from successive rows of the same
        column, which sit ``columns`` apart in row-major order."""
        return self.columns
