"""``detail_bulk`` against a loop of ``detail_packet`` on the same flags.

The fast trial expands its damaged minority with ``detail_bulk``; the
per-packet oracle calls ``detail_packet`` once per row.  Fed the same
flag columns, both must place damage alike in distribution: the number
of flipped bits per packet, each packet's error span (last minus first
flipped bit) and the truncation cut.  The two consume their generators
differently, so the comparison is of means within a few standard
errors, as ``tests/trace/test_trial_equivalence.py`` compares rates.
"""

import math

import numpy as np
import pytest

from repro.framing.testpacket import FRAME_BYTES
from repro.phy.errormodel import WaveLanErrorModel

PACKETS = 40_000
# Deep enough in the paper's error region that attenuation bursts,
# residual bits and truncations all occur at measurable rates.
LEVELS = (6.5, 9.0)


@pytest.fixture(scope="module")
def flags():
    model = WaveLanErrorModel()
    rng = np.random.default_rng(2718)
    levels = np.repeat(np.asarray(LEVELS), PACKETS // len(LEVELS))
    fates = model.sample_bulk(levels, FRAME_BYTES, (), rng)
    rows = np.nonzero(fates["needs_detail"])[0]
    return model, {
        key: fates[key][rows]
        for key in ("stress", "truncated", "hit", "residual_bits")
    }


def _looped(model, columns, rng):
    flips, spans, cuts = [], [], []
    for stress, truncated, hit, residual in zip(
        columns["stress"].tolist(),
        columns["truncated"].tolist(),
        columns["hit"].tolist(),
        columns["residual_bits"].tolist(),
    ):
        fate = model.detail_packet(
            stress, truncated, hit, residual, FRAME_BYTES, rng
        )
        bits = fate.flipped_bits
        flips.append(len(bits))
        if len(bits):
            spans.append(int(bits.max() - bits.min()))
        if fate.truncated_at_byte is not None:
            cuts.append(fate.truncated_at_byte)
    return flips, spans, cuts


def _bulk(model, columns, rng):
    detail = model.detail_bulk(
        stress=columns["stress"],
        truncated=columns["truncated"],
        hit=columns["hit"],
        residual_bits=columns["residual_bits"],
        frame_bytes=FRAME_BYTES,
        rng=rng,
    )
    offsets = detail["flip_offsets"]
    positions = detail["flip_positions"]
    flips = np.diff(offsets).tolist()
    spans = [
        int(positions[end - 1] - positions[start])
        for start, end in zip(offsets[:-1].tolist(), offsets[1:].tolist())
        if end > start
    ]
    cuts = detail["truncated_at"][detail["truncated_at"] >= 0].tolist()
    return flips, spans, cuts


def _assert_means_agree(name, a, b):
    assert len(a) > 100 and len(b) > 100, (name, len(a), len(b))
    error = math.sqrt(np.var(a) / len(a) + np.var(b) / len(b))
    gap = abs(np.mean(a) - np.mean(b))
    assert gap < 4.0 * error, (
        f"{name}: looped {np.mean(a):.2f} bulk {np.mean(b):.2f} "
        f"(gap {gap:.3f}, 4 sigma {4.0 * error:.3f})"
    )


def test_damage_placement_agrees(flags):
    model, columns = flags
    looped = _looped(model, columns, np.random.default_rng(31))
    bulk = _bulk(model, columns, np.random.default_rng(47))
    for name, a, b in zip(("flip count", "error span", "cut"), looped, bulk):
        _assert_means_agree(name, a, b)
    # Same flags, so the same rows are truncated on both paths.
    assert len(looped[2]) == len(bulk[2]) == int(columns["truncated"].sum())
