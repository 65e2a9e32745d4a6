"""The shared batched FEC replay against per-row scalar replays.

``_scalar_replay`` is the one-syndrome-at-a-time replay the experiments
ran before they shared :func:`repro.fec.replay.replay_damage`: damage
one wire-order stream, mark its flagged window, unscramble, and decode
it alone through the scalar ``RcpcCodec.decode``.  Every batched row
must carry exactly the residual error count of that row replayed alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.replay import replay_damage
from repro.fec.viterbi import ERASED, SWEEP_ROWS

INFO_BITS = 96


def _scalar_replay(codec, info, codeword, positions, interleaver=None,
                   window=None, soft_weight=None) -> int:
    stream = interleaver.scramble(codeword) if interleaver else codeword
    damaged = stream.copy()
    damaged[positions[positions < len(damaged)]] ^= 1
    weights = None
    if window is not None:
        lo, hi = window
        if soft_weight is None:
            damaged[lo:hi] = ERASED
        else:
            weights = np.ones(len(codeword))
            weights[lo:hi] = soft_weight
    if interleaver is not None:
        damaged = interleaver.unscramble(damaged)
        if weights is not None:
            weights = interleaver.unscramble(weights)
    return int((codec.decode(damaged, weights) != info).sum())


def _bursts(rng, coded_bits, rows):
    """Bursty wire-order damage, some of it past the codeword's end."""
    population = []
    for _ in range(rows):
        start = int(rng.integers(0, coded_bits))
        length = int(rng.integers(0, 24))
        burst = np.arange(start, start + length)
        scattered = rng.integers(0, coded_bits + 16, int(rng.integers(0, 4)))
        population.append(np.unique(np.concatenate([burst, scattered])))
    return population


@pytest.fixture
def rng():
    return np.random.default_rng(1996)


@pytest.mark.parametrize("rate_name", RATE_ORDER)
@pytest.mark.parametrize("interleaved", [False, True])
def test_rows_match_scalar_replay(rate_name, interleaved, rng):
    codec = RcpcCodec(rate_name)
    interleaver = BlockInterleaver(8, 16) if interleaved else None
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)
    codeword = codec.encode(info)
    population = _bursts(rng, len(codeword), SWEEP_ROWS + 6)
    errors = replay_damage(codec, info, codeword, population, interleaver)
    assert errors.dtype == np.int64
    assert errors.tolist() == [
        _scalar_replay(codec, info, codeword, p, interleaver)
        for p in population
    ]
    assert 0 < (errors == 0).sum() < len(population)


@pytest.mark.parametrize("soft_weight", [None, 0.25])
def test_flagged_windows_match_scalar_replay(soft_weight, rng):
    codec = RcpcCodec("1/2")
    interleaver = BlockInterleaver(8, 16)
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)
    codeword = codec.encode(info)
    population = _bursts(rng, len(codeword), 12)
    windows = [
        None if i % 3 == 0 or not len(p)
        else (max(0, int(p.min()) - 4), min(len(codeword), int(p.max()) + 4))
        for i, p in enumerate(population)
    ]
    errors = replay_damage(
        codec, info, codeword, population, interleaver, windows, soft_weight
    )
    assert errors.tolist() == [
        _scalar_replay(codec, info, codeword, p, interleaver, w, soft_weight)
        for p, w in zip(population, windows)
    ]


def test_unflagged_windows_equal_no_windows(rng):
    codec = RcpcCodec("2/3")
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)
    codeword = codec.encode(info)
    population = _bursts(rng, len(codeword), 5)
    for soft_weight in (None, 0.25):
        np.testing.assert_array_equal(
            replay_damage(codec, info, codeword, population,
                          windows=[None] * 5, soft_weight=soft_weight),
            replay_damage(codec, info, codeword, population),
        )


def test_empty_population_decodes_nothing(monkeypatch):
    codec = RcpcCodec("4/5")
    info = np.zeros(INFO_BITS, dtype=np.uint8)

    def no_decode(*args, **kwargs):
        raise AssertionError("an empty population must not decode")

    monkeypatch.setattr(codec, "decode_batch", no_decode)
    errors = replay_damage(codec, info, codec.encode(info), [])
    assert errors.shape == (0,) and errors.dtype == np.int64


def test_positions_past_the_codeword_are_dropped():
    codec = RcpcCodec("8/9")
    info = np.ones(INFO_BITS, dtype=np.uint8)
    codeword = codec.encode(info)
    beyond = np.arange(len(codeword), len(codeword) + 40)
    assert replay_damage(codec, info, codeword, [beyond]).tolist() == [0]
