"""The shared batched FEC replay against per-row scalar replays.

``_scalar_replay`` is the one-syndrome-at-a-time replay the experiments
ran before they shared :func:`repro.fec.replay.replay_damage`: damage
one wire-order stream, mark its flagged window, unscramble, and decode
it alone through the scalar ``RcpcCodec.decode``.  Every batched row
must carry exactly the residual error count of that row replayed alone.
The multi-population :func:`repro.fec.replay.replay_populations`, which
decodes ``fec_eval``'s ten variants of a scenario together, must in
turn equal ``replay_damage`` run on each population by itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fec.convolutional import ConvolutionalCode
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.replay import DamagePopulation, replay_damage, replay_populations
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

    monkeypatch.setattr(RcpcCodec, "decode_batch", no_decode)
    errors = replay_damage(codec, info, codec.encode(info), [])
    assert errors.shape == (0,) and errors.dtype == np.int64
    empty = DamagePopulation(codec, info, codec.encode(info), [])
    assert [e.shape for e in replay_populations([empty] * 3)] == [(0,)] * 3


def test_positions_past_the_codeword_are_dropped():
    codec = RcpcCodec("8/9")
    info = np.ones(INFO_BITS, dtype=np.uint8)
    codeword = codec.encode(info)
    beyond = np.arange(len(codeword), len(codeword) + 40)
    assert replay_damage(codec, info, codeword, [beyond]).tolist() == [0]


#: ``fec_eval``'s replay variants of one scenario: (rate, interleaved,
#: marking), every rate without and with interleaving, then the erase
#: and soft burst-aware receivers at 1/2.
FEC_EVAL_VARIANTS = [
    *((rate, interleaved, "none") for rate in RATE_ORDER
      for interleaved in (False, True)),
    ("1/2", True, "erase"),
    ("1/2", True, "soft"),
]


def _variant_population(rng, rate_name, interleaved, marking, rows):
    """A bursty population for one variant, with the variant's flagged
    windows (erase: erasures; soft: weighted 0.25) around each row."""
    codec = RcpcCodec(rate_name)
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)
    codeword = codec.encode(info)
    positions = _bursts(rng, len(codeword), rows)
    windows = None
    if marking != "none":
        windows = [
            (max(0, int(p.min()) - 4), min(len(codeword), int(p.max()) + 4))
            if len(p) else None
            for p in positions
        ]
    return DamagePopulation(
        codec, info, codeword, positions,
        BlockInterleaver(8, 16) if interleaved else None,
        windows,
        soft_weight=0.25 if marking == "soft" else None,
    )


def _alone(population):
    return replay_damage(
        population.codec, population.info, population.codeword,
        population.positions, population.interleaver, population.windows,
        population.soft_weight,
    )


def _count_decodes(monkeypatch):
    calls = []
    original = RcpcCodec.decode_batch

    def counted(self, received, weights=None):
        calls.append((self.rate_name, len(received), weights is not None))
        return original(self, received, weights)

    monkeypatch.setattr(RcpcCodec, "decode_batch", counted)
    return calls


def test_all_fec_eval_variants_in_one_decode_equal_each_alone(rng, monkeypatch):
    """Every rate, interleaving on and off, erase and soft: ten
    populations (soft-weighted beside unweighted, positions past the
    codeword's end) decoded together equal each replayed alone."""
    assert len(FEC_EVAL_VARIANTS) == 10
    populations = [
        _variant_population(rng, *variant, rows=9) for variant in FEC_EVAL_VARIANTS
    ]
    alone = [_alone(p) for p in populations]
    calls = _count_decodes(monkeypatch)
    merged = replay_populations(populations)
    assert calls == [("1/2", 90, True)]
    assert [e.dtype for e in merged] == [np.dtype(np.int64)] * 10
    assert [e.tolist() for e in merged] == [e.tolist() for e in alone]
    for p, errors in zip(populations, merged):
        windows = p.windows or [None] * len(p.positions)
        assert errors.tolist() == [
            _scalar_replay(p.codec, p.info, p.codeword, row, p.interleaver,
                           window, p.soft_weight)
            for row, window in zip(p.positions, windows)
        ]
    recovered = np.concatenate(merged) == 0
    assert 0 < recovered.sum() < len(recovered)


def test_unweighted_populations_decode_without_weights(rng, monkeypatch):
    populations = [
        _variant_population(rng, rate, True, marking, rows=5)
        for rate, marking in (("8/9", "none"), ("1/2", "erase"))
    ]
    alone = [_alone(p) for p in populations]
    calls = _count_decodes(monkeypatch)
    merged = replay_populations(populations)
    assert calls == [("1/2", 10, False)]
    assert [e.tolist() for e in merged] == [e.tolist() for e in alone]


def test_empty_population_among_others(rng):
    populations = [
        _variant_population(rng, "2/3", False, "none", rows=4),
        _variant_population(rng, "4/5", True, "none", rows=0),
        _variant_population(rng, "1/2", True, "soft", rows=3),
    ]
    merged = replay_populations(populations)
    assert [len(e) for e in merged] == [4, 0, 3]
    assert merged[1].dtype == np.int64
    assert merged[0].tolist() == _alone(populations[0]).tolist()
    assert merged[2].tolist() == _alone(populations[2]).tolist()


def test_populations_must_share_a_trellis(rng):
    base = _variant_population(rng, "1/2", False, "none", rows=2)
    other_code = RcpcCodec("1/2", ConvolutionalCode(5, (0o23, 0o35)))
    with pytest.raises(ValueError, match="mother code"):
        replay_populations(
            [base, DamagePopulation(other_code, base.info,
                                    other_code.encode(base.info),
                                    base.positions)]
        )
    codec = RcpcCodec("2/3")
    info = base.info[:64]
    with pytest.raises(ValueError):
        replay_populations(
            [base, DamagePopulation(codec, info, codec.encode(info),
                                    base.positions)]
        )
