"""The experiments' batched FEC replay: per-packet equivalence and goldens.

``throughput``'s aggregate replays the damaged packets of all eight
signal levels in one batched decode, each level against its own
information block, and ``fec_eval`` replays each rate's syndrome
population the same way.  The per-packet ``throughput._fec_recovers``
loop must count the same recoveries level by level, and both
experiments' results are pinned to the values the per-packet replay on
the gather-based Viterbi kernel produced for the same seeds (recorded
with ``throughput.run(scale=0.05, seed=2004)`` and
``fec_eval.run(scale=0.05, seed=2004, syndrome_limit=25)`` before
either switched to the batched replay).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.classify import PacketClass, classify_trace
from repro.experiments import fec_eval, throughput
from repro.experiments.engine import trial_seed
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RcpcCodec
from repro.trace.trial import TrialConfig, run_fast_trial

LEVEL_SEED = 2004
LEVEL_PACKETS = 300

# (level, packets_sent, undamaged, body_damaged, truncated, lost,
#  fec_recovered)
THROUGHPUT_GOLDEN = [
    (29.5, 300, 300, 0, 0, 0, 0),
    (13.8, 300, 300, 0, 0, 0, 0),
    (11.0, 300, 300, 0, 0, 0, 0),
    (9.5, 300, 300, 0, 0, 0, 0),
    (8.0, 300, 285, 14, 0, 0, 14),
    (7.0, 300, 265, 34, 1, 0, 34),
    (6.0, 300, 216, 66, 2, 13, 65),
    (5.0, 300, 135, 84, 4, 71, 84),
]

# (scenario, rate, interleaved, marking, packets, recovered, residual,
#  overhead)
FEC_GOLDEN = [
    ("Tx5 attenuation", "8/9", False, "none", 4, 4, 0, 0.125),
    ("Tx5 attenuation", "8/9", True, "none", 4, 4, 0, 0.125),
    ("Tx5 attenuation", "4/5", False, "none", 4, 4, 0, 0.25),
    ("Tx5 attenuation", "4/5", True, "none", 4, 4, 0, 0.25),
    ("Tx5 attenuation", "2/3", False, "none", 4, 4, 0, 0.5),
    ("Tx5 attenuation", "2/3", True, "none", 4, 4, 0, 0.5),
    ("Tx5 attenuation", "1/2", False, "none", 4, 4, 0, 1.0),
    ("Tx5 attenuation", "1/2", True, "none", 4, 4, 0, 1.0),
    ("Tx5 attenuation", "1/2", True, "erase", 4, 4, 0, 1.0),
    ("Tx5 attenuation", "1/2", True, "soft", 4, 4, 0, 1.0),
    ("SS-phone handset", "8/9", False, "none", 25, 4, 5363, 0.125),
    ("SS-phone handset", "8/9", True, "none", 25, 3, 5120, 0.125),
    ("SS-phone handset", "4/5", False, "none", 25, 3, 2271, 0.25),
    ("SS-phone handset", "4/5", True, "none", 25, 3, 2125, 0.25),
    ("SS-phone handset", "2/3", False, "none", 25, 8, 262, 0.5),
    ("SS-phone handset", "2/3", True, "none", 25, 10, 185, 0.5),
    ("SS-phone handset", "1/2", False, "none", 25, 24, 5, 1.0),
    ("SS-phone handset", "1/2", True, "none", 25, 25, 0, 1.0),
    ("SS-phone handset", "1/2", True, "erase", 25, 2, 10184, 1.0),
    ("SS-phone handset", "1/2", True, "soft", 25, 25, 0, 1.0),
]

# (scenario, packets, rate_counts, mean_overhead)
ADAPTIVE_GOLDEN = [
    ("Tx5 attenuation", 400,
     {"8/9": 7, "4/5": 0, "2/3": 378, "1/2": 15}, 0.5121875),
    ("SS-phone handset", 393,
     {"8/9": 6, "4/5": 11, "2/3": 0, "1/2": 376}, 0.9656488549618321),
]


@pytest.fixture(scope="module")
def stacked_levels() -> throughput.ThroughputResult:
    """All eight levels at 300 packets, through the aggregate's one
    stacked replay."""
    return throughput.run(scale=0.05, seed=LEVEL_SEED)


@pytest.mark.parametrize("level", throughput.LEVELS)
def test_batched_level_replay_equals_per_packet_loop(level, stacked_levels):
    """The aggregate's one decode over all levels counts exactly the
    recoveries of calling ``_fec_recovers`` once per damaged packet of
    each level, against that level's own information block."""
    point = stacked_levels.point(level)
    assert point.packets_sent == LEVEL_PACKETS

    # The level's replay inputs and damaged population, as _run_level
    # and the aggregate build them from the level's trial seed.
    seed = trial_seed(LEVEL_SEED, "throughput", f"level-{level:g}")
    codec = RcpcCodec(throughput.FEC_RATE)
    interleaver = BlockInterleaver(32, 64)
    info = (
        np.random.default_rng(seed)
        .integers(0, 2, throughput.FEC_INFO_BITS)
        .astype(np.uint8)
    )
    transmitted = codec.encode(info)
    trace = run_fast_trial(
        TrialConfig(name=f"tp-{level}", packets=LEVEL_PACKETS,
                    seed=seed, mean_level=level)
    ).trace
    damaged = classify_trace(trace).by_class(PacketClass.BODY_DAMAGED)
    assert len(damaged) == point.body_damaged

    per_packet = sum(
        throughput._fec_recovers(
            p.syndrome, codec, interleaver, info, transmitted
        )
        for p in damaged
        if p.syndrome is not None
    )
    assert point.fec_recovered == per_packet


def test_throughput_points_pinned(stacked_levels):
    points = stacked_levels.points
    assert [
        (p.level, p.packets_sent, p.undamaged, p.body_damaged, p.truncated,
         p.lost, p.fec_recovered)
        for p in points
    ] == THROUGHPUT_GOLDEN


def test_fec_eval_outcomes_pinned():
    result = fec_eval.run(scale=0.05, seed=2004, syndrome_limit=25)
    assert [
        (o.scenario, o.rate_name, o.interleaved, o.marking, o.packets,
         o.packets_recovered, o.residual_bit_errors, o.overhead_fraction)
        for o in result.outcomes
    ] == FEC_GOLDEN
    assert [
        (a.scenario, a.packets, a.rate_counts, a.mean_overhead)
        for a in result.adaptive
    ] == ADAPTIVE_GOLDEN
