#!/usr/bin/env python3
"""Adaptive FEC on a degrading link — the paper's Section 8 proposal.

A laptop walks away from its base station across a lecture hall.  As
the signal level falls toward the error region, the adaptive controller
reads the modem's per-packet status registers and escalates the RCPC
rate.  We compare goodput (information bits delivered per channel bit)
against the fixed-rate alternatives — showing why the paper argues "FEC
would be useless overhead in most situations" yet a *variable* scheme
pays off at the edges.

Run:  python examples/adaptive_fec_link.py
"""

import numpy as np

from repro import TrialConfig, run_fast_trial
from repro.analysis.classify import PacketClass, classify_trace
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.fec.adaptive import AdaptiveFecController
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.framing.testpacket import BODY_BITS

WALK_DISTANCES_FT = [10, 25, 40, 55, 65, 75, 82, 88, 94, 100]
PACKETS_PER_STOP = 300
INFO_BITS = 512


def packet_outcomes(distance_ft: float, seed: int):
    """(signal stats, per-packet syndromes or None) at one stop."""
    propagation = PropagationModel.lecture_hall()
    output = run_fast_trial(
        TrialConfig(
            name=f"walk-{distance_ft}",
            packets=PACKETS_PER_STOP,
            seed=seed,
            propagation=propagation,
            tx_position=Point(float(distance_ft), 0.0),
            rx_position=Point(0.0, 0.0),
        )
    )
    classified = classify_trace(output.trace)
    return classified


def simulate_fec(classified, rate_picker) -> tuple[int, int, int]:
    """Replay a stop's packets through FEC at rates from ``rate_picker``.

    Returns (packets_ok, info_bits_delivered, channel_bits_spent).
    """
    interleaver = BlockInterleaver(32, 64)
    codecs = {name: RcpcCodec(name) for name in RATE_ORDER}
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, INFO_BITS).astype(np.uint8)

    ok = 0
    delivered = 0
    spent = 0
    for packet in classified.test_packets:
        status = packet.record.status
        rate = rate_picker(status)
        codec = codecs[rate]
        transmitted = codec.encode(info)
        spent += len(transmitted)
        if packet.packet_class is PacketClass.TRUNCATED:
            continue  # truncation defeats any per-packet block code
        stream = interleaver.scramble(transmitted).copy()
        if packet.syndrome is not None and packet.syndrome.body_bits_damaged:
            scale = len(transmitted) / BODY_BITS
            positions = np.unique(
                (packet.syndrome.body_bit_positions * scale).astype(np.int64)
            )
            positions = positions[positions < len(transmitted)]
            stream[positions] ^= 1
        decoded = codec.decode(interleaver.unscramble(stream))
        if np.array_equal(decoded, info):
            ok += 1
            delivered += INFO_BITS
    return ok, delivered, spent


def main() -> None:
    print("A walk across the lecture hall, with FEC choices per stop:\n")
    header = (f"{'ft':>4} {'level':>6} {'dmg%':>6} | "
              + " | ".join(f"{r:>7}" for r in RATE_ORDER)
              + " | adaptive (chosen rates)")
    print(header)

    controllers = {"adaptive": AdaptiveFecController()}
    totals = {name: [0, 0] for name in list(RATE_ORDER) + ["adaptive"]}

    for stop, distance in enumerate(WALK_DISTANCES_FT):
        classified = packet_outcomes(distance, seed=4000 + stop)
        levels = [p.record.status.signal_level for p in classified.test_packets]
        damaged = sum(
            1
            for p in classified.test_packets
            if p.packet_class is not PacketClass.UNDAMAGED
        )
        n = max(1, len(classified.test_packets))

        cells = []
        for rate in RATE_ORDER:
            ok, delivered, spent = simulate_fec(classified, lambda s, r=rate: r)
            totals[rate][0] += delivered
            totals[rate][1] += spent
            cells.append(f"{100 * ok / n:6.1f}%")

        controller = controllers["adaptive"]
        chosen = []

        def adaptive_picker(status):
            decision = controller.observe(
                status.signal_level, status.silence_level, status.signal_quality
            )
            chosen.append(decision.rate_name)
            return decision.rate_name

        ok, delivered, spent = simulate_fec(classified, adaptive_picker)
        totals["adaptive"][0] += delivered
        totals["adaptive"][1] += spent
        dominant = max(set(chosen), key=chosen.count) if chosen else "-"
        print(f"{distance:4d} {np.mean(levels) if levels else 0:6.1f} "
              f"{100 * damaged / n:6.1f} | "
              + " | ".join(cells)
              + f" | {100 * ok / n:6.1f}% (mostly {dominant})")

    print("\nGoodput over the whole walk (info bits / channel bits):")
    for name, (delivered, spent) in totals.items():
        efficiency = delivered / spent if spent else 0.0
        print(f"  {name:>8}: {efficiency:.3f}")
    print("\nThe adaptive scheme matches the weak code's efficiency on the "
          "strong half of the walk and the strong code's robustness at the "
          "edge — the 'variable FEC mechanism' of Section 8.")


if __name__ == "__main__":
    main()
