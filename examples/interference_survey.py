#!/usr/bin/env python3
"""Survey every interference source the paper tested (Section 7).

Places one WaveLAN pair 20 ft apart and subjects it, one source at a
time, to the paper's menagerie: a 2 W amateur transmitter touching the
modem, a microwave oven, narrowband FM cordless phones, spread-spectrum
cordless phones near and far, and a hostile competing WaveLAN unit —
then prints a one-line verdict per source, mirroring the paper's
Section 7 narrative.

Run:  python examples/interference_survey.py
"""

from repro import TrialConfig, analyze_trial, classify_trace, run_fast_trial
from repro.analysis.signalstats import stats_for_test_packets
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.phy.modem import ModemConfig
from repro.interference.frontend import AmateurRadioTransmitter, MicrowaveOven
from repro.interference.narrowband import NarrowbandPhonePair
from repro.interference.spreadspectrum import SpreadSpectrumPhonePair
from repro.interference.wavelan import CompetingWaveLanTransmitter

TX = Point(20.0, 0.0)
RX = Point(0.0, 0.0)
TOUCHING = Point(0.3, 0.0)
ACROSS_ROOM = Point(0.0, 14.0)
PACKETS = 1_440


def survey(name: str, sources, seed: int, receive_threshold: int = 3) -> None:
    propagation = PropagationModel.calibrated(level=27.0, at_distance_ft=20.0)
    output = run_fast_trial(
        TrialConfig(
            name=name,
            packets=PACKETS,
            seed=seed,
            propagation=propagation,
            tx_position=TX,
            rx_position=RX,
            interference=sources,
            modem_config=ModemConfig(receive_threshold=receive_threshold),
        )
    )
    metrics = analyze_trial(output.trace)
    classified = classify_trace(output.trace)
    stats = stats_for_test_packets(name, classified)
    silence = stats.silence.mean if stats.silence else 0.0
    received = max(1, metrics.packets_received)
    print(f"{name:<38} loss {metrics.packet_loss_percent:5.1f}%  "
          f"trunc {100 * metrics.packets_truncated / received:5.1f}%  "
          f"dmg {100 * metrics.body_damaged_packets / received:5.1f}%  "
          f"silence {silence:5.1f}")


def main() -> None:
    print(f"{'source':<38} {'loss':>10} {'trunc':>7} {'dmg':>9} {'silence':>8}")
    print("-" * 80)

    survey("(quiet baseline)", [], seed=1)
    survey(
        "2W 144MHz ham TX, touching",
        [AmateurRadioTransmitter(TOUCHING)],
        seed=2,
    )
    survey(
        "microwave oven, touching (900MHz rx)",
        [MicrowaveOven(TOUCHING)],
        seed=3,
    )
    survey(
        "FM cordless phones, clustered",
        [NarrowbandPhonePair(TOUCHING, TOUCHING)],
        seed=4,
    )
    survey(
        "SS cordless phone, base near",
        [SpreadSpectrumPhonePair(handset_position=ACROSS_ROOM,
                                 base_position=TOUCHING,
                                 base_level_at_1ft=31.5)],
        seed=5,
    )
    survey(
        "SS cordless phone, all units ~20ft",
        [SpreadSpectrumPhonePair(handset_position=Point(2.0, 21.0),
                                 base_position=Point(2.0, 20.0),
                                 base_level_at_1ft=31.5)],
        seed=6,
    )
    # The hostile WaveLAN sits two rooms away: its carrier reads ~13.5
    # here — above the default threshold (disaster) but maskable at 25.
    hostile_position = Point(45.0, 0.0)
    hostile_power = 30.0
    survey(
        "competing WaveLAN, masked (thr 25)",
        [CompetingWaveLanTransmitter(hostile_position,
                                     level_at_1ft=hostile_power,
                                     victim_receive_threshold=25)],
        seed=7,
        receive_threshold=25,
    )
    survey(
        "competing WaveLAN, unmasked (thr 3)",
        [CompetingWaveLanTransmitter(hostile_position,
                                     level_at_1ft=hostile_power,
                                     victim_receive_threshold=3)],
        seed=8,
        receive_threshold=3,
    )

    print("\nThe paper's Section 7 in one table: out-of-band power and "
          "narrowband energy are shrugged off (DSSS processing gain), "
          "in-band spread-spectrum sources are devastating at close "
          "range, and a hostile WaveLAN is fatal unless the receive "
          "threshold masks it.")


if __name__ == "__main__":
    main()
