#!/usr/bin/env python3
"""Quickstart: run one WaveLAN measurement trial and analyze it.

This walks the full pipeline the paper describes in Section 4:

1. configure a physical scenario (an office, two laptops 8 ft apart);
2. blast specially-formatted UDP test packets across the simulated link,
   logging every received bit + the modem status registers;
3. run the offline analysis: heuristic packet matching, damage
   classification, Table-1 metrics, per-class signal statistics.

Run:  python examples/quickstart.py
"""

from repro import TrialConfig, analyze_trial, classify_trace, run_fast_trial
from repro.analysis.signalstats import signal_stats_by_class
from repro.analysis.tables import render_metrics_table, render_signal_table
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel


def main() -> None:
    # -- 1. the physical scenario -------------------------------------
    propagation = PropagationModel.office()
    config = TrialConfig(
        name="quickstart-office",
        packets=20_000,
        seed=2024,
        propagation=propagation,
        tx_position=Point(0.0, 0.0),
        rx_position=Point(8.0, 0.0),
    )
    print(f"Office link, 8 ft apart: predicted mean signal level "
          f"{config.resolved_mean_level():.1f} (the paper's office trials "
          f"ran at ~29.5)\n")

    # -- 2. the measurement -------------------------------------------
    output = run_fast_trial(config)
    trace = output.trace
    print(f"Sent {trace.packets_sent} test packets; the promiscuous "
          f"receiver logged {trace.packets_received} frames.\n")

    # -- 3. the offline analysis --------------------------------------
    metrics = analyze_trial(trace)
    print("Table-1-style metrics:")
    print(render_metrics_table([metrics]))
    print(f"\nEstimated BER: {metrics.bit_error_rate:.2g} over "
          f"{metrics.body_bits_received:.2g} body bits "
          f"(the paper: 'very low ... low enough for optimism about "
          f"extending even fairly error-intolerant applications')\n")

    classified = classify_trace(trace)
    print("Signal metrics by packet class:")
    print(render_signal_table(signal_stats_by_class(classified)))

    # -- 4. now make it interesting: degrade the link ------------------
    print("\nSame link through a human body and two concrete walls "
          "(the Section 6.3 scenario):")
    from repro.scenario.registry import REGISTRY

    body = REGISTRY.compile("paper/body")
    degraded = run_fast_trial(
        TrialConfig(
            name="quickstart-body",
            packets=5_000,
            seed=2025,
            propagation=body.propagation(),
            tx_position=body.station_point("tx"),
            rx_position=body.station_point("rx"),
        )
    )
    print(render_metrics_table([analyze_trial(degraded.trace)]))


if __name__ == "__main__":
    main()
