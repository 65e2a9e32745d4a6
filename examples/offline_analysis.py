#!/usr/bin/env python3
"""The paper's capture-then-analyze-offline workflow, end to end.

1. Run a live capture on a marginal link (the modified-driver part).
2. Save the raw trace to disk and throw the simulator away.
3. Reload the trace and run the *entire* analysis offline: matching,
   classification, Table-1 metrics, burst characterization.
4. Fit a Gilbert-Elliott channel to the measured burst structure and
   use it to pick the cheapest RCPC rate that would survive this link.

Everything after step 2 consumes only the trace file — the same
pipeline would run on a trace converted from real WaveLAN hardware.

Run:  python examples/offline_analysis.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import TrialConfig, run_fast_trial
from repro.analysis.burststats import burst_statistics
from repro.analysis.classify import classify_trace
from repro.analysis.metrics import analyze_trial
from repro.analysis.tables import render_metrics_table
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.trace.persist import load_trace, save_trace


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="wavelan-trace-"))
    # .wlt2 selects the v2 columnar binary store: memory-mapped,
    # zero-copy analysis.  Swap the suffix for .jsonl.gz to get the
    # greppable v1 interchange format — load_trace auto-detects either
    # from the file's leading bytes.
    trace_path = workdir / "marginal-link.wlt2"

    # ------------------------------------------------------------------
    print("1. capturing 4,000 packets on a marginal link (level ~7.2)...")
    output = run_fast_trial(
        TrialConfig(name="marginal-link", packets=4_000, mean_level=7.2, seed=77)
    )

    print(f"2. saving the raw trace to {trace_path}")
    save_trace(output.trace, trace_path)
    size_kb = trace_path.stat().st_size / 1024
    print(f"   {output.trace.packets_received} records, {size_kb:.0f} KiB columnar\n")
    del output  # the simulator's ground truth is gone now

    # ------------------------------------------------------------------
    print("3. reloading (memory-mapped) and analyzing offline:")
    trace = load_trace(trace_path)
    metrics = analyze_trial(trace)
    print(render_metrics_table([metrics]))

    classified = classify_trace(trace)
    stats = burst_statistics(classified)
    print(f"\n   burst structure: {stats.burst_count} bursts, "
          f"mean span {stats.mean_burst_span_bits:.1f} bits, "
          f"mean {stats.mean_burst_errors:.1f} errors/burst "
          f"(burstiness {stats.burstiness_ratio:.1f}; 1.0 would be i.i.d.)")
    print(f"   measured BER {stats.mean_ber:.2e}")

    # ------------------------------------------------------------------
    print("\n4. fitting a Gilbert-Elliott channel and picking an FEC rate:")
    channel = stats.fitted_gilbert_elliott()
    print(f"   fitted GE: P(g->b)={channel.p_good_to_bad:.2e}, "
          f"P(b->g)={channel.p_bad_to_good:.2e}, "
          f"mean burst {channel.mean_burst_bits:.1f} bits")

    interleaver = BlockInterleaver(32, 64)
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, 1024).astype(np.uint8)
    print(f"\n   {'rate':>5} | {'overhead':>8} | {'recovery on fitted channel':>26}")
    chosen = None
    for rate_name in RATE_ORDER:  # weakest (cheapest) first
        codec = RcpcCodec(rate_name)
        transmitted = codec.encode(info)
        recovered = 0
        trials = 200
        for _ in range(trials):
            stream = interleaver.scramble(transmitted).copy()
            flips = channel.error_positions(len(transmitted), rng)
            stream[flips] ^= 1
            decoded = codec.decode(interleaver.unscramble(stream))
            if np.array_equal(decoded, info):
                recovered += 1
        fraction = recovered / trials
        print(f"   {rate_name:>5} | {100 * codec.overhead:7.1f}% | "
              f"{100 * fraction:25.1f}%")
        if fraction > 0.99 and chosen is None:
            chosen = (rate_name, codec.overhead)
    if chosen:
        print(f"\n   -> cheapest rate surviving this link: {chosen[0]} "
              f"({100 * chosen[1]:.1f}% overhead)")
    else:
        print("\n   -> no rate in the family fully survives; "
              "fall back to ARQ or wait for a better link")


if __name__ == "__main__":
    main()
