#!/usr/bin/env python3
"""A file transfer over WaveLAN, three ways (Section 9.3).

Downloads a 200 KB "file" from a fixed host to a mobile laptop while
the laptop retreats from its base station, comparing:

* plain end-to-end TCP (1996-era coarse timers);
* the same TCP over a link with 3 transparent retries;
* the same TCP with a snoop agent at the base station.

Watch where each approach gives out — and how the modem's own signal
registers would have told you in advance.

Run:  python examples/tcp_over_wireless.py
"""

from repro.transport.link import LinkConfig
from repro.transport.snoop import run_snoop_transfer
from repro.transport.tcp import run_transfer

FILE_SEGMENTS = 200  # 200 KB at 1 KB per segment

STOPS = (
    ("desk next to the base station", 29.5),
    ("same office, far corner", 24.0),
    ("two offices down the hall", 13.8),
    ("behind the metal cabinets", 9.5),
    ("edge of coverage", 8.0),
    ("the stairwell", 7.0),
)


def main() -> None:
    print(f"Transferring {FILE_SEGMENTS} KB at each stop "
          "(plain / +link ARQ / +snoop):\n")
    print(f"{'location':>32} | {'level':>5} | {'plain':>9} | "
          f"{'link ARQ':>9} | {'snoop':>9}")
    for location, level in STOPS:
        cells = []
        for variant in ("plain", "arq", "snoop"):
            config = LinkConfig(
                mean_level=level,
                arq_retries=3 if variant == "arq" else 0,
            )
            if variant == "snoop":
                sender, _, _, _ = run_snoop_transfer(
                    config, total_segments=FILE_SEGMENTS, seed=42,
                    time_limit_s=90.0,
                )
            else:
                sender, _, _ = run_transfer(
                    config, total_segments=FILE_SEGMENTS, seed=42,
                    time_limit_s=90.0,
                )
            if sender.finished:
                seconds = sender.finish_time
                cells.append(f"{seconds:6.1f} s")
            else:
                done = sender.highest_acked
                cells.append(f"{100 * done / FILE_SEGMENTS:5.0f}%*")
        print(f"{location:>32} | {level:5.1f} | " + " | ".join(
            f"{c:>9}" for c in cells))
    print("\n(* = percentage completed when the 90 s patience ran out)")
    print("\nThe paper's Figure-2 regions, felt through a file transfer: "
          "everything is instant above level ~9; TCP's congestion "
          "response is what actually fails first below it; and the "
          "fixes the 1996 literature proposed (link retries, snooping) "
          "buy back the error region almost entirely.")


if __name__ == "__main__":
    main()
