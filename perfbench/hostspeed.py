"""Host speed, sampled on the thread that does the work.

The reference box is two vCPUs of a shared host.  Its speed moves by up
to 1.8x in phases that last from seconds to minutes, with no steal time:
the vCPU keeps running, only slower, and process CPU time slows with the
wall.  A second process cannot see it either, because the contention is
per vCPU.  What does follow it is a fixed pure-Python loop run on the
workload's own thread: every ``INTERVAL_S`` a SIGALRM handler times one
pass of the loop.  The host's speed can change within a second, so each
stretch of work between two samples is scaled by the loop's local time
(the median of the nearest samples) against ``REFERENCE_S``; their sum
is the wall the work would have taken on the host in a calm phase.  The
handler's own time is left out.

The loop is the benchmark's own code, so a change to the program moves
the workload's wall and not the loop's.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples; each costs about a millisecond, so 2%.
INTERVAL_S = 0.05
#: The loop's median time on the reference box in a calm phase.
REFERENCE_S = 0.0007
#: Samples on each side that set the loop's local time.
NEIGHBOURS = 2


def _loop() -> int:
    total = 0
    for i in range(12_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the loop from SIGALRM while started (main thread only)."""

    def __init__(self) -> None:
        self.samples: list = []  # (start, seconds) per pass of the loop

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def calm_since(self, mark: int, start: float, end: float) -> float:
        return calm_wall(self.samples[mark:], start, end)


def calm_wall(samples, start: float, end: float) -> float:
    """The calm-phase wall of ``[start, end]`` from ``(start, seconds)``
    samples; ``perf_counter`` is one clock for every process on Linux."""
    window = [(at, seconds) for at, seconds in samples if start <= at < end]
    if not window:
        raise RuntimeError("no host-speed sample in the window")
    times = [seconds for _, seconds in window]
    calm = 0.0
    begin = start
    for index, (sampled_at, seconds) in enumerate(window):
        near = times[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1]
        calm += (sampled_at - begin) * REFERENCE_S / statistics.median(near)
        begin = sampled_at + seconds
    near = times[-NEIGHBOURS - 1:]
    return calm + (end - begin) * REFERENCE_S / statistics.median(near)
