"""Lightweight process-resource reads (no external dependencies).

Spans read the process's current and peak resident set size at their
boundaries (one ``/proc`` read each), and heartbeat records carry the
live RSS.

On Linux the RSS figures come from ``/proc/self/status`` (``VmRSS`` /
``VmHWM``); elsewhere the fallback is ``resource.getrusage`` (peak
only, with the platform's unit quirk handled: Linux reports KiB, macOS
bytes).  A failed read degrades to zeros rather than raising — resource
accounting is observability, never a reason to fail a run.
"""

from __future__ import annotations

import sys

_PROC_STATUS = "/proc/self/status"


def _proc_status_kb() -> tuple[int, int]:
    """(VmRSS, VmHWM) in KiB from /proc, or (0, 0) when unreadable."""
    rss = peak = 0
    try:
        with open(_PROC_STATUS, "rb") as stream:
            for line in stream:
                if line.startswith(b"VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith(b"VmHWM:"):
                    peak = int(line.split()[1])
                if rss and peak:
                    break
    except (OSError, ValueError, IndexError):
        return 0, 0
    return rss, peak


def _rusage_peak_kb() -> int:
    """Peak RSS via getrusage, normalized to KiB (0 when unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return 0
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        return int(peak // 1024)
    return int(peak)


def rss_kb() -> int:
    """Current resident set size in KiB (0 when unknowable)."""
    rss, _ = _proc_status_kb()
    return rss


def rss_and_peak_kb() -> tuple[int, int]:
    """(current, peak) resident set size in KiB from one /proc read."""
    rss, peak = _proc_status_kb()
    return rss, peak or _rusage_peak_kb()
