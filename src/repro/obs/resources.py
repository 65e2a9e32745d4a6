"""Lightweight process-resource reads (no external dependencies).

Spans read the process's current and peak resident set size at their
boundaries (one ``/proc`` read each), and heartbeat records carry the
live RSS.

On Linux the RSS figures come from ``/proc/self/status`` (``VmRSS`` /
``VmHWM``): one ``os.pread`` on a descriptor each process keeps open,
parsed with ``bytes.find``.  ``getrusage`` is only the fallback for the
peak (with the platform's unit quirk handled: Linux reports KiB, macOS
bytes), because a spawned child's ``ru_maxrss`` starts at its parent's
high-water mark while its ``VmHWM`` is its own.  A failed read degrades
to zeros rather than raising — resource accounting is observability,
never a reason to fail a run.
"""

from __future__ import annotations

import os
import sys

_PROC_STATUS = "/proc/self/status"

#: Bytes read per status read; the file is ~1.4 KiB and both fields sit
#: in its first half.
_STATUS_READ_BYTES = 4096

#: ``(pid, path) -> descriptor`` of the status file this process reads.
#: Keyed on the pid because a forked child inherits its parent's
#: descriptor, which still reads the parent's status; keyed on the path
#: so that pointing ``_PROC_STATUS`` elsewhere takes effect.
_DESCRIPTORS: dict[tuple[int, str], int] = {}


def _status_descriptor() -> int:
    """This process's open descriptor on ``_PROC_STATUS`` (opened once).

    Lock-free under threads: ``setdefault`` keeps the first descriptor
    two racing threads open, and ``pop`` hands each superseded one (an
    inherited parent's) to exactly one closer.
    """
    key = (os.getpid(), _PROC_STATUS)
    fd = _DESCRIPTORS.get(key)
    if fd is not None:
        return fd
    fd = os.open(_PROC_STATUS, os.O_RDONLY | os.O_CLOEXEC)
    held = _DESCRIPTORS.setdefault(key, fd)
    if held != fd:
        os.close(fd)
        return held
    for stale in list(_DESCRIPTORS):
        if stale != key:
            stale_fd = _DESCRIPTORS.pop(stale, None)
            if stale_fd is not None:
                os.close(stale_fd)
    return fd


def _field_kb(status: bytes, tag: bytes) -> int:
    """The value of one ``Tag:   1234 kB`` line (0 when absent)."""
    start = status.find(tag)
    if start < 0:
        return 0
    start += len(tag)
    return int(status[start : status.index(b"kB", start)])


def _proc_status_kb() -> tuple[int, int]:
    """(VmRSS, VmHWM) in KiB from /proc, or (0, 0) when unreadable."""
    try:
        status = os.pread(_status_descriptor(), _STATUS_READ_BYTES, 0)
        return _field_kb(status, b"\nVmRSS:"), _field_kb(status, b"\nVmHWM:")
    except (OSError, ValueError):
        return 0, 0


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
