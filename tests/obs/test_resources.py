"""Resource reads: /proc parsing and the getrusage fallback."""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.obs import resources
from repro.obs.resources import rss_and_peak_kb, rss_kb
from repro.obs.spans import SpanRecorder
from tests.obs.sinks import ListSink

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


def _fresh_parse(path: str) -> tuple[int, int]:
    """(VmRSS, VmHWM) by opening ``path`` and scanning its lines."""
    rss = peak = 0
    with open(path, "rb") as stream:
        for line in stream:
            if line.startswith(b"VmRSS:"):
                rss = int(line.split()[1])
            elif line.startswith(b"VmHWM:"):
                peak = int(line.split()[1])
    return rss, peak


class TestSampling:
    def test_unreadable_proc_degrades_to_zero(self, monkeypatch):
        monkeypatch.setattr(resources, "_PROC_STATUS", "/nonexistent/status")
        assert resources._proc_status_kb() == (0, 0)
        assert rss_kb() == 0
        # peak falls back to getrusage, which still works
        rss, peak = rss_and_peak_kb()
        assert rss == 0
        assert peak >= 0

    def test_peak_rss_positive_on_linux(self):
        import sys

        if sys.platform != "linux":  # pragma: no cover - linux CI
            return
        rss, peak = rss_and_peak_kb()
        assert peak >= rss > 0


@linux_only
class TestKeptDescriptor:
    def test_agrees_with_a_fresh_parse(self, monkeypatch, tmp_path):
        # Exactly, on a frozen copy of this process's status file (with
        # the two fields set apart, so that swapping them shows) ...
        marked = {b"VmRSS:": b"VmRSS:\t   12345 kB", b"VmHWM:": b"VmHWM:\t   67890 kB"}
        lines = open("/proc/self/status", "rb").read().split(b"\n")
        frozen = tmp_path / "status"
        frozen.write_bytes(b"\n".join(marked.get(line[:6], line) for line in lines))
        monkeypatch.setattr(resources, "_PROC_STATUS", str(frozen))
        assert resources._proc_status_kb() == _fresh_parse(str(frozen))
        assert resources._proc_status_kb() == (12345, 67890)
        monkeypatch.undo()
        # ... and on the live file, where the high-water mark only rises.
        _, peak_before = _fresh_parse("/proc/self/status")
        rss, peak = resources._proc_status_kb()
        _, peak_after = _fresh_parse("/proc/self/status")
        assert peak_before <= peak <= peak_after
        assert 0 < rss <= peak

    def test_one_descriptor_per_process(self):
        resources._proc_status_kb()
        key = (os.getpid(), resources._PROC_STATUS)
        fd = resources._DESCRIPTORS[key]
        resources._proc_status_kb()
        assert resources._DESCRIPTORS == {key: fd}
        assert os.readlink(f"/proc/self/fd/{fd}") == f"/proc/{os.getpid()}/status"

    def test_forked_child_reads_its_own_status(self):
        """An inherited descriptor reads the parent's file; the child
        must open its own and close the inherited one."""
        resources._proc_status_kb()
        parent_key = (os.getpid(), resources._PROC_STATUS)
        assert parent_key in resources._DESCRIPTORS
        readable, writable = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                rss, peak = resources._proc_status_kb()
                own = (os.getpid(), resources._PROC_STATUS)
                fd = resources._DESCRIPTORS[own]
                report = {
                    "link": os.readlink(f"/proc/self/fd/{fd}"),
                    "keys": [list(key) for key in resources._DESCRIPTORS],
                    "peak": peak,
                    "fresh_peak": _fresh_parse(f"/proc/{os.getpid()}/status")[1],
                }
                os.write(writable, json.dumps(report).encode())
            finally:
                os._exit(0)
        os.close(writable)
        with os.fdopen(readable, "rb") as stream:
            report = json.loads(stream.read())
        os.waitpid(pid, 0)
        assert report["link"] == f"/proc/{pid}/status"
        assert report["keys"] == [[pid, resources._PROC_STATUS]]
        assert 0 < report["peak"] <= report["fresh_peak"]
        # The parent's own descriptor is untouched by the child's close.
        fd = resources._DESCRIPTORS[parent_key]
        assert os.readlink(f"/proc/self/fd/{fd}") == f"/proc/{os.getpid()}/status"
        assert resources._proc_status_kb()[0] > 0

    def test_span_reads_once_at_each_boundary(self, monkeypatch):
        resources._proc_status_kb()
        status_fd = resources._DESCRIPTORS[(os.getpid(), resources._PROC_STATUS)]
        reads = []
        pread = os.pread

        def counted(fd, length, offset):
            if fd == status_fd:
                reads.append(offset)
            return pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", counted)
        records = ListSink()
        recorder = SpanRecorder(sink=records)
        with recorder.span("work"):
            assert len(reads) == 1
        assert len(reads) == 2
        record, = records
        assert record["peak_rss_kb"] > 0
