"""Resource reads: /proc parsing and the getrusage fallback."""

from __future__ import annotations

from repro.obs import resources
from repro.obs.resources import rss_and_peak_kb, rss_kb


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
