"""What a session counts, and what counting costs the per-event paths.

The discrete-event path's owners (channel, stations, controllers, MACs,
modems, error models) hold their counter handles instead of looking
them up per event.  These pins are the counters the per-event lookups
produced: a handle fetched outside the session, or a lost label,
changes them.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import engine
from repro.obs.metrics import Metrics

#: Session counters of one report-scale ``mac`` run (seed 4, report
#: trial selection).
MAC_COUNTERS = {
    "link.deliveries": 812,
    "link.drops{reason=bof_missed}": 444,
    "link.drops{reason=half_duplex}": 229,
    "link.frames_logged": 812,
    "link.transmissions": 495,
    "mac.attempts{protocol=csma_ca}": 417,
    "mac.attempts{protocol=csma_cd}": 252,
    "mac.backoff_slots{protocol=csma_ca}": 34164,
    "mac.collisions{protocol=csma_ca}": 174,
    "mac.controller_rx{status=accepted}": 812,
    "mac.drops{reason=backoff_exhausted}": 9,
    "mac.transmissions{protocol=csma_ca}": 243,
    "mac.transmissions{protocol=csma_cd}": 252,
    "phy.bits_flipped": 1388,
    "phy.corrupted_packets": 67,
    "phy.missed": 444,
    "phy.packets_sampled": 1256,
    "phy.rx{disposition=delivered}": 812,
    "phy.rx{disposition=missed}": 444,
    "phy.truncated": 98,
    "sim.events_fired": 1486,
}

#: Session counters of one ``table3`` run at scale 0.05 (seed 4): fast
#: trials, whose outsider frames take the per-packet modem path.
TABLE3_COUNTERS = {
    "link.deliveries": 2965,
    "link.drops{reason=bof_missed}": 35,
    "link.transmissions": 3000,
    "mac.attempts{protocol=contention_free}": 3000,
    "mac.transmissions{protocol=contention_free}": 3000,
    "match.fast_path_hits": 2788,
    "match.outsiders": 54,
    "match.voting_path_hits": 177,
    "phy.bits_flipped": 638,
    "phy.corrupted_packets": 172,
    "phy.corruption_hits": 174,
    "phy.missed": 90,
    "phy.packets_sampled": 3109,
    "phy.rx{disposition=delivered}": 54,
    "phy.rx{disposition=missed}": 55,
    "phy.truncated": 5,
    "trace.packets_delivered": 2965,
    "trace.packets_offered": 3000,
    "trace.trials{mode=fast}": 15,
}


def _run_mac_at_report_scale() -> None:
    engine.load_all()
    spec = engine.get("mac")
    engine.ENGINE.run(
        spec,
        scale=spec.report_scale(0.05),
        seed=4,
        extras=dict(spec.report_extras),
    )


def _run_table3() -> None:
    engine.load_all()
    engine.ENGINE.run(engine.get("table3"), scale=0.05, seed=4)


@pytest.mark.parametrize(
    "run, expected",
    [(_run_mac_at_report_scale, MAC_COUNTERS), (_run_table3, TABLE3_COUNTERS)],
    ids=["mac", "table3"],
)
def test_session_counters_pinned(run, expected):
    with obs.session(telemetry_path=None) as state:
        run()
        counters = state.metrics.counters_snapshot()
    assert dict(sorted(counters.items())) == expected


def test_no_per_event_counter_lookups(monkeypatch):
    """A report-scale ``mac`` run fires ~1.5k events and makes ~1.3k
    deliveries; looking counters up per event took 8,326 calls."""
    calls = []
    lookup = Metrics.counter

    def spy(self, name, **labels):
        calls.append(name)
        return lookup(self, name, **labels)

    monkeypatch.setattr(Metrics, "counter", spy)
    with obs.session(telemetry_path=None):
        _run_mac_at_report_scale()
    assert 0 < len(calls) < 200
