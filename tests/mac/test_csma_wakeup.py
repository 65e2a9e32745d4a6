"""Wake-driven CSMA/CD against the busy-polling station it replaced.

``PollingCsmaCdMac`` below keeps the ``CsmaCdMac._attempt_head`` that
``repro.mac.csma`` ran before waiting stations slept until the medium
changed, verbatim, as an oracle: a station that senses carrier
schedules a jittered ``mac.poll`` and senses again, until the carrier
reads idle.  The wake-driven station draws its rng stream value for
value as those polls did, so on the X3 ablation both must produce the
same run: the same outcome counts, the same final clock, and every
transmission starting at the same float time.  That holds only while
no carrier reading is decided by its jitter draw (the polls the wake
skips also skip their carrier draws), which the last test pins for the
ablation geometry.
"""

from __future__ import annotations

import pytest

from repro.experiments import mac_ablation
from repro.link.channel import RadioChannel
from repro.mac.csma import CsmaCdMac
from repro.obs import runtime as _obs


class PollingCsmaCdMac(CsmaCdMac):
    """CSMA/CD with the former busy-polling ``_attempt_head``."""

    def _attempt_head(self, attempt: int = 0) -> None:
        if not self._queue:
            self._busy = False
            return
        if self.medium.carrier_busy(self.station_id):
            # Optimistically poll until free, then fire immediately.
            # Jittered so independent stations' polls do not lock into
            # one lattice (their clocks drift in reality).
            self.sim.schedule(
                self.poll_interval_s * (0.5 + self.rng.random()),
                lambda: self._attempt_head(attempt),
                name="mac.poll",
            )
            return
        frame = self._queue[0]
        self.stats.attempts += 1
        state = _obs.STATE
        if state.enabled:
            state.metrics.counter("mac.attempts", protocol="csma_cd").inc()
        duration = self.medium.begin_transmission(self.station_id, frame)
        # Collision window: check shortly after the transmission starts.
        self.sim.schedule(
            self.poll_interval_s,
            lambda: self._after_start(frame, duration, attempt),
            name="mac.cd-check",
        )


def _recorded_run(monkeypatch, variant, scale, seed, mac_class):
    """``_run_variant`` with ``mac_class`` as its CSMA/CD MAC; returns
    the outcome, each sender's transmission start times, and the
    channel."""
    channels = []

    class RecordingChannel(RadioChannel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.starts: dict[int, list[float]] = {}
            channels.append(self)

        def begin_transmission(self, station_id, frame):
            self.starts.setdefault(station_id, []).append(self.sim.now)
            return super().begin_transmission(station_id, frame)

    with monkeypatch.context() as patch:
        patch.setattr(mac_ablation, "RadioChannel", RecordingChannel)
        patch.setattr(mac_ablation, "CsmaCdMac", mac_class)
        outcome = mac_ablation._run_variant(variant, scale, seed)
    (channel,) = channels
    return outcome, channel.starts, channel


CD_VARIANTS = ("csma_cd_wired", "csma_cd_blind")
SEEDS = (83, *range(1, 10))


@pytest.mark.parametrize("scale", [0.2, 0.7])
@pytest.mark.parametrize("variant", CD_VARIANTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_wake_matches_polling(monkeypatch, variant, scale, seed):
    polled, polled_starts, _ = _recorded_run(
        monkeypatch, variant, scale, seed, PollingCsmaCdMac
    )
    woken, woken_starts, _ = _recorded_run(
        monkeypatch, variant, scale, seed, CsmaCdMac
    )
    assert woken.frames_intact == polled.frames_intact
    assert woken.collisions == polled.collisions
    assert woken.drops == polled.drops
    assert repr(woken.sim_time_s) == repr(polled.sim_time_s)
    assert woken_starts == polled_starts
    assert sorted(woken_starts) == [1, 2, 3]


def test_waiting_does_not_poll(monkeypatch):
    """A waiting station sleeps: the wired run (10,089 events when
    polling) fires a small fraction of the polling run's events."""

    def events_fired(mac_class):
        fired = []
        original = mac_ablation.Simulator.run

        def run(self, max_events=None):
            fired.append(original(self, max_events))
            return fired[-1]

        with monkeypatch.context() as patch:
            patch.setattr(mac_ablation.Simulator, "run", run)
            _recorded_run(monkeypatch, "csma_cd_wired", 0.2, 83, mac_class)
        (count,) = fired
        return count

    assert events_fired(CsmaCdMac) * 10 < events_fired(PollingCsmaCdMac)


def test_ablation_geometry_is_far_from_the_jitter_edge(monkeypatch):
    """Every sender senses every other far above its receive threshold.

    The wake skips the carrier draws of polls that read busy; that is
    invisible only if a sensed transmission can never read below the
    threshold on jitter alone.
    """
    _, _, channel = _recorded_run(
        monkeypatch, "csma_cd_blind", 0.2, 83, CsmaCdMac
    )
    senders = [s for sid, s in channel.stations.items() if sid in channel.starts]
    assert len(senders) == mac_ablation.SENDERS
    margins = []
    for listener in senders:
        jitter_sd = listener.modem.agc.reading_jitter_sd
        assert jitter_sd > 0
        for sender in senders:
            if sender is listener:
                continue
            level = channel.propagation.mean_level(
                sender.position, listener.position
            )
            margins.append((level - listener.receive_threshold) / jitter_sd)
    assert min(margins) >= 20.0
