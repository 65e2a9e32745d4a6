"""CSMA/CA and CSMA/CD behaviour against a scripted medium."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.mac.backoff import BackoffPolicy
from repro.mac.csma import CsmaCaMac, CsmaCdMac


@dataclass
class ScriptedMedium:
    """A test double: carrier busy-ness follows a script."""

    busy_script: list[bool] = field(default_factory=list)
    airtime: float = 0.001
    collide_script: list[bool] = field(default_factory=list)
    transmissions: list[bytes] = field(default_factory=list)
    aborted: list[int] = field(default_factory=list)
    wakeups: int = 0

    def carrier_busy(self, station_id: int) -> bool:
        if self.busy_script:
            return self.busy_script.pop(0)
        return False

    def begin_transmission(self, station_id: int, frame: bytes) -> float:
        self.transmissions.append(frame)
        return self.airtime

    def collision_detected(self, station_id: int) -> bool:
        if self.collide_script:
            return self.collide_script.pop(0)
        return False

    def abort_transmission(self, station_id: int) -> None:
        self.aborted.append(station_id)

    def notify_on_change(self, callback) -> None:
        # The script may flip the carrier at any reading, so every
        # moment is a change: wake the waiter at once.
        self.wakeups += 1
        callback()


@pytest.fixture
def mac_rng():
    return np.random.default_rng(5)


class TestCsmaCa:
    def test_free_medium_transmits_immediately(self, sim, mac_rng):
        medium = ScriptedMedium()
        mac = CsmaCaMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame-1")
        sim.run()
        assert medium.transmissions == [b"frame-1"]
        assert mac.stats.collisions == 0
        assert mac.stats.attempts == 1

    def test_busy_medium_counts_collision_then_retries(self, sim, mac_rng):
        medium = ScriptedMedium(busy_script=[True, True, False])
        mac = CsmaCaMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        assert medium.transmissions == [b"frame"]
        assert mac.stats.collisions == 2
        assert mac.stats.attempts == 3

    def test_backoff_delay_precedes_retry(self, sim, mac_rng):
        medium = ScriptedMedium(busy_script=[True, False])
        mac = CsmaCaMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        # The retry must be after the interframe gap at minimum.
        assert sim.now >= mac.interframe_gap_s

    def test_frames_sent_in_fifo_order(self, sim, mac_rng):
        medium = ScriptedMedium()
        mac = CsmaCaMac(sim, medium, 1, mac_rng)
        for i in range(5):
            mac.enqueue(f"frame-{i}".encode())
        sim.run()
        assert medium.transmissions == [f"frame-{i}".encode() for i in range(5)]

    def test_exhaustion_drops_frame(self, sim, mac_rng):
        # Exactly enough busy samples to exhaust the first frame.
        medium = ScriptedMedium(busy_script=[True] * 3)
        dropped = []
        mac = CsmaCaMac(
            sim,
            medium,
            1,
            mac_rng,
            backoff=BackoffPolicy(max_attempts=3),
            on_dropped=dropped.append,
        )
        mac.enqueue(b"doomed")
        mac.enqueue(b"next")
        sim.run()
        assert dropped == [b"doomed"]
        assert mac.stats.drops == 1
        # The next frame went out once the script ran dry.
        assert b"next" in medium.transmissions

    def test_on_sent_callback(self, sim, mac_rng):
        sent = []
        medium = ScriptedMedium()
        mac = CsmaCaMac(sim, medium, 1, mac_rng, on_sent=sent.append)
        mac.enqueue(b"hello")
        sim.run()
        assert sent == [b"hello"]

    def test_collision_free_fraction(self, sim, mac_rng):
        medium = ScriptedMedium(busy_script=[True, False])
        mac = CsmaCaMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"f")
        sim.run()
        assert mac.stats.collision_free_fraction == pytest.approx(0.5)


class TestCsmaCd:
    def test_clean_transmission(self, sim, mac_rng):
        medium = ScriptedMedium()
        mac = CsmaCdMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        assert medium.transmissions == [b"frame"]
        assert mac.stats.collisions == 0

    def test_busy_medium_polls_without_collision_count(self, sim, mac_rng):
        """CSMA/CD optimism: waiting on busy is not a collision."""
        medium = ScriptedMedium(busy_script=[True, True, False])
        mac = CsmaCdMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        assert mac.stats.collisions == 0
        assert medium.transmissions == [b"frame"]

    def test_busy_medium_waits_for_a_change(self, sim, mac_rng):
        """Each busy reading sleeps on the medium's change hook."""
        medium = ScriptedMedium(busy_script=[True, True, False])
        mac = CsmaCdMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        assert medium.wakeups == 2
        assert medium.transmissions == [b"frame"]

    def test_detected_collision_aborts_and_retries(self, sim, mac_rng):
        medium = ScriptedMedium(collide_script=[True, False])
        mac = CsmaCdMac(sim, medium, 1, mac_rng)
        mac.enqueue(b"frame")
        sim.run()
        assert mac.stats.collisions == 1
        assert medium.aborted == [1]
        # Transmitted twice: the aborted one plus the retry.
        assert medium.transmissions == [b"frame", b"frame"]
        assert mac.stats.transmissions == 1  # only the successful one counts

    def test_exhaustion_drops(self, sim, mac_rng):
        medium = ScriptedMedium(collide_script=[True] * 10)
        dropped = []
        mac = CsmaCdMac(
            sim,
            medium,
            1,
            mac_rng,
            backoff=BackoffPolicy(max_attempts=2),
            on_dropped=dropped.append,
        )
        mac.enqueue(b"doomed")
        sim.run()
        assert dropped == [b"doomed"]


class TestBackoffSlotsCounter:
    """``mac.backoff_slots{protocol=...}`` counts every slot drawn."""

    @pytest.mark.parametrize(
        "variant, protocol",
        [("csma_ca", "csma_ca"), ("csma_cd_wired", "csma_cd")],
    )
    def test_counter_equals_slots_drawn(self, monkeypatch, variant, protocol):
        from repro import obs
        from repro.experiments import mac_ablation

        drawn = []
        delay = BackoffPolicy.delay

        def counted_delay(policy, attempt, rng):
            seconds = delay(policy, attempt, rng)
            slots = round(seconds / policy.slot_time_s)
            assert seconds == slots * policy.slot_time_s
            drawn.append(slots)
            return seconds

        monkeypatch.setattr(BackoffPolicy, "delay", counted_delay)
        with obs.session() as state:
            mac_ablation._run_variant(variant, scale=0.05, seed=83)
            counters = state.metrics.counters_snapshot()
        assert sum(drawn) > 0
        assert counters[f"mac.backoff_slots{{protocol={protocol}}}"] == sum(drawn)
        assert not [key for key in counters
                    if key.startswith("mac.backoff_slots") and protocol not in key]
        # One draw per collision that did not exhaust the frame.
        assert len(drawn) == (
            counters[f"mac.collisions{{protocol={protocol}}}"]
            - counters.get("mac.drops{reason=backoff_exhausted}", 0)
        )
