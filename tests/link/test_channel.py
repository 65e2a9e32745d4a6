"""The shared radio channel: carrier sense, delivery, capture."""

import pytest

from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.link.channel import RadioChannel
from repro.link.station import LinkStation
from repro.phy.modem import ModemConfig
from repro.simkit.simulator import Simulator


def _setup(
    seed: int = 1,
    rx_threshold: int = 3,
    distance: float = 8.0,
) -> tuple[Simulator, RadioChannel, LinkStation, LinkStation]:
    sim = Simulator(seed=seed)
    channel = RadioChannel(sim, PropagationModel.office())
    sender = LinkStation.tracing_station(1, Point(0.0, 0.0))
    receiver = LinkStation.tracing_station(
        2, Point(distance, 0.0), ModemConfig(receive_threshold=rx_threshold)
    )
    channel.add_station(sender)
    channel.add_station(receiver)
    return sim, channel, sender, receiver


class TestBasics:
    def test_airtime_at_2mbps(self):
        sim = Simulator()
        channel = RadioChannel(sim, PropagationModel.office())
        assert channel.airtime(bytes(1072)) == pytest.approx(1072 * 8 / 2e6)

    def test_duplicate_station_rejected(self):
        sim, channel, sender, receiver = _setup()
        with pytest.raises(ValueError):
            channel.add_station(sender)

    def test_double_transmit_rejected(self):
        sim, channel, sender, receiver = _setup()
        channel.begin_transmission(1, bytes(100))
        with pytest.raises(RuntimeError):
            channel.begin_transmission(1, bytes(100))


class TestDelivery:
    def test_clean_delivery_logs_frame(self):
        sim, channel, sender, receiver = _setup()
        frame = bytes(range(200)) * 2
        channel.begin_transmission(1, frame)
        sim.run()
        assert len(receiver.log) == 1
        assert receiver.log[0].data == frame
        assert receiver.log[0].status.signal_level > 25

    def test_sender_does_not_receive_own_frame(self):
        sim, channel, sender, receiver = _setup()
        channel.begin_transmission(1, bytes(100))
        sim.run()
        assert sender.log == []

    def test_threshold_masks_delivery(self):
        sim, channel, sender, receiver = _setup(rx_threshold=35)
        channel.begin_transmission(1, bytes(100))
        sim.run()
        assert receiver.log == []
        assert channel.stats.threshold_filtered == 1

    def test_abort_prevents_delivery(self):
        sim, channel, sender, receiver = _setup()
        channel.begin_transmission(1, bytes(1000))
        channel.abort_transmission(1)
        sim.run()
        assert receiver.log == []
        assert channel.stats.aborted == 1


class TestCarrierSense:
    def test_carrier_sensed_during_transmission(self):
        sim, channel, sender, receiver = _setup()
        assert not channel.carrier_busy(2)
        channel.begin_transmission(1, bytes(1000))
        # Not sensed until the front end acquires the new carrier.
        assert not channel.carrier_busy(2)
        sim.run_until(sim.now + 2 * channel.carrier_detect_delay_s)
        assert channel.carrier_busy(2)

    def test_raised_threshold_hides_carrier(self):
        sim, channel, sender, receiver = _setup(rx_threshold=35)
        channel.begin_transmission(1, bytes(1000))
        assert not channel.carrier_busy(2)

    def test_carrier_clear_after_completion(self):
        sim, channel, sender, receiver = _setup()
        channel.begin_transmission(1, bytes(1000))
        sim.run()
        assert not channel.carrier_busy(2)


class TestChangeWaiters:
    def test_waiter_fires_once_on_completion(self):
        sim, channel, sender, receiver = _setup()
        woken = []
        channel.notify_on_change(lambda: woken.append(sim.now))
        channel.begin_transmission(1, bytes(1000))
        assert woken == []  # a start is not a change
        sim.run()
        assert woken == [channel.airtime(bytes(1000))]
        # Delivered before the wake, and never again on the next frame.
        assert len(receiver.log) == 1
        channel.begin_transmission(1, bytes(100))
        sim.run()
        assert len(woken) == 1

    def test_waiter_fires_once_on_abort(self):
        sim, channel, sender, receiver = _setup()
        woken = []
        channel.begin_transmission(1, bytes(1000))
        channel.notify_on_change(lambda: woken.append("abort"))
        channel.abort_transmission(1)
        assert woken == ["abort"]
        channel.abort_transmission(1)  # nothing on the air: no change
        sim.run()
        assert woken == ["abort"]

    def test_waiter_registered_during_a_wake_waits_for_the_next_change(self):
        sim, channel, sender, receiver = _setup()
        woken = []

        def first():
            woken.append("first")
            channel.notify_on_change(lambda: woken.append("second"))

        channel.notify_on_change(first)
        channel.begin_transmission(1, bytes(100))
        sim.run()
        assert woken == ["first"]
        channel.begin_transmission(1, bytes(100))
        sim.run()
        assert woken == ["first", "second"]


class TestOverlapAndCapture:
    def _three_station_setup(self, jammer_distance: float):
        sim = Simulator(seed=3)
        channel = RadioChannel(sim, PropagationModel.office())
        sender = LinkStation.tracing_station(1, Point(0.0, 0.0))
        receiver = LinkStation.tracing_station(2, Point(6.0, 0.0))
        jammer = LinkStation.tracing_station(3, Point(6.0 + jammer_distance, 0.0))
        for station in (sender, receiver, jammer):
            channel.add_station(station)
        return sim, channel, receiver

    def test_collision_detected_flag(self):
        sim, channel, receiver = self._three_station_setup(50.0)
        channel.begin_transmission(1, bytes(1000))
        assert not channel.collision_detected(1)
        channel.begin_transmission(3, bytes(1000))
        assert channel.collision_detected(1)
        assert channel.collision_detected(3)

    def test_capture_survives_weak_overlap(self):
        """A strong desired signal survives a distant overlapping
        transmitter (Section 7.4's capture effect)."""
        deliveries = 0
        for seed in range(10):
            sim, channel, receiver = self._three_station_setup(70.0)
            channel.sim.rng.seed = seed
            channel.begin_transmission(1, bytes(1072))
            channel.begin_transmission(3, bytes(1072))
            sim.run()
            deliveries += sum(
                1 for f in receiver.log if len(f.data) == 1072
            )
        assert deliveries >= 7

    def test_comparable_overlap_stomps(self):
        """Equal-power overlap at the receiver garbles reception."""
        clean = 0
        for seed in range(10):
            sim = Simulator(seed=seed)
            channel = RadioChannel(sim, PropagationModel.office())
            sender = LinkStation.tracing_station(1, Point(0.0, 0.0))
            receiver = LinkStation.tracing_station(2, Point(6.0, 0.0))
            jammer = LinkStation.tracing_station(3, Point(12.0, 0.0))
            for station in (sender, receiver, jammer):
                channel.add_station(station)
            frame = bytes(1072)
            channel.begin_transmission(1, frame)
            channel.begin_transmission(3, frame)
            sim.run()
            clean += sum(1 for f in receiver.log if f.data == frame)
        assert clean <= 4

    def test_half_duplex(self):
        """A station cannot receive while transmitting."""
        sim, channel, receiver = self._three_station_setup(50.0)
        long_frame = bytes(2000)
        channel.begin_transmission(2, long_frame)  # receiver is busy TXing
        channel.begin_transmission(1, bytes(500))
        sim.run()
        # Receiver logged nothing: it was on the air when frame 1 ended.
        assert all(f.data != bytes(500) for f in receiver.log)


class TestCachedGeometry:
    """The channel keeps each ordered pair's mean level; stations never
    move, so the cache must equal the propagation model's answer."""

    @pytest.fixture
    def channels(self, monkeypatch):
        from repro.experiments import mac_ablation
        from repro.link import network

        built = []

        class RecordingChannel(RadioChannel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(mac_ablation, "RadioChannel", RecordingChannel)
        monkeypatch.setattr(network, "RadioChannel", RecordingChannel)
        return built

    def test_equals_propagation_for_mac_and_hidden_topologies(self, channels):
        from repro.experiments import hidden_terminal, mac_ablation

        mac_ablation._run_variant("csma_ca", scale=0.05, seed=83)
        hidden_terminal._run_scenario(
            "hidden, receiver off-centre", frames=30, seed=97
        )
        assert len(channels) == 2
        for channel in channels:
            stations = list(channel.stations.values())
            assert len(stations) >= 3
            assert channel.mean_levels == {
                (a.station_id, b.station_id): channel.propagation.mean_level(
                    a.position, b.position
                )
                for a in stations
                for b in stations
            }
