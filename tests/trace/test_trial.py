"""Trial runners: the fast path, the per-packet path, and outsiders."""

import pytest

from repro.environment.geometry import Point
from repro.phy.errormodel import InterferenceSample
from repro.phy.modem import ModemConfig
from repro.trace.outsiders import OutsiderTraffic
from repro.trace.trial import TrialConfig, run_fast_trial, run_mac_trial


class _AlwaysJam:
    """An interference source with fixed, scripted effects."""

    name = "scripted"

    def __init__(self, **effects):
        self.effects = effects

    def sample_packet(self, rx_position, signal_level, rng):
        return InterferenceSample(source_name=self.name, **self.effects)


class TestFastTrialVectorized:
    def test_clean_strong_trial(self):
        output = run_fast_trial(
            TrialConfig(name="t", packets=5_000, mean_level=29.5, seed=3)
        )
        assert output.trace.packets_sent == 5_000
        received = output.trace.packets_received
        assert 4_980 <= received <= 5_000
        assert output.dispositions.delivered == received

    def test_deterministic_given_seed(self):
        a = run_fast_trial(TrialConfig(name="t", packets=2_000, mean_level=9.5, seed=7))
        b = run_fast_trial(TrialConfig(name="t", packets=2_000, mean_level=9.5, seed=7))
        assert a.trace.packets_received == b.trace.packets_received
        assert [a.trace.data(i) for i in range(20)] == [
            b.trace.data(i) for i in range(20)
        ]

    def test_different_seed_differs(self):
        a = run_fast_trial(TrialConfig(name="t", packets=2_000, mean_level=6.5, seed=1))
        b = run_fast_trial(TrialConfig(name="t", packets=2_000, mean_level=6.5, seed=2))
        assert a.dispositions.missed != b.dispositions.missed

    def test_threshold_filters_everything_below(self):
        output = run_fast_trial(
            TrialConfig(
                name="t",
                packets=1_000,
                mean_level=15.0,
                seed=5,
                modem_config=ModemConfig(receive_threshold=25),
            )
        )
        assert output.trace.packets_received == 0
        assert output.dispositions.threshold_filtered > 990

    def test_geometry_resolves_mean_level(self):
        from repro.environment.propagation import PropagationModel

        config = TrialConfig(
            name="t",
            packets=10,
            propagation=PropagationModel.office(),
            tx_position=Point(0, 0),
            rx_position=Point(7, 0),
        )
        assert config.resolved_mean_level() == pytest.approx(30.5, abs=0.5)


class TestFastTrialPerPacket:
    def test_interference_path_used(self):
        jam = _AlwaysJam(miss_probability=1.0)
        output = run_fast_trial(
            TrialConfig(
                name="t", packets=200, mean_level=29.5, seed=1, interference=[jam]
            )
        )
        assert output.trace.packets_received == 0
        assert output.dispositions.missed == 200

    def test_interference_truncation_shortens_frames(self):
        jam = _AlwaysJam(truncate_probability=1.0, clock_stress=5.0)
        output = run_fast_trial(
            TrialConfig(
                name="t", packets=100, mean_level=29.5, seed=1, interference=[jam]
            )
        )
        from repro.framing.testpacket import FRAME_BYTES

        assert output.trace.packets_received > 90
        assert (output.trace.lengths < FRAME_BYTES).all()


class TestOutsiders:
    def test_outsiders_interleaved_into_trace(self):
        output = run_fast_trial(
            TrialConfig(
                name="t",
                packets=1_000,
                mean_level=29.5,
                seed=9,
                outsiders=OutsiderTraffic(rate_per_test_packet=0.1, mean_level=10.0),
            )
        )
        from repro.framing.testpacket import FRAME_BYTES

        short_frames = int((output.trace.lengths < 200).sum())
        assert output.dispositions.outsiders_delivered == short_frames
        assert output.dispositions.outsiders_delivered > 50
        # Records stay time-sorted after interleaving.
        times = output.trace.times.tolist()
        assert times == sorted(times)

    def test_dense_outsiders_never_collide_with_test_packets(self):
        """With more outsiders than test packets the midpoint spacing
        lands on integers — exactly where test packets sit.  The
        perturbation must keep outsider times non-integer, distinct,
        and sorted."""
        output = run_fast_trial(
            TrialConfig(
                name="t",
                packets=50,
                mean_level=29.5,
                seed=11,
                outsiders=OutsiderTraffic(
                    rate_per_test_packet=4.0, mean_level=25.0
                ),
            )
        )
        assert output.dispositions.outsiders_delivered > 50
        trace = output.trace
        outsider_times = trace.times[trace.lengths < 200].tolist()
        assert all(not float(t).is_integer() for t in outsider_times)
        assert len(set(outsider_times)) == len(outsider_times)
        times = trace.times.tolist()
        assert times == sorted(times)

    def test_dense_outsiders_deterministic(self):
        config = dict(
            name="t",
            packets=50,
            mean_level=29.5,
            seed=11,
            outsiders=OutsiderTraffic(rate_per_test_packet=4.0, mean_level=25.0),
        )
        a = run_fast_trial(TrialConfig(**config))
        b = run_fast_trial(TrialConfig(**config))
        assert a.trace.times.tolist() == b.trace.times.tolist()
        assert a.trace.payload.tobytes() == b.trace.payload.tobytes()
        assert a.trace.lengths.tolist() == b.trace.lengths.tolist()

    def test_weak_outsiders_mostly_lost(self):
        output = run_fast_trial(
            TrialConfig(
                name="t",
                packets=1_000,
                mean_level=29.5,
                seed=9,
                outsiders=OutsiderTraffic(rate_per_test_packet=0.2, mean_level=2.0),
            )
        )
        d = output.dispositions
        assert d.outsiders_lost > d.outsiders_delivered


class TestMacTrial:
    def test_point_to_point_delivers(self):
        config = TrialConfig(name="mac", packets=40, mean_level=None, seed=4)
        output, channel = run_mac_trial(config)
        assert output.trace.packets_sent == 40
        assert output.trace.packets_received >= 38
        assert channel.stats.transmissions >= 40

    def test_jammer_reduces_delivery(self):
        from repro.analysis.classify import classify_trace
        from repro.link.station import LinkStation
        from repro.phy.modem import ModemConfig as MC

        config = TrialConfig(name="mac", packets=30, seed=4)
        jammer = LinkStation.tracing_station(
            9, Point(3.0, 3.0), MC(receive_threshold=35)
        )
        output, channel = run_mac_trial(
            config, extra_stations=[(jammer, bytes(1072))]
        )
        # The promiscuous receiver logs the jammer's frames too; count
        # only intact test packets.  A continuously transmitting
        # same-room jammer devastates the link.
        classified = classify_trace(output.trace)
        intact = [
            p
            for p in classified.test_packets
            if p.packet_class.name == "UNDAMAGED"
        ]
        assert len(intact) < 20
        assert channel.stats.misses > 0


class TestMacTrialConservation:
    """Every offered packet must land in exactly one disposition bucket
    (docs/TRACE_FORMAT.md)."""

    @staticmethod
    def _accounted(d):
        return (
            d.delivered
            + d.missed
            + d.threshold_filtered
            + d.quality_filtered
            + d.controller_rejected
            + d.mac_dropped
            + d.not_transmitted
        )

    def test_full_run_conserves(self):
        config = TrialConfig(name="mac", packets=40, seed=4)
        output, _ = run_mac_trial(config)
        assert self._accounted(output.dispositions) == 40

    def test_horizon_cut_surfaces_not_transmitted(self):
        """A horizon shorter than the burst leaves packets queued, in
        backoff, mid-flight, or ungenerated — they must show up as
        not_transmitted instead of silently vanishing."""
        config = TrialConfig(name="mac", packets=40, seed=4)
        # The burst alone needs packets * frame-airtime at 1.4 Mb/s;
        # stop a quarter of the way through.
        from repro.framing.testpacket import FRAME_BYTES

        horizon = 10 * (FRAME_BYTES * 8.0 / 1_400_000.0)
        output, _ = run_mac_trial(config, horizon_s=horizon)
        d = output.dispositions
        assert d.not_transmitted > 0
        assert d.delivered < 40
        assert self._accounted(d) == 40

    def test_weak_link_conserves(self):
        """Losses at the modem (misses/filters) stay inside the
        identity."""
        config = TrialConfig(
            name="mac", packets=30, seed=8, rx_position=Point(200.0, 0.0)
        )
        output, _ = run_mac_trial(config)
        d = output.dispositions
        assert d.missed + d.threshold_filtered + d.quality_filtered > 0
        assert self._accounted(d) == 30
