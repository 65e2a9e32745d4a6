"""The promiscuous trace recorder."""

from repro.analysis.metrics import analyze_trial
from repro.environment.geometry import Point
from repro.environment.propagation import PropagationModel
from repro.framing.testpacket import TestPacketFactory
from repro.link.network import WaveLanNetwork
from repro.trace.receiver import TraceRecorder


class TestTraceRecorder:
    def _setup(self, spec):
        network = WaveLanNetwork.create(PropagationModel.office(), seed=3)
        network.add_station(1, Point(0, 0))
        receiver = network.add_station(2, Point(8, 0), with_mac=False)
        recorder = TraceRecorder(receiver, spec=spec, trial_name="rec")
        return network, recorder

    def test_records_receptions(self, spec):
        network, recorder = self._setup(spec)
        factory = TestPacketFactory(spec)
        for sequence in range(5):
            network.send(1, factory.build(sequence))
        network.run_for(0.1)
        assert recorder.packets_recorded == 5

    def test_trace_is_analyzable(self, spec):
        network, recorder = self._setup(spec)
        factory = TestPacketFactory(spec)
        for sequence in range(10):
            network.send(1, factory.build(sequence))
        network.run_for(0.2)
        metrics = analyze_trial(recorder.to_trace(packets_sent=10))
        assert metrics.packets_received == recorder.packets_recorded
        assert metrics.body_bits_damaged == 0

    def test_preserves_existing_hook(self, spec):
        network = WaveLanNetwork.create(PropagationModel.office(), seed=3)
        network.add_station(1, Point(0, 0))
        receiver = network.add_station(2, Point(8, 0), with_mac=False)
        seen = []
        receiver.on_receive = seen.append
        recorder = TraceRecorder(receiver, spec=spec)
        network.send(1, bytes(100))
        network.run_for(0.05)
        assert len(seen) == 1
        assert recorder.packets_recorded == 1

    def test_reset(self, spec):
        network, recorder = self._setup(spec)
        network.send(1, bytes(100))
        network.run_for(0.05)
        assert recorder.packets_recorded == 1
        recorder.reset()
        assert recorder.packets_recorded == 0


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "figure1" in out

    def test_unknown_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["tableX"]) == 2

    def test_runs_one_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["table4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Wall cost" in out
