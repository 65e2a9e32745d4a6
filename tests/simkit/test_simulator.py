"""Kernel clock, scheduling, and run loops."""

import pytest

from repro.simkit.simulator import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_order_and_advance_clock(self, sim):
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]

    def test_schedule_into_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.step()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_cancel_prevents_firing(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestRunLoops:
    def test_run_returns_events_fired(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 5

    def test_run_max_events(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert len(sim.queue) == 7

    def test_run_until_leaves_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.run_until(7.5)
        assert sim.now == 7.5

    def test_stop_exits_run(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["stop"]

    def test_events_fired_accumulates(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 2
