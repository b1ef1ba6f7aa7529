"""Tests for the simulation clock, event queue and event log."""

import pytest

from repro.simulation import EventLog, EventQueue, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_s == 0.0
        assert SimClock().ticks == 0

    def test_tick_advances(self):
        clock = SimClock(time_step_s=0.1)
        assert clock.tick() == pytest.approx(0.1)
        assert clock.ticks == 1

    def test_advance(self):
        clock = SimClock(time_step_s=0.02)
        steps = clock.advance(1.0)
        assert steps == 50
        assert clock.now_s == pytest.approx(1.0)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            SimClock(time_step_s=0.0)
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_ticks_for(self):
        clock = SimClock(time_step_s=0.02)
        assert clock.ticks_for(1.0) == 50
        assert clock.ticks_for(0.0) == 1


class TestEventQueue:
    def test_runs_due_events_in_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(3.0, lambda: order.append("c"))
        executed = queue.run_due(2.5)
        assert executed == 2
        assert order == ["a", "b"]
        assert len(queue) == 1

    def test_cancel(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append(1))
        queue.cancel(handle)
        assert queue.run_due(5.0) == 0
        assert fired == []

    def test_callback_can_schedule_more(self):
        queue = EventQueue()
        fired = []

        def chain():
            fired.append("first")
            queue.schedule(1.0, lambda: fired.append("second"))

        queue.schedule(1.0, chain)
        queue.run_due(1.0)
        assert fired == ["first", "second"]

    def test_next_due(self):
        queue = EventQueue()
        assert queue.next_due_s() is None
        queue.schedule(4.0, lambda: None)
        handle = queue.schedule(2.0, lambda: None)
        assert queue.next_due_s() == 2.0
        queue.cancel(handle)
        assert queue.next_due_s() == 4.0

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(1.0, "drone", "takeoff")
        log.record(2.0, "human", "sign_shown", sign="yes")
        log.record(3.0, "drone", "landing")
        assert len(log) == 3
        assert len(log.of_kind("takeoff")) == 1
        assert len(log.from_source("drone")) == 2
        assert log.last().kind == "landing"
        assert log.last("sign_shown").detail["sign"] == "yes"

    def test_between(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0):
            log.record(t, "s", "k")
        assert len(log.between(1.5, 3.0)) == 1
        with pytest.raises(ValueError):
            log.between(3.0, 1.0)

    def test_transcript_format(self):
        log = EventLog()
        log.record(1.5, "drone", "poke")
        text = log.transcript()
        assert "drone" in text and "poke" in text

    def test_empty_log(self):
        log = EventLog()
        assert log.last() is None
        assert log.last("anything") is None

