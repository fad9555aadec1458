"""Scheduler region-ordering tests."""

import pytest

from repro.sim.scheduler import Scheduler, SchedulerError


class TestRegions:
    def test_active_runs_fifo(self):
        sched = Scheduler()
        log = []
        sched.schedule_active(lambda: log.append(1))
        sched.schedule_active(lambda: log.append(2))
        sched.run(100)
        assert log == [1, 2]

    def test_inactive_after_active(self):
        sched = Scheduler()
        log = []
        sched.schedule_inactive(lambda: log.append("inactive"))
        sched.schedule_active(lambda: log.append("active"))
        sched.run(100)
        assert log == ["active", "inactive"]

    def test_nba_after_inactive(self):
        sched = Scheduler()
        log = []
        sched.schedule_nba(lambda: log.append("nba"))
        sched.schedule_inactive(lambda: log.append("inactive"))
        sched.schedule_active(lambda: log.append("active"))
        sched.run(100)
        assert log == ["active", "inactive", "nba"]

    def test_nba_can_wake_active(self):
        sched = Scheduler()
        log = []

        def nba_update():
            log.append("nba")
            sched.schedule_active(lambda: log.append("woken"))

        sched.schedule_nba(nba_update)
        sched.run(100)
        assert log == ["nba", "woken"]

    def test_postponed_once_at_slot_end(self):
        sched = Scheduler()
        log = []
        sched.schedule_postponed_once(lambda: log.append("postponed"))
        sched.schedule_nba(lambda: log.append("nba"))
        sched.schedule_active(lambda: log.append("active"))
        sched.schedule_at(5, lambda: log.append("later"))
        sched.run(100)
        assert log == ["active", "nba", "postponed", "later"]

    def test_every_slot_postponed_callback(self):
        sched = Scheduler()
        ticks = []
        sched.add_postponed(lambda: ticks.append(sched.time))
        sched.schedule_at(3, lambda: None)
        sched.schedule_at(7, lambda: None)
        sched.run(100)
        assert ticks == [0, 3, 7]


class TestTime:
    def test_future_events_ordered(self):
        sched = Scheduler()
        log = []
        sched.schedule_at(10, lambda: log.append(10))
        sched.schedule_at(5, lambda: log.append(5))
        sched.run(100)
        assert log == [5, 10]

    def test_same_time_preserves_insertion_order(self):
        sched = Scheduler()
        log = []
        sched.schedule_at(5, lambda: log.append("a"))
        sched.schedule_at(5, lambda: log.append("b"))
        sched.run(100)
        assert log == ["a", "b"]

    def test_max_time_stops(self):
        sched = Scheduler()
        log = []
        sched.schedule_at(5, lambda: log.append("in"))
        sched.schedule_at(500, lambda: log.append("out"))
        end = sched.run(100)
        assert log == ["in"]
        assert end == 5

    def test_finish_stops_immediately(self):
        sched = Scheduler()
        log = []
        sched.schedule_active(lambda: (log.append("first"), sched.finish()))
        sched.schedule_active(lambda: log.append("second"))
        sched.run(100)
        assert log == ["first"]

    def test_negative_delay_rejected(self):
        sched = Scheduler()
        with pytest.raises(SchedulerError):
            sched.schedule_at(-1, lambda: None)

    def test_unknown_region_rejected(self):
        sched = Scheduler()
        with pytest.raises(SchedulerError):
            sched.schedule_at(1, lambda: None, region="bogus")
