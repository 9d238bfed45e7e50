"""Tests of the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.simulation.events import ScheduledAction
from repro.simulation.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(5.0, lambda: fired.append("b"))
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_simultaneous_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcd":
            sim.call_at(3.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == list("abcd")

    def test_relative_scheduling(self):
        sim = Simulator()
        fired = []
        sim.call_after(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.call_at(1.0, lambda: fired.append("x"))
        sim.call_at(2.0, lambda: fired.append("y"))
        Simulator.cancel(event)
        sim.run()
        assert fired == ["y"]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.call_after(1.0, lambda: fired.append("second"))

        sim.call_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending_events == 1

    def test_event_budget_raises(self):
        sim = Simulator()

        def rearm():
            sim.call_after(1.0, rearm)

        sim.call_at(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_event_budget_is_exact(self):
        """A budget of N allows exactly N events, not N + 1."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.call_at(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=5)  # exactly the number of events: fine
        assert fired == [0, 1, 2, 3, 4]

        sim = Simulator()
        fired = []
        for i in range(5):
            sim.call_at(float(i), lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=4)
        # The budget was honoured: the fifth event was never dispatched.
        assert fired == [0, 1, 2, 3]
        assert sim.pending_events == 1

    def test_pending_events_counter_tracks_schedule_cancel_and_run(self):
        sim = Simulator()
        events = [sim.call_at(float(i), lambda: None) for i in range(4)]
        assert sim.pending_events == 4
        Simulator.cancel(events[0])
        assert sim.pending_events == 3
        Simulator.cancel(events[0])  # double-cancel is a no-op
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0
        Simulator.cancel(events[1])  # cancelling after processing is a no-op
        assert sim.pending_events == 0

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.call_after(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_advance_to_requires_no_pending_earlier_events(self):
        sim = Simulator()
        sim.call_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.advance_to(10.0)
        sim.run()
        sim.advance_to(10.0)
        assert sim.now == 10.0
        with pytest.raises(SimulationError):
            sim.advance_to(5.0)

    def test_unhandled_payload_requires_handlers(self):
        from repro.simulation.events import MessageDelivery

        sim = Simulator()
        sim.schedule(1.0, MessageDelivery(sender=1, dest=2, message=object(), sent_at=0.0))
        with pytest.raises(SimulationError):
            sim.run()

    def test_determinism_for_a_given_seed(self):
        values_a, values_b = [], []
        for values in (values_a, values_b):
            sim = Simulator(seed=42)
            for _ in range(10):
                values.append(sim.rng.random())
        assert values_a == values_b

    def test_scheduled_action_payload_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, ScheduledAction(label="go", action=lambda: fired.append(True)))
        sim.run()
        assert fired == [True]


class TestRunHorizon:
    """``run(until=...)``: the serial engine's only stopping rule besides the budget."""

    TIMES = (1.0, 2.0, 2.5, 4.0, 8.0)

    def loaded(self):
        sim = Simulator()
        fired = []
        for t in self.TIMES:
            sim.call_at(t, lambda t=t: fired.append(t))
        return sim, fired

    @pytest.mark.parametrize("until", [0.5, 1.0, 2.4, 2.5, 7.9, 8.0, 100.0])
    def test_horizon_processes_exactly_the_events_at_or_before_it(self, until):
        sim, fired = self.loaded()
        sim.run(until=until)
        expected = [t for t in self.TIMES if t <= until]
        assert fired == expected
        assert sim.pending_events == len(self.TIMES) - len(expected)
        assert sim.processed_events == len(expected)

    def test_clock_stays_at_the_last_processed_event(self):
        sim, _ = self.loaded()
        sim.run(until=3.0)
        assert sim.now == 2.5
        sim.run(until=0.1)  # a horizon in the past processes nothing
        assert sim.now == 2.5

    def test_resuming_continues_in_time_order(self):
        sim, fired = self.loaded()
        for until in (1.5, 3.0, 5.0):
            sim.run(until=until)
        sim.run()
        assert fired == list(self.TIMES)
        assert sim.pending_events == 0

    def test_events_scheduled_past_the_horizon_stay_pending(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            sim.call_after(3.0, chain)

        sim.call_at(0.0, chain)
        sim.run(until=10.0)
        assert fired == [0.0, 3.0, 6.0, 9.0]
        assert sim.pending_events == 1
        assert sim.now == 9.0

    def test_cancelled_entries_at_the_head_are_skipped(self):
        sim = Simulator()
        fired = []
        early = sim.call_at(1.0, lambda: fired.append("early"))
        sim.call_at(2.0, lambda: fired.append("late"))
        Simulator.cancel(early)
        sim.run(until=1.5)
        assert fired == []
        assert sim.now == 0.0
        sim.run(until=2.0)
        assert fired == ["late"]

    def test_budget_under_a_horizon_leaves_the_next_event_pending(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError, match="event budget of 2"):
            sim.run(until=5.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.pending_events == 3
        assert sim.processed_events == 2
        sim.run(until=5.0)
        assert fired == [1.0, 2.0, 2.5, 4.0]

    def test_budget_is_counted_per_run_call(self):
        sim, fired = self.loaded()
        sim.run(until=2.0, max_events=2)
        sim.run(until=4.0, max_events=2)
        sim.run(max_events=1)
        assert fired == list(self.TIMES)

    def test_budget_error_on_the_quiescence_path_keeps_the_event(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [1.0, 2.0, 2.5]
        assert sim.pending_events == 2
        sim.run()
        assert fired == list(self.TIMES)


class TestAgendaBookkeeping:
    def test_peak_pending_counts_cancelled_entries(self):
        sim = Simulator()
        events = [sim.call_at(float(i), lambda: None) for i in range(6)]
        for event in events[:4]:
            Simulator.cancel(event)
        assert sim.pending_events == 2
        assert sim.peak_pending == 6
        sim.run()
        assert sim.peak_pending == 6

    def test_step_updates_clock_and_counters(self):
        sim = Simulator()
        skipped = sim.call_at(1.0, lambda: None)
        sim.call_at(3.0, lambda: None)
        Simulator.cancel(skipped)
        assert sim.step() is True
        assert sim.now == 3.0
        assert sim.processed_events == 1
        assert sim.pending_events == 0
        assert sim.step() is False

    @pytest.mark.parametrize("scheduler", ["schedule_delivery", "schedule_request"])
    def test_fast_path_schedulers_reject_past_times(self, scheduler):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            if scheduler == "schedule_delivery":
                sim.schedule_delivery(4.0, 1, 2, "m", 3.0)
            else:
                sim.schedule_request(4.0, (1, 1, 0.5, None))
        assert sim.pending_events == 0


class TestDispatch:
    def test_delivery_handler_receives_plain_tuples_from_both_schedulers(self):
        from repro.simulation.events import MessageDelivery

        sim = Simulator()
        seen = []
        sim.set_delivery_handler(seen.append)
        sim.schedule_at(1.0, MessageDelivery(sender=1, dest=2, message="a", sent_at=0.5))
        sim.schedule_delivery(2.0, 3, 4, "b", 1.5)
        sim.run()
        assert seen == [(1, 2, "a", 0.5), (3, 4, "b", 1.5)]

    def test_request_handler_receives_the_payload_verbatim(self):
        sim = Simulator()
        seen = []
        sim.set_request_handler(lambda payload: seen.append((sim.now, payload)))
        feeder = iter(())
        sim.schedule_request(2.0, (5, 17, 0.25, feeder))
        sim.run()
        assert seen == [(2.0, (5, 17, 0.25, feeder))]

    def test_timer_handler_receives_the_expiry(self):
        from repro.simulation.events import TimerExpiry

        sim = Simulator()
        seen = []
        sim.set_timer_handler(seen.append)
        expiry = TimerExpiry(node=3, timer_id=9, name="enquiry", payload={"k": 1})
        sim.schedule(1.5, expiry)
        sim.run()
        assert seen == [expiry]
        assert sim.now == 1.5

    def test_payload_subclasses_dispatch_by_base_type(self):
        from repro.simulation.events import TimerExpiry

        class NamedTimer(TimerExpiry):
            __slots__ = ()

        class LoggedAction(ScheduledAction):
            __slots__ = ()

        sim = Simulator()
        seen = []
        sim.set_timer_handler(lambda payload: seen.append(("timer", payload.name)))
        sim.schedule(1.0, NamedTimer(node=1, timer_id=1, name="t"))
        sim.schedule(2.0, LoggedAction(label="a", action=lambda: seen.append(("action", "a"))))
        sim.run()
        assert seen == [("timer", "t"), ("action", "a")]

    def test_unknown_payload_rejected_at_schedule_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="unknown event payload"):
            sim.schedule_at(1.0, object())
        assert sim.pending_events == 0

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_handler_swapped_mid_run_takes_effect(self, until):
        sim = Simulator()
        seen = []
        sim.set_delivery_handler(lambda payload: seen.append(("old", payload[2])))

        def swap():
            sim.set_delivery_handler(lambda payload: seen.append(("new", payload[2])))

        sim.schedule_delivery(1.0, 1, 2, "x", 0.0)
        sim.call_at(2.0, swap)
        sim.schedule_delivery(3.0, 1, 2, "y", 0.0)
        sim.run(until=until)
        assert seen == [("old", "x"), ("new", "y")]
