"""Tests for the simulation kernel: processes, holds, events, deadlock."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.core import (CalendarEntry, Event, Hold, Simulation, Wait,
                            hold)


class TestBasicExecution:
    def test_empty_simulation_runs_to_zero(self):
        sim = Simulation()
        assert sim.run() == 0.0

    def test_single_hold_advances_time(self):
        sim = Simulation()

        def body():
            yield Hold(2.5)

        sim.spawn("p", body())
        assert sim.run() == 2.5

    def test_sequential_holds_accumulate(self):
        sim = Simulation()
        times = []

        def body():
            yield Hold(1.0)
            times.append(sim.now)
            yield Hold(2.0)
            times.append(sim.now)

        sim.spawn("p", body())
        sim.run()
        assert times == [1.0, 3.0]

    def test_zero_hold_allowed(self):
        sim = Simulation()

        def body():
            yield Hold(0.0)

        sim.spawn("p", body())
        assert sim.run() == 0.0

    def test_negative_hold_rejected(self):
        with pytest.raises(SimulationError):
            Hold(-1.0)

    def test_negative_hold_unified_error(self):
        """`hold()` and `Hold` raise the same error through the same
        eager path — `hold(-1)` must not defer to first iteration."""
        with pytest.raises(SimulationError) as from_helper:
            hold(-1.5)  # note: no iteration happens here
        with pytest.raises(SimulationError) as from_wrapper:
            Hold(-1.5)
        assert str(from_helper.value) == str(from_wrapper.value)

    def test_hold_zero_yields_nothing(self):
        assert list(hold(0)) == []
        assert list(hold(0.0)) == []

    def test_hold_positive_yields_one_float_command(self):
        commands = list(hold(2))
        assert commands == [2.0]
        assert isinstance(commands[0], float)

    def test_hold_helper(self):
        sim = Simulation()

        def body():
            yield from hold(1.5)
            yield from hold(0.0)  # no-op

        sim.spawn("p", body())
        assert sim.run() == 1.5

    def test_parallel_processes_overlap(self):
        sim = Simulation()

        def body(duration):
            yield Hold(duration)

        sim.spawn("fast", body(1.0))
        sim.spawn("slow", body(5.0))
        assert sim.run() == 5.0

    def test_non_generator_body_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError, match="generator"):
            sim.spawn("p", lambda: None)

    def test_bad_yield_value_rejected(self):
        sim = Simulation()

        def body():
            yield 42

        sim.spawn("p", body())
        with pytest.raises(SimulationError, match="expected"):
            sim.run()

    def test_run_until_cuts_off(self):
        sim = Simulation()

        def body():
            yield Hold(100.0)

        sim.spawn("p", body())
        assert sim.run(until=10.0) == 10.0

    def test_run_until_does_not_lose_the_boundary_event(self):
        """Regression: run(until=...) used to pop the first event past
        the horizon and drop it, so a resumed run() deadlocked instead
        of executing it."""
        sim = Simulation()
        log = []

        def body():
            yield Hold(5.0)
            log.append(sim.now)

        sim.spawn("p", body())
        assert sim.run(until=1.0) == 1.0
        assert sim.run() == 5.0  # pre-fix: DeadlockError (event lost)
        assert log == [5.0]

    def test_run_until_resumes_across_many_horizons(self):
        sim = Simulation()
        ticks = []

        def body():
            for _ in range(4):
                yield Hold(2.0)
                ticks.append(sim.now)

        sim.spawn("p", body())
        assert sim.run(until=1.0) == 1.0
        assert sim.run(until=3.0) == 3.0
        assert ticks == [2.0]
        assert sim.run() == 8.0
        assert ticks == [2.0, 4.0, 6.0, 8.0]

    def test_raw_float_hold_command(self):
        """The kernel's allocation-free encoding: a bare float holds."""
        sim = Simulation()

        def body():
            yield 2.5

        sim.spawn("p", body())
        assert sim.run() == 2.5

    def test_raw_event_wait_command(self):
        sim = Simulation()
        event = sim.event("go")
        woke = []

        def waiter():
            yield event  # bare Event waits
            woke.append(sim.now)

        def firer():
            yield 1.0
            event.fire()

        sim.spawn("w", waiter())
        sim.spawn("f", firer())
        sim.run()
        assert woke == [1.0]

    def test_raw_negative_float_rejected(self):
        sim = Simulation()

        def body():
            yield -1.0

        sim.spawn("p", body())
        with pytest.raises(SimulationError, match="negative"):
            sim.run()

    def test_blocked_on_formats_lazily(self):
        sim = Simulation()
        event = sim.event("gate")

        def holder():
            yield Hold(10.0)

        def raw_holder():
            yield 10.0

        def waiter():
            yield event

        holding = sim.spawn("h", holder())
        raw = sim.spawn("r", raw_holder())
        waiting = sim.spawn("w", waiter())
        sim.run(until=1.0)
        assert holding.blocked_on == "hold(10)"
        assert raw.blocked_on == "hold(10)"
        assert waiting.blocked_on == "wait(gate)"
        event.fire()
        sim.run()
        assert waiting.blocked_on is None

    def test_event_count_limit(self):
        sim = Simulation()

        def body():
            while True:
                yield Hold(1.0)

        sim.spawn("p", body())
        with pytest.raises(SimulationError, match="events"):
            sim.run(max_events=100)


class TestEvents:
    def test_wait_then_fire(self):
        sim = Simulation()
        event = sim.event("go")
        order = []

        def waiter():
            yield Wait(event)
            order.append(("woke", sim.now))

        def firer():
            yield Hold(3.0)
            event.fire()
            order.append(("fired", sim.now))

        sim.spawn("waiter", waiter())
        sim.spawn("firer", firer())
        sim.run()
        assert order == [("fired", 3.0), ("woke", 3.0)]

    def test_fired_event_passes_through(self):
        sim = Simulation()
        event = sim.event()
        event.fire()

        def body():
            yield Wait(event)

        sim.spawn("p", body())
        assert sim.run() == 0.0

    def test_fire_releases_all_waiters(self):
        sim = Simulation()
        event = sim.event()
        woke = []

        def waiter(i):
            yield Wait(event)
            woke.append(i)

        for i in range(5):
            sim.spawn(f"w{i}", waiter(i))

        def firer():
            yield Hold(1.0)
            event.fire()

        sim.spawn("f", firer())
        sim.run()
        assert sorted(woke) == [0, 1, 2, 3, 4]

    def test_event_payload(self):
        sim = Simulation()
        event = sim.event()
        received = []

        def waiter():
            value = yield from event.wait()
            received.append(value)

        def firer():
            yield Hold(1.0)
            event.fire(payload="hello")

        sim.spawn("w", waiter())
        sim.spawn("f", firer())
        sim.run()
        assert received == ["hello"]

    def test_double_fire_is_idempotent(self):
        sim = Simulation()
        event = sim.event()
        event.fire(payload=1)
        event.fire(payload=2)
        assert event.payload == 1

    def test_reset_rearms(self):
        sim = Simulation()
        event = sim.event()
        event.fire()
        event.reset()
        assert not event.fired

    def test_reset_with_waiters_rejected(self):
        sim = Simulation()
        event = sim.event()

        def waiter():
            yield Wait(event)

        sim.spawn("w", waiter())
        # Advance the scheduler one step so the process parks on the event.
        with pytest.raises(DeadlockError):
            sim.run()
        with pytest.raises(SimulationError):
            event.reset()

    def test_process_join(self):
        sim = Simulation()
        log = []

        def worker():
            yield Hold(4.0)
            log.append("worker done")

        def boss():
            process = sim.spawn("worker", worker())
            yield from process.join()
            log.append(f"joined at {sim.now}")

        sim.spawn("boss", boss())
        sim.run()
        assert log == ["worker done", "joined at 4.0"]

    def test_join_finished_process(self):
        sim = Simulation()

        def quick():
            yield Hold(1.0)

        process_box = {}

        def boss():
            process_box["p"] = sim.spawn("quick", quick())
            yield Hold(10.0)
            yield from process_box["p"].join()  # already done

        sim.spawn("boss", boss())
        assert sim.run() == 10.0


class TestDeadlockDetection:
    def test_waiting_forever_is_deadlock(self):
        sim = Simulation()
        event = sim.event("never")

        def body():
            yield Wait(event)

        sim.spawn("p", body())
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
        assert exc_info.value.blocked
        assert "never" in str(exc_info.value)

    def test_mutual_wait_is_deadlock(self):
        sim = Simulation()
        a_done = sim.event("a_done")
        b_done = sim.event("b_done")

        def a():
            yield Wait(b_done)
            a_done.fire()

        def b():
            yield Wait(a_done)
            b_done.fire()

        sim.spawn("a", a())
        sim.spawn("b", b())
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
        assert len(exc_info.value.blocked) == 2


class TestDeterminism:
    def test_tie_break_is_spawn_order(self):
        sim = Simulation()
        order = []

        def body(i):
            yield Hold(1.0)  # all wake at the same instant
            order.append(i)

        for i in range(10):
            sim.spawn(f"p{i}", body(i))
        sim.run()
        assert order == list(range(10))

    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulation()
            log = []

            def body(i, duration):
                yield Hold(duration)
                log.append((i, sim.now))
                yield Hold(duration / 2)
                log.append((i, sim.now))

            for i in range(20):
                sim.spawn(f"p{i}", body(i, 1.0 + (i % 3)))
            sim.run()
            return log

        assert run_once() == run_once()

    def test_events_processed_counter(self):
        sim = Simulation()

        def body():
            yield Hold(1.0)
            yield Hold(1.0)

        sim.spawn("p", body())
        sim.run()
        assert sim.events_processed >= 2


class _Relay(CalendarEntry):
    """Waits on ``gate`` (if any), holds ``delay``, then logs — what a
    process body ``yield gate; yield delay; log`` does."""

    __slots__ = ("gate", "delay", "log", "_stage")

    def __init__(self, sim, delay, log, gate=None):
        super().__init__(sim)
        self.gate = gate
        self.delay = delay
        self.log = log
        self._stage = 0

    def _advance(self):
        self._stage += 1
        if self._stage == 1 and self.gate is not None:
            self._wait(self.gate)
        elif self._stage <= 2 and self.delay > 0:
            self._stage = 2
            self._hold(self.delay)
        else:
            self.log.append(("relay", self.sim.now))
            self._finish()


class TestCalendarEntries:
    """A :class:`CalendarEntry` steps like the process it replaces."""

    @staticmethod
    def _race(make_relay):
        sim = Simulation()
        log = []
        gate = sim.event("gate")

        def other(tag, delay):
            yield delay
            log.append((tag, sim.now))
            gate.fire()

        sim.spawn("a", other("a", 1.0))
        make_relay(sim, log, gate)
        sim.spawn("b", other("b", 1.0))
        sim.run()
        return log, sim.events_processed, [p.name for p in sim.all_processes]

    @pytest.mark.parametrize("gated", (False, True))
    def test_same_order_events_as_a_spawned_process(self, gated):
        def as_process(sim, log, gate):
            def body():
                if gated:
                    yield gate
                yield 1.0
                log.append(("relay", sim.now))
            sim.spawn("relay", body())

        def as_entry(sim, log, gate):
            _Relay(sim, 1.0, log, gate if gated else None)

        process_log, process_events, process_names = self._race(as_process)
        entry_log, entry_events, entry_names = self._race(as_entry)
        assert entry_log == process_log
        assert entry_events == process_events
        assert process_names == ["a", "relay", "b"]
        assert entry_names == ["a", "b"]  # never listed as a process

    def test_entry_counts_as_active_until_it_finishes(self):
        sim = Simulation()
        log = []
        _Relay(sim, 2.0, log)
        assert sim.active_processes == 1
        sim.run(until=1.0)
        assert sim.active_processes == 1 and log == []
        assert sim.run() == 2.0
        assert sim.active_processes == 0 and log == [("relay", 2.0)]

    def test_waiting_on_a_fired_event_steps_at_once(self):
        sim = Simulation()
        log = []
        gate = sim.event("gate")
        gate.fire()
        _Relay(sim, 0.0, log, gate)
        sim.run()
        assert log == [("relay", 0.0)]
        assert sim.events_processed == 2
