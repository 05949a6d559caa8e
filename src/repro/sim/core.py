"""Simulation kernel: event calendar, processes, events.

Processes are Python generators.  They yield exactly two primitive
commands back to the kernel:

* *hold* — advance this process's local time (CSIM's ``hold``);
* *wait* — block until an event fires.

Everything richer (facility queueing, mailboxes, barriers) is built from
these two by ``yield from`` composition, so the kernel stays tiny and
auditable.

The calendar
------------

The calendar is a heap of ``(time, counter, entry)`` triples; the
counter breaks ties in scheduling order.  The run loop needs only two
things from an entry: a ``done`` flag (a finished entry's stale triples
are skipped) and an ``_advance()`` method (one step; popping it counts
as one event).  :meth:`Event.fire` reschedules every waiter the same
way, so anything with those two members may wait on an event too.

Two kinds of entry meet that contract:

* a :class:`SimProcess` (:meth:`Simulation.spawn`) — a generator body,
  listed in :attr:`Simulation.all_processes` and in deadlock reports;
* a :class:`CalendarEntry` — a small hand-written state machine that
  steps like a process without being one.  A message in flight
  (:mod:`repro.workload.mpi`) is one: it is created per send, so it
  skips the generator, the closure and the :class:`SimProcess` a
  spawned process costs.  It counts as active until it finishes, so a
  run cannot end with one on the calendar, but it is never listed as a
  process: it blocks only on a facility grant that the holder always
  releases.

Command encoding
----------------

The kernel's wire format for commands is deliberately allocation-free:

* a bare ``float`` is a hold for that many simulated seconds;
* a bare :class:`Event` is a wait on that event.

The public :class:`Hold` and :class:`Wait` wrappers remain fully
supported — ``yield Hold(dt)`` / ``yield Wait(event)`` behave exactly as
before — but the built-in operations (:func:`hold`,
:meth:`Event.wait`, facilities, mailboxes) yield the raw encodings so
the per-event dispatch in :meth:`SimProcess._advance` touches no
constructors.  Anything else yielded (ints included, to keep the
classic ``yield 42`` mistake loud) is rejected.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Generator, Iterable

from repro.errors import DeadlockError, SimulationError
from repro.obs import metrics as _obs


def _run_metrics():
    """The kernel's coarse metric families (looked up per run, so a
    registry reset between runs never strands a stale family)."""
    return (
        _obs.counter("sim_runs_total",
                     "Completed Simulation.run() calls."),
        _obs.counter("sim_events_total",
                     "Simulation events processed, across all runs."),
    )


def _check_delay(delay) -> None:
    """The one negative-delay check (shared by ``Hold`` and ``hold``)."""
    if delay < 0:
        raise SimulationError(f"cannot hold for negative time ({delay})")


class Hold:
    """Advance simulated time for the yielding process.

    Thin compatibility wrapper around the kernel's raw-``float``
    encoding; validation happens eagerly at construction.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        _check_delay(delay)
        self.delay = delay

    def __repr__(self) -> str:
        return f"Hold(delay={self.delay!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Hold):
            return self.delay == other.delay
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Hold, self.delay))


class Wait:
    """Block the yielding process until ``event`` fires.

    Thin compatibility wrapper around the kernel's raw-:class:`Event`
    encoding.
    """

    __slots__ = ("event",)

    def __init__(self, event: "Event") -> None:
        self.event = event

    def __repr__(self) -> str:
        return f"Wait(event={self.event!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Wait):
            return self.event is other.event
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Wait, id(self.event)))


class Event:
    """A one-shot latch: processes wait; ``fire`` releases them all.

    Once fired, later waits pass through immediately.  ``reset`` re-arms.
    """

    __slots__ = ("sim", "name", "_fired", "_waiters", "payload")

    def __init__(self, sim: "Simulation", name: str = "event") -> None:
        self.sim = sim
        self.name = name
        self._fired = False
        self._waiters: list[SimProcess] = []
        self.payload = None

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, payload=None) -> None:
        if self._fired:
            return
        self._fired = True
        self.payload = payload
        waiters = self._waiters
        if waiters:
            self._waiters = []
            sim = self.sim
            heap, counter, now = sim._heap, sim._counter, sim.now
            for process in waiters:
                heappush(heap, (now, next(counter), process))

    def reset(self) -> None:
        if self._waiters:
            raise SimulationError(
                f"cannot reset event {self.name!r} with waiting processes")
        self._fired = False
        self.payload = None

    def wait(self):
        """Generator helper: ``yield from event.wait()``."""
        if not self._fired:
            yield self
        return self.payload


class SimProcess:
    """A running simulation process wrapping a generator."""

    __slots__ = ("sim", "name", "seq", "_generator", "done",
                 "_completion", "started_at", "finished_at",
                 "_blocked_cmd")

    def __init__(self, sim: "Simulation", name: str, seq: int,
                 generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process {name!r} body must be a generator "
                f"(got {type(generator).__name__}); did you forget a yield?")
        self.sim = sim
        self.name = name
        self.seq = seq
        self._generator = generator
        self.done = False
        self._completion: Event | None = None
        self.started_at = sim.now
        self.finished_at: float | None = None
        self._blocked_cmd = None

    @property
    def completion(self) -> Event:
        """Fires when this process finishes (created lazily — most
        processes are never joined, and the event + its name were a
        measurable share of spawn cost)."""
        event = self._completion
        if event is None:
            event = Event(self.sim, self.name + ".done")
            if self.done:
                event.fire()
            self._completion = event
        return event

    @property
    def blocked_on(self) -> str | None:
        """Human-readable description of what the process waits for.

        Computed lazily from the last kernel command — only deadlock
        reporting and ``repr`` pay the string formatting, never the
        per-event hot loop.
        """
        command = self._blocked_cmd
        if command is None:
            return None
        if command.__class__ is float:
            return f"hold({command:g})"
        if isinstance(command, Hold):
            return f"hold({command.delay:g})"
        if isinstance(command, Wait):
            return f"wait({command.event.name})"
        return f"wait({command.name})"  # raw Event

    def _advance(self) -> None:
        """Resume the generator and act on the yielded command.

        This is the simulator's per-event hot path: one ``send``, one
        type dispatch, one heap push — no allocation, no formatting.
        """
        self._blocked_cmd = None
        try:
            command = self._generator.send(None)
        except StopIteration:
            self._finish()
            return
        sim = self.sim
        cls = command.__class__
        if cls is float:                      # raw hold
            if command < 0.0:
                raise SimulationError(
                    f"cannot hold for negative time ({command})")
            heappush(sim._heap,
                     (sim.now + command, next(sim._counter), self))
            self._blocked_cmd = command
        elif cls is Event:                    # raw wait
            if command._fired:
                heappush(sim._heap, (sim.now, next(sim._counter), self))
            else:
                command._waiters.append(self)
                self._blocked_cmd = command
        elif cls is Hold:
            heappush(sim._heap,
                     (sim.now + command.delay, next(sim._counter), self))
            self._blocked_cmd = command
        elif cls is Wait:
            event = command.event
            if event._fired:
                heappush(sim._heap, (sim.now, next(sim._counter), self))
            else:
                event._waiters.append(self)
                self._blocked_cmd = command
        elif isinstance(command, Hold):   # Hold subclass
            heappush(sim._heap,
                     (sim.now + command.delay, next(sim._counter), self))
            self._blocked_cmd = command
        elif isinstance(command, (Wait, Event)):  # Wait/Event subclass
            event = command.event if isinstance(command, Wait) else command
            if event._fired:
                heappush(sim._heap, (sim.now, next(sim._counter), self))
            else:
                event._waiters.append(self)
                self._blocked_cmd = command
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {command!r}; expected "
                "Hold or Wait (use 'yield from' for sub-operations)")

    def _finish(self) -> None:
        self.done = True
        self.finished_at = self.sim.now
        self.sim._active -= 1
        completion = self._completion
        if completion is not None:
            completion.fire()

    def join(self):
        """Generator helper: wait for this process to finish."""
        return self.completion.wait()

    def __repr__(self) -> str:
        state = "done" if self.done else (self.blocked_on or "ready")
        return f"<SimProcess {self.name!r} {state}>"


class CalendarEntry:
    """Base of calendar entries that are not processes (see the module
    docstring): a subclass implements :meth:`_advance` as a small state
    machine over the helpers below.

    Construction schedules the first step at the current time.  It
    takes the same two counter values :meth:`Simulation.spawn` takes —
    one for a process's ``seq``, one for the first calendar push — so an
    entry that replaces a spawned process keeps every tie-break, and
    with them every result, byte-identical.
    """

    __slots__ = ("sim", "done")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.done = False
        next(sim._counter)  # the seq a spawned process would take
        sim._active += 1
        heappush(sim._heap, (sim.now, next(sim._counter), self))

    def _advance(self) -> None:
        raise NotImplementedError

    def _hold(self, delay: float) -> None:
        """Schedule the next step ``delay`` seconds from now."""
        sim = self.sim
        heappush(sim._heap, (sim.now + delay, next(sim._counter), self))

    def _wait(self, event: Event) -> None:
        """Take the next step when ``event`` fires (now if it has)."""
        if event._fired:
            self._hold(0.0)
        else:
            event._waiters.append(self)

    def _finish(self) -> None:
        self.done = True
        self.sim._active -= 1


class Simulation:
    """The event calendar and scheduler."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, SimProcess]] = []
        self._counter = itertools.count()
        self._active = 0
        self._processes: list[SimProcess] = []
        self.events_processed = 0

    # -- construction -------------------------------------------------------

    def spawn(self, name: str, generator: Generator) -> SimProcess:
        """Create a process and schedule its first step at the current time.

        Takes two counter values: the process's ``seq``, then its first
        calendar push (a :class:`CalendarEntry` takes the same two).
        The process is listed in :attr:`all_processes` for the rest of
        the run.
        """
        process = SimProcess(self, name, next(self._counter), generator)
        self._processes.append(process)
        self._active += 1
        heappush(self._heap, (self.now, next(self._counter), process))
        return process

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    # -- execution ---------------------------------------------------------------

    def run(self, until: float | None = None,
            max_events: int = 50_000_000) -> float:
        """Run until all processes finish (or ``until`` simulated seconds).

        Stopping at ``until`` leaves the calendar intact: the first
        event past the horizon is pushed back, so a later ``run()``
        resumes exactly where this one stopped.

        Raises :class:`DeadlockError` if the calendar drains while
        processes are still blocked on events.

        Observability: the coarse counters (runs, events) are recorded
        once per call, and with the :func:`repro.obs.detail` gate on,
        the per-run event count too — all from ``finally``, so the loop
        itself never checks the gate.
        """
        heap = self._heap
        processed = self.events_processed
        try:
            while heap:
                entry = heappop(heap)
                time = entry[0]
                if until is not None and time > until:
                    heappush(heap, entry)  # keep it for a resumed run()
                    self.now = until
                    return until
                self.now = time
                process = entry[2]
                if process.done:
                    continue
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "runaway model?")
                process._advance()
        finally:
            runs, events = _run_metrics()
            runs.inc()
            events.inc(processed - self.events_processed)
            if _obs.detail_enabled():
                _obs.histogram(
                    "sim_events_per_run",
                    "Events processed by one Simulation.run() call.",
                    _obs.COUNT_BUCKETS,
                ).observe(processed - self.events_processed)
            self.events_processed = processed
        if self._active > 0:
            self._raise_deadlock()
        return self.now

    def _raise_deadlock(self) -> None:
        blocked = [p for p in self._processes if not p.done]
        raise DeadlockError(
            f"deadlock at t={self.now:g}: {len(blocked)} process(es) "
            "blocked: " +
            ", ".join(f"{p.name} [{p.blocked_on}]" for p in blocked[:10]),
            blocked=blocked)

    @property
    def active_processes(self) -> int:
        return self._active

    @property
    def all_processes(self) -> Iterable[SimProcess]:
        """Every process spawned so far, in spawn order.  Calendar
        entries that are not processes (messages in flight) are not
        listed."""
        return tuple(self._processes)


def hold(delay: float):
    """``yield from hold(dt)`` (CSIM's ``hold``).

    Returns a pre-built iterable instead of a generator: a 1-tuple
    holding the raw float command (or an empty tuple for ``dt == 0``,
    which yields nothing).  Negative delays are rejected *eagerly* —
    the same :class:`SimulationError` and message as ``Hold(dt)``, not
    deferred to the first iteration the way a generator would.
    """
    if delay > 0:
        return (float(delay),)
    _check_delay(delay)
    return ()
