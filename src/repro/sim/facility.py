"""Facilities: CSIM-style service centers with FCFS queueing.

A facility models a served resource — a processor, a memory port, a lock.
Processes ``request`` a server (queueing FCFS when all are busy), hold it
for their service time, and ``release`` it.  The facility records busy
time, completions, and a time-weighted queue length, from which tests and
reports derive utilization and mean queue length.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulation
from repro.sim.stats import TimeWeighted


class Facility:
    """A multi-server FCFS facility."""

    def __init__(self, sim: Simulation, name: str, servers: int = 1) -> None:
        if servers < 1:
            raise SimulationError(
                f"facility {name!r} needs >= 1 server, got {servers}")
        self.sim = sim
        self.name = name
        self._grant_name = name + ".grant"  # shared by all queued grants
        self.servers = servers
        self._free = servers
        self._queue: deque[Event] = deque()  # FCFS grants
        # statistics
        self._busy = TimeWeighted(sim)       # number of busy servers
        self._queue_length = TimeWeighted(sim)
        self.completions = 0
        self.requests = 0

    # -- acquisition ------------------------------------------------------------

    def acquire(self) -> Event | None:
        """Take one server now, or join the FCFS queue.

        Returns ``None`` when a server was free.  Otherwise returns the
        grant event to wait on: :meth:`release` fires it once it has
        handed the caller its server.  The one acquisition path —
        :meth:`request`, :meth:`use` and callers that are not processes
        (a message in flight on a contended link) all take it.
        """
        self.requests += 1
        if self._free > 0:
            self._free -= 1
            self._busy.record(self.servers - self._free)
            return None
        grant = Event(self.sim, self._grant_name)
        self._queue.append(grant)
        self._queue_length.record(len(self._queue))
        return grant

    def request(self) -> Generator:
        """Acquire one server, FCFS; ``yield from facility.request()``."""
        grant = self.acquire()
        if grant is not None:
            yield grant  # raw-Event wait (see sim.core command encoding)

    def release(self) -> None:
        """Release one server; hands it to the longest-waiting requester."""
        busy = self.servers - self._free
        if busy <= 0:
            raise SimulationError(
                f"release of idle facility {self.name!r}")
        self.completions += 1
        if self._queue:
            grant = self._queue.popleft()
            self._queue_length.record(len(self._queue))
            grant.fire()
            # busy count unchanged: the server moved to the next owner.
            self._busy.record(busy)
        else:
            self._free += 1
            self._busy.record(self.servers - self._free)

    def use(self, service_time: float) -> Generator:
        """request → hold(service_time) → release (CSIM's ``use``).

        The acquisition is a plain call, so the common uncontended case
        costs no nested generator.
        """
        if service_time < 0:
            raise SimulationError(
                f"negative service time {service_time} at {self.name!r}")
        grant = self.acquire()
        if grant is not None:
            yield grant  # raw-Event wait
        try:
            if service_time > 0:
                yield float(service_time)  # raw-float hold
        finally:
            self.release()

    # -- statistics ---------------------------------------------------------------

    @property
    def busy_servers(self) -> int:
        return self.servers - self._free

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def busy_time(self) -> float:
        """Integral of busy servers over time (server-seconds)."""
        return self._busy.integral()

    def utilization(self) -> float:
        """Mean fraction of servers busy since t=0 (in [0, 1])."""
        if self.sim.now <= 0:
            return 0.0
        return self._busy.integral() / (self.sim.now * self.servers)

    def mean_queue_length(self) -> float:
        return self._queue_length.mean()

    def __repr__(self) -> str:
        return (f"<Facility {self.name!r} {self.busy_servers}/"
                f"{self.servers} busy, {self.queue_length} queued>")
