"""Message-passing workload elements (MPI-like semantics over the sim).

Point-to-point: eager sends below the network's rendezvous threshold
(sender pays only its software overhead; the message is delivered after
the Hockney transfer time), synchronous rendezvous above it (the envelope
arrives after one latency, and the sender blocks until the receiver has
pulled the data).  Either way the message travels as a :class:`_Delivery`
— a calendar entry, not a simulation process (see :mod:`repro.sim.core`).
Receives match on ``(source, tag)`` with -1 as the *any* wildcard, over
the per-process unexpected-message queue
(:class:`repro.sim.mailbox.Mailbox`).

Collectives use event-synchronized binomial-tree cost models (the standard
Hockney-based formulas): participants of the *n*-th invocation of a given
collective element match each other; completion times follow the tree
depth ``ceil(log2 P)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EstimatorError
from repro.machine.cluster import Cluster
from repro.sim.core import CalendarEntry, Event, Simulation, hold
from repro.sim.mailbox import Mailbox
from repro.workload.context import ExecContext
from repro.workload.elements import ModelElement

ANY = -1  # wildcard source/tag


@dataclass
class _Message:
    source: int
    dest: int
    tag: int
    nbytes: float
    sync: Event | None = None  # rendezvous completion (None for eager)


class _Delivery(CalendarEntry):
    """One message in flight, from send to the destination mailbox.

    It steps exactly like the process it replaces (same counter values,
    same calendar pushes, same number of steps), so results and event
    counts are unchanged:

    1. Compute the delay — for an eager message its transfer time (and
       account it on the network), for a rendezvous envelope one
       latency — and schedule step 2 at ``now + delay``.  On a
       contended link the message first queues for the link FCFS
       (:meth:`Facility.acquire`); the grant wakes it for this step's
       remainder, holding the link.
    2. Release the link, if held, and deposit the message.

    A zero delay deposits within step 1, as ``hold(0)`` did.
    """

    __slots__ = ("mailbox", "message", "network", "intra", "delay",
                 "link", "_arriving")

    def __init__(self, sim: Simulation, mailbox: Mailbox,
                 message: _Message, network, intra: bool,
                 delay: float | None = None) -> None:
        super().__init__(sim)
        self.mailbox = mailbox
        self.message = message
        self.network = network
        self.intra = intra
        self.delay = delay  # None: an eager transfer, timed at step 1
        self.link = None
        self._arriving = False

    def _advance(self) -> None:
        if self._arriving:
            self._arrive()
            return
        if self.delay is None:
            self.delay, self.link = self.network.start_transfer(
                self.message.nbytes, self.intra)
            if self.link is not None:
                grant = self.link.acquire()
                if grant is not None:
                    self._wait(grant)  # resumes here holding the link
                    return
        if self.delay > 0:
            self._arriving = True
            self._hold(self.delay)
        else:
            self._arrive()

    def _arrive(self) -> None:
        if self.link is not None:
            self.link.release()
        self.mailbox.send(self.message)
        self._finish()


@dataclass
class _Collective:
    """Per-invocation rendezvous state for one collective instance."""

    expected: int
    all_arrived: Event
    root_arrived: Event
    arrivals: int = 0
    values: dict[int, float] = field(default_factory=dict)

    def arrive(self, pid: int) -> None:
        if pid in self.values:
            raise EstimatorError(
                f"process {pid} joined the same collective instance twice "
                "(mismatched collective sequence?)")
        self.values[pid] = 0.0
        self.arrivals += 1
        if self.arrivals == self.expected:
            self.all_arrived.fire()


class Communicator:
    """COMM_WORLD over the cluster's processes."""

    def __init__(self, sim: Simulation, cluster: Cluster) -> None:
        self.sim = sim
        self.cluster = cluster
        self.size = cluster.params.processes
        self.mailboxes = [Mailbox(sim, f"p{pid}.inbox")
                          for pid in range(self.size)]
        self._instance_counters: dict[tuple, int] = {}
        self._collectives: dict[tuple, _Collective] = {}
        self.p2p_messages = 0
        # Zero-byte transfer times (the sender-side software overhead
        # paid on every send) are machine constants; precompute both.
        network = cluster.network
        self._envelope_delay = (network.transfer_time(0.0, False),
                                network.transfer_time(0.0, True))

    # -- point-to-point ---------------------------------------------------------

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise EstimatorError(
                f"{what} rank {rank} out of range 0..{self.size - 1}")

    def send(self, ctx: ExecContext, dest: int, nbytes: float, tag: int):
        """Blocking send from ``ctx.pid`` to ``dest``."""
        source = ctx.pid
        self._check_rank(dest, "send destination")
        if nbytes < 0:
            raise EstimatorError(f"negative message size {nbytes}")
        network = self.cluster.network
        intra = self.cluster.same_node(source, dest)
        self.p2p_messages += 1
        envelope_delay = self._envelope_delay[intra]
        if nbytes <= network.config.eager_threshold:
            # Eager: the message travels for its transfer time while the
            # sender pays only its software overhead (one latency).
            _Delivery(self.sim, self.mailboxes[dest],
                      _Message(source, dest, tag, nbytes), network, intra)
            yield from hold(envelope_delay)
        else:
            # Rendezvous: the envelope travels one latency; the sender
            # then blocks until the receiver has pulled the payload.
            # Rendezvous sends are few and large — keep the peer names
            # in the event so a deadlocked sender still reports who it
            # was waiting on (the eager path stays allocation-lean).
            sync = Event(self.sim, f"rndv.{source}->{dest}")
            _Delivery(self.sim, self.mailboxes[dest],
                      _Message(source, dest, tag, nbytes, sync=sync),
                      network, intra, envelope_delay)
            yield from sync.wait()

    def recv(self, ctx: ExecContext, source: int, nbytes: float, tag: int):
        """Blocking receive at ``ctx.pid``; -1 matches any source/tag."""
        if source != ANY:
            self._check_rank(source, "receive source")

        def matches(message: _Message) -> bool:
            return ((source == ANY or message.source == source)
                    and (tag == ANY or message.tag == tag))

        message = yield from self.mailboxes[ctx.pid].receive(matches)
        if message.sync is not None:
            # Rendezvous: pull the payload now, then release the sender.
            intra = self.cluster.same_node(message.source, ctx.pid)
            yield from self.cluster.network.transfer(message.nbytes, intra)
            message.sync.fire()
        return message

    # -- collectives -----------------------------------------------------------

    def _instance(self, kind: str, element_id: int,
                  pid: int) -> _Collective:
        counter_key = (kind, element_id, pid)
        instance_no = self._instance_counters.get(counter_key, 0)
        self._instance_counters[counter_key] = instance_no + 1
        state_key = (kind, element_id, instance_no)
        state = self._collectives.get(state_key)
        if state is None:
            state = _Collective(
                expected=self.size,
                all_arrived=Event(self.sim, f"{kind}#{element_id}.all"),
                root_arrived=Event(self.sim, f"{kind}#{element_id}.root"),
            )
            self._collectives[state_key] = state
        return state

    def _tree_time(self, nbytes: float) -> float:
        network = self.cluster.network
        intra = self.cluster.params.nodes == 1
        per_hop = network.transfer_time(nbytes, intra)
        return network.tree_depth(self.size) * per_hop

    def _hop_time(self, nbytes: float) -> float:
        intra = self.cluster.params.nodes == 1
        return self.cluster.network.transfer_time(nbytes, intra)

    def barrier(self, ctx: ExecContext, element_id: int):
        """Dissemination barrier: all leave tree-depth latencies after the
        last arrival."""
        state = self._instance("barrier", element_id, ctx.pid)
        state.arrive(ctx.pid)
        yield from state.all_arrived.wait()
        yield from hold(self._tree_time(0.0))

    def bcast(self, ctx: ExecContext, element_id: int, root: int,
              nbytes: float):
        """Binomial-tree broadcast: done max(t_me, t_root) + depth hops."""
        self._check_rank(root, "bcast root")
        state = self._instance("bcast", element_id, ctx.pid)
        state.arrive(ctx.pid)
        if ctx.pid == root:
            state.root_arrived.fire()
        else:
            yield from state.root_arrived.wait()
        yield from hold(self._tree_time(nbytes))

    def reduce(self, ctx: ExecContext, element_id: int, root: int,
               nbytes: float, op: str = "sum"):
        """Binomial-tree reduction: the root completes tree-depth hops
        after the last contribution; leaves complete after one hop."""
        self._check_rank(root, "reduce root")
        state = self._instance("reduce", element_id, ctx.pid)
        state.arrive(ctx.pid)
        if ctx.pid == root:
            yield from state.all_arrived.wait()
            yield from hold(self._tree_time(nbytes))
        else:
            yield from hold(self._hop_time(nbytes))

    def allreduce(self, ctx: ExecContext, element_id: int, nbytes: float,
                  op: str = "sum"):
        """Reduce-then-broadcast: everyone synchronizes on the last
        arrival, then pays two tree traversals."""
        state = self._instance("allreduce", element_id, ctx.pid)
        state.arrive(ctx.pid)
        yield from state.all_arrived.wait()
        yield from hold(2.0 * self._tree_time(nbytes))

    def scatter(self, ctx: ExecContext, element_id: int, root: int,
                nbytes: float):
        """Linear scatter: the root serializes P-1 sends; receiver i gets
        its block after i sends (rank order after the root arrives)."""
        self._check_rank(root, "scatter root")
        state = self._instance("scatter", element_id, ctx.pid)
        state.arrive(ctx.pid)
        per_child = self._hop_time(nbytes)
        if ctx.pid == root:
            state.root_arrived.fire()
            yield from hold(per_child * max(self.size - 1, 0))
        else:
            yield from state.root_arrived.wait()
            order = ctx.pid if ctx.pid > root else ctx.pid + 1
            yield from hold(per_child * order)

    def gather(self, ctx: ExecContext, element_id: int, root: int,
               nbytes: float):
        """Linear gather: the root drains P-1 receives after the last
        contribution; leaves complete after their one send."""
        self._check_rank(root, "gather root")
        state = self._instance("gather", element_id, ctx.pid)
        state.arrive(ctx.pid)
        per_child = self._hop_time(nbytes)
        if ctx.pid == root:
            yield from state.all_arrived.wait()
            yield from hold(per_child * max(self.size - 1, 0))
        else:
            yield from hold(per_child)


# ---------------------------------------------------------------------------
# Runtime element classes used by generated code
# ---------------------------------------------------------------------------

class _CommElement(ModelElement):
    @property
    def comm(self) -> Communicator:
        return self.ctx.runtime.comm


class MpiSend(_CommElement):
    kind = "send"

    def execute(self, uid: int, pid: int, tid: int, dest, nbytes, tag=0):
        start = self.ctx.sim.now
        yield from self.comm.send(self.ctx, int(dest), float(nbytes),
                                  int(tag))
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiRecv(_CommElement):
    kind = "recv"

    def execute(self, uid: int, pid: int, tid: int, source, nbytes, tag=0):
        start = self.ctx.sim.now
        yield from self.comm.recv(self.ctx, int(source), float(nbytes),
                                  int(tag))
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiBarrier(_CommElement):
    kind = "barrier"

    def execute(self, uid: int, pid: int, tid: int):
        start = self.ctx.sim.now
        yield from self.comm.barrier(self.ctx, self.element_id)
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiBcast(_CommElement):
    kind = "bcast"

    def execute(self, uid: int, pid: int, tid: int, root, nbytes):
        start = self.ctx.sim.now
        yield from self.comm.bcast(self.ctx, self.element_id, int(root),
                                   float(nbytes))
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiScatter(_CommElement):
    kind = "scatter"

    def execute(self, uid: int, pid: int, tid: int, root, nbytes):
        start = self.ctx.sim.now
        yield from self.comm.scatter(self.ctx, self.element_id, int(root),
                                     float(nbytes))
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiGather(_CommElement):
    kind = "gather"

    def execute(self, uid: int, pid: int, tid: int, root, nbytes):
        start = self.ctx.sim.now
        yield from self.comm.gather(self.ctx, self.element_id, int(root),
                                    float(nbytes))
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiReduce(_CommElement):
    kind = "reduce"

    def execute(self, uid: int, pid: int, tid: int, root, nbytes,
                op: str = "sum"):
        start = self.ctx.sim.now
        yield from self.comm.reduce(self.ctx, self.element_id, int(root),
                                    float(nbytes), op)
        self._trace(uid, pid, tid, start, self.ctx.sim.now)


class MpiAllreduce(_CommElement):
    kind = "allreduce"

    def execute(self, uid: int, pid: int, tid: int, nbytes,
                op: str = "sum"):
        start = self.ctx.sim.now
        yield from self.comm.allreduce(self.ctx, self.element_id,
                                       float(nbytes), op)
        self._trace(uid, pid, tid, start, self.ctx.sim.now)
