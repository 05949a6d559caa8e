"""Cross-process communication matching.

Two stages, both mirroring the simulator's semantics
(:mod:`repro.workload.mpi`) exactly — every claim this pass makes is a
claim about what the simulation *will* do:

1. **Trace enumeration** — each rank's CFG is executed concretely with
   ``pid``/``size`` fixed, collecting the sequence of communication
   events (send/recv/collective sites with evaluated peers, tags, and
   sizes).  A trace is *exact* only if every guard, trip count, and
   peer expression folded to a concrete value; anything unknown (a
   guard over ``nnodes``, a fork arm containing communication, a
   budget overrun) marks the trace inexact and the matcher makes **no
   claims** for that process count.

2. **Abstract scheduling** — a time-free replay of the exact traces
   under maximally permissive progress: eager sends (``nbytes <=
   eager_threshold``) always complete, rendezvous sends block until
   consumed, receives match on ``(source, tag)`` with ``-1``
   wildcards, collectives follow the simulator's blocking roles
   (barrier/allreduce: all wait for all; bcast/scatter: non-roots wait
   for the root; reduce/gather: the root waits for all).  If this
   scheduler cannot finish, *no* schedule can — a stuck outcome over
   exact, unambiguous traces is a guaranteed ``DeadlockError``.
   Wildcard receives whose choice could matter poison the verdict to
   "possible" (ambiguity is detected against both queued messages and
   not-yet-executed sends).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.cfg import (
    ALL_WAIT_ALL,
    DiagramCFG,
    ModelCFG,
    ProgramPoint,
    ROOT_WAITS_ALL,
    WAITS_ROOT_ONLY,
)
from repro.analysis.intervals import (
    AbstractEnv,
    AbstractEvalError,
    AbstractEvaluator,
    Interval,
    is_concrete,
)
from repro.lang.types import Type

ANY = -1  # wildcard source/tag (repro.workload.mpi.ANY)

#: Default process counts the matcher enumerates.
DEFAULT_ANALYSIS_SIZES = (1, 2, 3, 4)

_EVENT_CAP = 20_000       # comm events per rank
_OP_BUDGET = 400_000      # program points visited per rank


@dataclass
class CommEvent:
    """One communication site occurrence in a rank's trace."""

    kind: str
    point: ProgramPoint
    pid: int
    peer: int | None = None     # send dest / recv source (-1: any)
    tag: int | None = None      # send/recv tag (-1: any for recv)
    root: int | None = None
    nbytes: float = 0.0

    def site(self) -> str:
        return (f"{self.kind} {self.point.name!r} "
                f"[diagram {self.point.diagram}, "
                f"element {self.point.element_id}]")


@dataclass
class RankTrace:
    pid: int
    events: list[CommEvent] = field(default_factory=list)
    exact: bool = True
    reason: str | None = None


class _Inexact(Exception):
    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class _TraceBuilder:
    """Concretely executes one rank's behavior, collecting comm events."""

    def __init__(self, mcfg: ModelCFG, pid: int, processes: int,
                 op_budget: int = _OP_BUDGET,
                 event_cap: int = _EVENT_CAP) -> None:
        self.mcfg = mcfg
        self.pid = pid
        self.processes = processes
        self.evaluator = AbstractEvaluator(mcfg.functions)
        self.events: list[CommEvent] = []
        self.ops = 0
        self.op_budget = op_budget
        self.event_cap = event_cap

    def run(self) -> RankTrace:
        env = AbstractEnv()
        try:
            for name, type_, init in self.mcfg.variables:
                value = (self.evaluator.eval(init, env)
                         if init is not None else None)
                env.declare(name, type_, value)
            env.declare("uid", Type.INT, self.pid)
            env.declare("pid", Type.INT, self.pid)
            env.declare("tid", Type.INT, 0)
            env.declare("size", Type.INT, self.processes)
            # The machine shape beyond the process count is not fixed
            # at analysis time; guards that read it are not decidable.
            env.declare("nnodes", Type.INT, Interval(1.0, float("inf")))
            env.declare("nthreads", Type.INT,
                        Interval(1.0, float("inf")))
            self._exec_diagram(self.mcfg.main, env.child())
        except _Inexact as flag:
            return RankTrace(self.pid, self.events, exact=False,
                             reason=flag.reason)
        except AbstractEvalError as exc:
            return RankTrace(self.pid, self.events, exact=False,
                             reason=f"abstract evaluation failed: {exc}")
        return RankTrace(self.pid, self.events)

    # -- execution ----------------------------------------------------------

    def _exec_diagram(self, cfg: DiagramCFG, env: AbstractEnv) -> None:
        point = cfg.entry
        scopes: list[AbstractEnv] = []
        while point.kind != "exit":
            self.ops += 1
            if self.ops > self.op_budget:
                raise _Inexact("trace budget exceeded")
            kind = point.kind
            if kind == "work":
                self._exec_work(point, env)
                point = point.successor()
            elif point.is_comm:
                self._exec_comm(point, env)
                point = point.successor()
            elif kind == "branch":
                scopes.append(env)
                env = env.child()
                point = self._branch_target(point, env)
            elif kind == "merge":
                env = scopes.pop()
                point = point.successor()
            elif kind == "cycle_test":
                point = self._cycle_target(point, env)
            elif kind == "call":
                self._exec_diagram(self.mcfg.diagrams[point.behavior],
                                   env)
                point = point.successor()
            elif kind == "loop":
                self._exec_loop(point, env)
                point = point.successor()
            elif kind == "parallel":
                self._skip_opaque(point.behavior, "parallel region")
                point = point.successor()
            elif kind == "fork":
                self._skip_fork(point, cfg)
                point = point.join
            else:  # entry / noop / cycle_head / cycle_exit / join
                point = point.successor()

    def _truth(self, expr, env: AbstractEnv) -> bool:
        verdict = self.evaluator.truth(self.evaluator.eval(expr, env))
        if verdict is None:
            raise _Inexact("guard is not statically decidable")
        return verdict

    def _concrete(self, expr, env: AbstractEnv):
        value = self.evaluator.eval(expr, env)
        if not is_concrete(value):
            raise _Inexact(
                "communication annotation is not statically decidable")
        return value

    def _exec_work(self, point: ProgramPoint, env: AbstractEnv) -> None:
        if point.code is not None:
            self.evaluator.run_program(point.code, env)
        if point.cost is not None and self.mcfg.functions_mutate_globals:
            # Cost evaluation can mutate globals through user functions;
            # replay it so later guards see the same state as the sim.
            self.evaluator.eval(point.cost, env)

    def _exec_comm(self, point: ProgramPoint, env: AbstractEnv) -> None:
        if point.code is not None:
            self.evaluator.run_program(point.code, env)
        event = CommEvent(point.kind, point, self.pid)
        if point.size is not None:
            event.nbytes = float(self._concrete(point.size, env))
        if point.kind in ("send", "recv"):
            event.peer = int(self._concrete(point.peer, env))
            event.tag = point.tag
        elif point.root is not None:
            event.root = int(self._concrete(point.root, env))
        self.events.append(event)
        if len(self.events) > self.event_cap:
            raise _Inexact("communication event budget exceeded")

    def _branch_target(self, point: ProgramPoint,
                       env: AbstractEnv) -> ProgramPoint:
        for edge in point.edges:
            if edge.role == "arm" and self._truth(edge.guard, env):
                return edge.target
        return point.edge("else").target

    def _cycle_target(self, point: ProgramPoint,
                      env: AbstractEnv) -> ProgramPoint:
        if point.break_expr is not None:
            done = self._truth(point.break_expr, env)
        else:
            done = not self._truth(point.stay_expr, env)
        role = "break" if done else "stay"
        return point.edge(role).target

    def _exec_loop(self, point: ProgramPoint, env: AbstractEnv) -> None:
        count = self._concrete(point.iterations, env)
        iterations = int(count)
        body = self.mcfg.diagrams[point.behavior]
        for _ in range(iterations):
            self._exec_diagram(body, env)

    def _skip_opaque(self, behavior: str, what: str) -> None:
        summary = self.mcfg.summary(behavior)
        self._require_skippable(summary, what)

    def _skip_fork(self, point: ProgramPoint, cfg: DiagramCFG) -> None:
        for span in point.arm_spans:
            self._require_skippable(self.mcfg.span_summary(cfg, span),
                                    "fork arm")

    def _require_skippable(self, summary, what: str) -> None:
        if summary.has_comm:
            raise _Inexact(
                f"{what} contains communication (concurrent ordering "
                "is not statically decidable)")
        if summary.has_code:
            raise _Inexact(f"{what} mutates model state concurrently")
        if summary.has_cost and self.mcfg.functions_mutate_globals:
            raise _Inexact(
                f"{what} evaluates cost functions that mutate globals")


def enumerate_traces(mcfg: ModelCFG, processes: int,
                     op_budget: int = _OP_BUDGET,
                     event_cap: int = _EVENT_CAP) -> list[RankTrace]:
    """One trace per rank at communicator size ``processes``.

    ``op_budget``/``event_cap`` bound the work per rank; exhausting
    either makes that rank's trace inexact (no claims), which lets
    opportunistic callers — the sweep pre-flight — screen cheaply and
    fall back to simulation for anything expensive to enumerate.
    """
    return [_TraceBuilder(mcfg, pid, processes, op_budget=op_budget,
                          event_cap=event_cap).run()
            for pid in range(processes)]


# -- the abstract scheduler ---------------------------------------------------

@dataclass
class _Msg:
    source: int
    tag: int
    nbytes: float
    event: CommEvent
    rendezvous: bool
    arrival: int  # deposit order across the whole schedule
    consumed: bool = False


@dataclass
class BlockedSite:
    pid: int
    event: CommEvent
    why: str


@dataclass
class MatchResult:
    """Outcome of scheduling one size's traces."""

    processes: int
    exact: bool
    inexact_reasons: list[str] = field(default_factory=list)
    completed: bool = False
    ambiguous: bool = False
    unmatched_sends: list[CommEvent] = field(default_factory=list)
    blocked: list[BlockedSite] = field(default_factory=list)
    range_errors: list[tuple[CommEvent, str]] = field(default_factory=list)
    partial_collectives: list[tuple[CommEvent, list[int]]] = \
        field(default_factory=list)
    delivered: int = 0

    @property
    def guaranteed_deadlock(self) -> bool:
        return (self.exact and not self.completed and not self.ambiguous
                and not self.range_errors and bool(self.blocked))

    @property
    def certified_clean(self) -> bool:
        """True when this size provably completes in simulation."""
        return (self.exact and self.completed and not self.ambiguous
                and not self.range_errors)


class _Scheduler:
    def __init__(self, traces: list[RankTrace],
                 eager_threshold: float) -> None:
        self.traces = traces
        self.size = len(traces)
        self.threshold = eager_threshold
        self.cursors = [0] * self.size
        self.failed = [False] * self.size
        self.joined = [False] * self.size      # arrived at current coll.
        self.deposited = [False] * self.size   # rendezvous msg deposited
        self.pending_rendezvous: list[_Msg | None] = [None] * self.size
        # Each rank's unconsumed messages, one FIFO per (source, tag)
        # group; a group leaves the dict when its last message does.
        self.mailboxes: list[dict[tuple[int, int], deque[_Msg]]] = [
            {} for _ in range(self.size)]
        self._arrivals = 0
        # (sender, destination) → tag → index of the sender's last send
        # with that tag to that destination.
        self._last_send: dict[tuple[int, int], dict[int, int]] = {}
        for trace in traces:
            for index, event in enumerate(trace.events):
                if event.kind == "send":
                    self._last_send.setdefault(
                        (trace.pid, event.peer), {})[event.tag] = index
        self.result = MatchResult(self.size, exact=True)
        self._counters: dict[tuple, int] = {}
        self._states: dict[tuple, dict] = {}
        self._instance_of: dict[tuple[int, int], tuple] = {}

    # -- helpers ------------------------------------------------------------

    def _current(self, pid: int) -> CommEvent | None:
        trace = self.traces[pid].events
        cursor = self.cursors[pid]
        return trace[cursor] if cursor < len(trace) else None

    def _advance_cursor(self, pid: int) -> None:
        self.cursors[pid] += 1
        self.joined[pid] = False
        self.deposited[pid] = False

    def _fail(self, pid: int, event: CommEvent, message: str) -> None:
        self.result.range_errors.append((event, message))
        self.failed[pid] = True

    def _in_range(self, rank: int) -> bool:
        return 0 <= rank < self.size

    def _deposit(self, pid: int, event: CommEvent,
                 rendezvous: bool) -> _Msg:
        message = _Msg(pid, event.tag, event.nbytes, event, rendezvous,
                       self._arrivals)
        self._arrivals += 1
        self.mailboxes[event.peer].setdefault(
            (pid, event.tag), deque()).append(message)
        return message

    # -- per-rank step ------------------------------------------------------

    def _step(self, pid: int) -> bool:
        """Try to complete the rank's current event; True on progress."""
        if self.failed[pid]:
            return False
        event = self._current(pid)
        if event is None:
            return False
        if event.kind == "send":
            return self._step_send(pid, event)
        if event.kind == "recv":
            return self._step_recv(pid, event)
        return self._step_collective(pid, event)

    def _step_send(self, pid: int, event: CommEvent) -> bool:
        if not self._in_range(event.peer):
            self._fail(pid, event,
                       f"send destination rank {event.peer} out of "
                       f"range 0..{self.size - 1}")
            return True
        if event.nbytes < 0:
            self._fail(pid, event,
                       f"negative message size {event.nbytes}")
            return True
        if event.nbytes <= self.threshold:
            self._deposit(pid, event, rendezvous=False)
            self.result.delivered += 1
            self._advance_cursor(pid)
            return True
        # Rendezvous: deposit the envelope once, then block until a
        # receive consumes it.
        if not self.deposited[pid]:
            self.pending_rendezvous[pid] = self._deposit(
                pid, event, rendezvous=True)
            self.deposited[pid] = True
            return True
        message = self.pending_rendezvous[pid]
        if message is not None and message.consumed:
            self.pending_rendezvous[pid] = None
            self.result.delivered += 1
            self._advance_cursor(pid)
            return True
        return False

    def _step_recv(self, pid: int, event: CommEvent) -> bool:
        if event.peer != ANY and not self._in_range(event.peer):
            self._fail(pid, event,
                       f"receive source rank {event.peer} out of "
                       f"range 0..{self.size - 1}")
            return True
        groups = self.mailboxes[pid]
        if event.peer != ANY and event.tag != ANY:
            key = (event.peer, event.tag)
            queue = groups.get(key)
            if queue is None:
                return False
            # Order within one (source, tag) group only matters when a
            # rendezvous release is at stake.  Its source blocks until
            # the rendezvous message is consumed, and receives consume
            # group heads, so that message can only be the tail.
            if len(queue) > 1 and queue[-1].rendezvous:
                self.result.ambiguous = True
        else:
            matching = [group for group in groups
                        if (event.peer == ANY or group[0] == event.peer)
                        and (event.tag == ANY or group[1] == event.tag)]
            if not matching:
                return False
            key = min(matching, key=lambda group: groups[group][0].arrival)
            if len(set(matching) | self._pending_send_groups(pid, event)) > 1:
                self.result.ambiguous = True
            queue = groups[key]
        message = queue.popleft()
        if not queue:
            del groups[key]
        message.consumed = True
        self._advance_cursor(pid)
        return True

    def _pending_send_groups(self, pid: int,
                             event: CommEvent) -> set[tuple[int, int]]:
        """The (source, tag) groups of compatible sends to ``pid`` that
        other ranks have not executed yet: a different schedule could
        hand a wildcard receive one of these instead.  Over-approximate
        on purpose — a specific source is not filtered on."""
        groups = set()
        for other in range(self.size):
            if other == pid:
                continue
            cursor = self.cursors[other]
            for tag, last in self._last_send.get((other, pid), {}).items():
                if last >= cursor and (event.tag == ANY or tag == event.tag):
                    groups.add((other, tag))
        return groups

    def _step_collective(self, pid: int, event: CommEvent) -> bool:
        kind = event.kind
        rooted = kind in ROOT_WAITS_ALL or kind in WAITS_ROOT_ONLY
        if rooted and not self._in_range(event.root):
            self._fail(pid, event,
                       f"{kind} root rank {event.root} out of "
                       f"range 0..{self.size - 1}")
            return True
        if event.nbytes < 0:
            self._fail(pid, event,
                       f"negative message size {event.nbytes}")
            return True
        progressed = False
        if not self.joined[pid]:
            state = self._join(pid, event)
            self.joined[pid] = True
            progressed = True
        else:
            state = self._states[self._instance_of[(pid,
                                                    self.cursors[pid])]]
        if self._may_pass(pid, event, state):
            self._advance_cursor(pid)
            return True
        return progressed

    def _join(self, pid: int, event: CommEvent) -> dict:
        counter_key = (event.kind, event.point.element_id, pid)
        instance_no = self._counters.get(counter_key, 0)
        self._counters[counter_key] = instance_no + 1
        state_key = (event.kind, event.point.element_id, instance_no)
        state = self._states.get(state_key)
        if state is None:
            state = {"arrived": set(), "root_arrived": False,
                     "event": event}
            self._states[state_key] = state
        state["arrived"].add(pid)
        if pid == event.root:
            state["root_arrived"] = True
        self._instance_of[(pid, self.cursors[pid])] = state_key
        return state

    def _may_pass(self, pid: int, event: CommEvent, state: dict) -> bool:
        kind = event.kind
        if kind in ALL_WAIT_ALL:
            return len(state["arrived"]) == self.size
        if kind in WAITS_ROOT_ONLY:
            return pid == event.root or state["root_arrived"]
        if kind in ROOT_WAITS_ALL:
            if pid == event.root:
                return len(state["arrived"]) == self.size
            return True
        return True

    # -- the run ------------------------------------------------------------

    def run(self) -> MatchResult:
        progress = True
        while progress:
            progress = False
            for pid in range(self.size):
                while self._step(pid):
                    progress = True
        done = all(self.failed[pid]
                   or self._current(pid) is None
                   for pid in range(self.size))
        self.result.completed = done and not any(self.failed)
        if not done:
            for pid in range(self.size):
                event = self._current(pid)
                if event is None or self.failed[pid]:
                    continue
                self.result.blocked.append(
                    BlockedSite(pid, event, self._why_blocked(pid,
                                                              event)))
        # Messages never consumed: unmatched sends, by destination rank,
        # then arrival.
        if self.result.completed:
            for groups in self.mailboxes:
                left = sorted((message for queue in groups.values()
                               for message in queue),
                              key=lambda message: message.arrival)
                self.result.unmatched_sends.extend(
                    message.event for message in left)
            # Collectives some live ranks never reached.
            for state in self._states.values():
                arrived = state["arrived"]
                if 0 < len(arrived) < self.size:
                    missing = sorted(set(range(self.size)) - arrived)
                    self.result.partial_collectives.append(
                        (state["event"], missing))
        return self.result

    def _why_blocked(self, pid: int, event: CommEvent) -> str:
        if event.kind == "send":
            return (f"rendezvous send to rank {event.peer} "
                    f"(tag {event.tag}, {event.nbytes:g} bytes) is "
                    "never received")
        if event.kind == "recv":
            source = ("any rank" if event.peer == ANY
                      else f"rank {event.peer}")
            tag = "any tag" if event.tag == ANY else f"tag {event.tag}"
            return f"no matching message from {source} with {tag}"
        state_key = self._instance_of.get((pid, self.cursors[pid]))
        state = self._states.get(state_key, {"arrived": {pid}})
        missing = sorted(set(range(self.size)) - state["arrived"])
        if event.kind in WAITS_ROOT_ONLY and pid != event.root:
            return (f"root rank {event.root} never reaches this "
                    f"{event.kind}")
        return (f"rank(s) {missing} never reach this {event.kind}")


def match_traces(traces: list[RankTrace],
                 eager_threshold: float) -> MatchResult:
    """Schedule the traces of one communicator size."""
    inexact = [trace for trace in traces if not trace.exact]
    if inexact:
        result = MatchResult(len(traces), exact=False)
        result.inexact_reasons = sorted(
            {trace.reason for trace in inexact if trace.reason})
        return result
    return _Scheduler(traces, eager_threshold).run()


__all__ = [
    "ANY",
    "BlockedSite",
    "CommEvent",
    "DEFAULT_ANALYSIS_SIZES",
    "MatchResult",
    "RankTrace",
    "enumerate_traces",
    "match_traces",
]
