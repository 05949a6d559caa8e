"""The pre-flight matcher against a copy of its list-scan original.

``repro.analysis.comm._Scheduler`` keeps each rank's unconsumed
messages in FIFOs keyed by ``(source, tag)`` and reads pending sends
from a per-(sender, destination) table.  The verdicts must be exactly
those of the list-scan scheduler it replaced, copied below as the
oracle: every :class:`MatchResult` field, over the builtin models, 60
random models, the ring fixture, the four mutants and a few hand-built
probes, at six process counts and four eager thresholds.
"""

import math
from dataclasses import dataclass

import pytest

from repro.analysis.cfg import (ALL_WAIT_ALL, ROOT_WAITS_ALL, WAITS_ROOT_ONLY,
                                build_model_cfg)
from repro.analysis.comm import (ANY, BlockedSite, CommEvent, MatchResult,
                                 RankTrace, _Scheduler, enumerate_traces)
from repro.service.registry import builtin_model_builders
from repro.uml.builder import ModelBuilder
from repro.uml.random_models import RandomModelConfig, random_model

from tests.analysis.conftest import MUTANTS, ring_model

SIZES = (1, 2, 3, 4, 5, 8)
THRESHOLDS = (0.0, 1024.0, 65536.0, math.inf)
#: Fork-free, collective-rich: random traces stay exact.
RANDOM = RandomModelConfig(target_actions=12, max_depth=2,
                           p_collective=0.3, p_fork=0.0)


@dataclass
class _ListMsg:
    source: int
    tag: int
    nbytes: float
    event: CommEvent
    rendezvous: bool
    consumed: bool = False


class ListScanScheduler:
    """The matcher as it was: every receive scans the rank's whole
    mailbox list, consumed messages included, and a wildcard receive
    scans every other rank's remaining trace."""

    def __init__(self, traces: list[RankTrace],
                 eager_threshold: float) -> None:
        self.traces = traces
        self.size = len(traces)
        self.threshold = eager_threshold
        self.cursors = [0] * self.size
        self.failed = [False] * self.size
        self.joined = [False] * self.size      # arrived at current coll.
        self.deposited = [False] * self.size   # rendezvous msg deposited
        self.pending_rendezvous: list[_ListMsg | None] = [None] * self.size
        self.mailboxes: list[list[_ListMsg]] = [[] for _ in range(self.size)]
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
            self.mailboxes[event.peer].append(
                _ListMsg(pid, event.tag, event.nbytes, event,
                     rendezvous=False))
            self.result.delivered += 1
            self._advance_cursor(pid)
            return True
        # Rendezvous: deposit the envelope once, then block until a
        # receive consumes it.
        if not self.deposited[pid]:
            message = _ListMsg(pid, event.tag, event.nbytes, event,
                           rendezvous=True)
            self.mailboxes[event.peer].append(message)
            self.pending_rendezvous[pid] = message
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
        queue = self.mailboxes[pid]
        candidates = [message for message in queue
                      if not message.consumed
                      and (event.peer == ANY
                           or message.source == event.peer)
                      and (event.tag == ANY or message.tag == event.tag)]
        if not candidates:
            return False
        if self._choice_matters(pid, event, candidates):
            self.result.ambiguous = True
        message = candidates[0]
        message.consumed = True
        self._advance_cursor(pid)
        return True

    def _choice_matters(self, pid: int, event: CommEvent,
                        candidates: list[_ListMsg]) -> bool:
        """Could a different schedule hand this receive a different
        message?  Checked against queued candidates *and* compatible
        sends other ranks have not executed yet."""
        wildcard = event.peer == ANY or event.tag == ANY
        groups = {(message.source, message.tag)
                  for message in candidates}
        if wildcard:
            for other in range(self.size):
                if other == pid:
                    continue
                for future in self.traces[other].events[
                        self.cursors[other]:]:
                    if (future.kind == "send" and future.peer == pid
                            and (event.tag == ANY
                                 or future.tag == event.tag)):
                        groups.add((other, future.tag))
            return len(groups) > 1
        # Deterministic (source, tag): order within the group only
        # matters when a rendezvous release is at stake.
        return (len(candidates) > 1
                and any(m.rendezvous for m in candidates))

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
        # Messages never consumed: unmatched sends.
        if self.result.completed:
            for queue in self.mailboxes:
                for message in queue:
                    if not message.consumed:
                        self.result.unmatched_sends.append(message.event)
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


#: Payload above the 1024-byte threshold, below the default one.
MID = "4096"

#: Hand-built probes, one per matching rule the corpus above might not
#: reach: rank → its sequence of ("send", dest, size, tag) and
#: ("recv", source, tag) sites (-1: any).
PROBES = {
    # Rank 2's first wildcard receive finds only rank 0's message
    # queued, while rank 1 — blocked on rank 2 — still has a send to it
    # pending: only the pending-send check calls the receive ambiguous.
    "wildcard-race": {
        0: [("send", 2, "64", 1)],
        1: [("recv", 2, 7), ("send", 2, "64", 1)],
        2: [("recv", -1, 1), ("send", 1, "64", 7), ("recv", -1, 1)],
    },
    # A specific source with any tag, while another rank's rendezvous
    # send to the receiver sits at its cursor: the pending-send check
    # counts it (it does not filter on the source).
    "tag-wildcard-race": {
        0: [("send", 2, "64", 1)],
        1: [("send", 2, MID, 1)],
        2: [("recv", 0, -1), ("recv", 1, 1)],
    },
    # An eager message and then a rendezvous one in the same group.
    "rendezvous-behind-eager": {
        0: [("send", 1, "64", 1), ("send", 1, MID, 1)],
        1: [("recv", 0, 1), ("recv", 0, 1)],
    },
    # One wildcard receive for two messages: the first to arrive is
    # taken, and the other is left unmatched.
    "first-arrival-wins": {
        0: [("send", 2, "64", 1)],
        1: [("send", 2, "64", 2)],
        2: [("recv", -1, -1)],
    },
    # Nobody receives: unmatched sends list in arrival order, which
    # differs from the order of their (source, tag) groups.
    "interleaved-unmatched": {
        1: [("send", 0, "64", 2), ("send", 0, "64", 1),
            ("send", 0, "64", 2)],
    },
}


def probe_model(name):
    b = ModelBuilder(name)
    d = b.diagram("main", main=True)
    i = d.initial()
    dec = d.decision()
    mrg = d.merge()
    f = d.final()
    arms = []
    for pid, sites in PROBES[name].items():
        nodes = []
        for index, (kind, peer, *rest) in enumerate(sites):
            site = f"{kind}{pid}_{index}"
            if kind == "send":
                size, tag = rest
                nodes.append(d.send(site, dest=str(peer), size=size,
                                    tag=tag))
            else:
                nodes.append(d.recv(site, source=str(peer), size="64",
                                    tag=rest[0]))
        arms.append((f"pid == {pid}", nodes))
    d.chain(i, dec)
    d.branch(dec, mrg, *arms, ("else", []))
    d.chain(mrg, f)
    return b.build()


def _corpus():
    builders = dict(builtin_model_builders())
    builders["ring"] = ring_model
    builders.update((f"probe:{name}", lambda name=name: probe_model(name))
                    for name in PROBES)
    builders.update((f"mutant:{name}", build)
                    for name, build in MUTANTS.items())
    for seed in range(60):
        builders[f"random:{seed}"] = (
            lambda seed=seed: random_model(seed, RANDOM))
    return builders


@pytest.fixture(scope="module")
def cases():
    """(case id, exact traces, threshold) for every corpus point."""
    out = []
    for name, build in sorted(_corpus().items()):
        mcfg = build_model_cfg(build())
        for size in SIZES:
            traces = enumerate_traces(mcfg, size)
            if not all(trace.exact for trace in traces):
                continue
            for threshold in THRESHOLDS:
                out.append((f"{name} P={size} eager={threshold:g}",
                            traces, threshold))
    return out


def _disagreements(cases):
    return [case_id for case_id, traces, threshold in cases
            if _Scheduler(traces, threshold).run()
            != ListScanScheduler(traces, threshold).run()]


def test_corpus_reaches_every_verdict(cases):
    results = [ListScanScheduler(traces, threshold).run()
               for _, traces, threshold in cases]
    assert len(cases) >= 1500
    assert sum(r.guaranteed_deadlock for r in results) >= 50
    assert sum(r.ambiguous for r in results) >= 5
    assert sum(bool(r.unmatched_sends) for r in results) >= 5


def test_every_match_result_field_equals_the_list_scan(cases):
    assert _disagreements(cases) == []


def test_a_planted_change_is_caught(cases, monkeypatch):
    """Without the pending-send ambiguity check the verdicts move, and
    the comparison above must see it."""
    monkeypatch.setattr(_Scheduler, "_pending_send_groups",
                        lambda self, pid, event: set())
    assert _disagreements(cases)


@pytest.mark.parametrize("name", sorted(PROBES))
def test_each_probe_reaches_its_rule(name):
    """Each probe completes at 3 processes with a 1024-byte threshold
    and shows the verdict its rule decides."""
    traces = enumerate_traces(build_model_cfg(probe_model(name)), 3)
    result = _Scheduler(traces, 1024.0).run()
    assert result.completed, result
    expected_ambiguous = name != "interleaved-unmatched"
    assert result.ambiguous is expected_ambiguous
    unmatched = [(e.pid, e.tag) for e in result.unmatched_sends]
    assert unmatched == {"first-arrival-wins": [(1, 2)],
                         "interleaved-unmatched": [(1, 2), (1, 1), (1, 2)],
                         }.get(name, [])
