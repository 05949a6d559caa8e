"""Pool dispatch: a sliding window of per-job futures with deadlines,
retries and quarantine.

Every job that reaches a worker pool, fresh or persistent, goes through
:class:`ResilientDispatcher`.  Its one loop keeps two futures per worker
in flight (one running, one queued behind it) and refills on every
completion, so a healthy sweep pays neither a wave barrier nor a
round-trip gap between jobs.

* **Deadlines** — a job's clock starts when a worker is free for it.
  The pool's call queue is first in, first out, so the first
  ``workers`` unfinished futures in submission order are the running
  ones.  An expired job is finalized as ``{"status": "timeout"}`` and
  the pool is recycled (its workers terminated — the only way to stop a
  hung ``fork`` child); innocent in-flight jobs re-enter the queue with
  no retry penalty.  Timeouts are terminal: retrying a hang just
  doubles the wall time the deadline was bought to bound.
* **Retries** — a transient failure (an injected
  :class:`~repro.faults.TransientFault`, worker ``MemoryError``) is
  re-dispatched up to ``max_retries`` times with capped exponential
  backoff + deterministic jitter (:class:`RetryPolicy`).
* **Quarantine** — when the pool breaks (``BrokenProcessPool``), every
  unresolved in-flight job is a *suspect*.  The suspects re-run as one
  isolated group; a group that breaks again splits in halves, and a job
  that breaks the pool alone ``max_pool_breaks`` times is finalized as
  ``{"status": "quarantined"}``.
* **Lazy model fetch** — a ``need_model`` answer re-sends the job once,
  with its XML attached.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import itertools
import math
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.errors import ProphetError
from repro.sweep.spec import SweepJob


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures and pool breaks are retried."""

    max_retries: int = 0          # re-dispatches after a transient failure
    base_delay_s: float = 0.05    # first backoff step
    max_delay_s: float = 2.0      # backoff cap
    jitter: float = 0.25          # +0..25% deterministic jitter
    seed: int = 0                 # jitter RNG seed (reproducible delays)
    max_pool_breaks: int = 2      # lone pool breaks before quarantine

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ProphetError(
                f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ProphetError("retry delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ProphetError(
                f"retry jitter must be in [0, 1], got {self.jitter!r}")
        if self.max_pool_breaks < 1:
            raise ProphetError(
                f"max_pool_breaks must be >= 1, got "
                f"{self.max_pool_breaks!r}")

    def backoff_s(self, retry: int, rng: random.Random,
                  floor_s: float | None = None) -> float:
        """Delay before retry number ``retry`` (1-based), jittered.

        ``floor_s`` is a server-supplied minimum (an HTTP
        ``Retry-After`` hint): it floors the pre-jitter delay, so a
        polite hint is honoured exactly even early in the backoff
        ladder.  The service client and the shard router share this
        one policy object — there is exactly one backoff law in the
        system.
        """
        base = min(self.max_delay_s,
                   self.base_delay_s * (2 ** max(0, retry - 1)))
        if floor_s is not None:
            base = max(base, floor_s)
        return base * (1.0 + self.jitter * rng.random())


def terminate_pool_workers(pool) -> None:
    """Kill a pool's worker processes and discard the executor.

    ``concurrent.futures`` has no public API to stop a hung worker —
    ``shutdown`` waits for it politely, forever.  Terminating the
    worker processes is the only lever that actually interrupts a
    stuck ``fork`` child; the executor is then shut down without
    waiting (its management thread reaps the corpses).
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — already dead is fine
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 — a broken pool may refuse politely
        pass


#: Futures in flight per worker: one running and one queued behind it,
#: so a worker starts its next job without waiting a round trip for the
#: parent to refill.  A three-deep window measured no better than two.
WINDOW_PER_WORKER = 2


class _JobState:
    """Mutable dispatch bookkeeping for one job; ``group`` is the
    suspect-group tag (its members, compared by identity) or ``None``."""

    __slots__ = ("job", "light", "with_xml", "retries", "pool_breaks",
                 "deadline", "last_error", "group")

    def __init__(self, job: SweepJob) -> None:
        self.job = job
        self.light = dataclasses.replace(job, model_xml="")
        self.with_xml = not job.model_xml  # nothing to strip → as-is
        self.retries = 0
        self.pool_breaks = 0
        self.deadline = math.inf
        self.last_error = ""
        self.group: tuple[_JobState, ...] | None = None

    @property
    def index(self) -> int:
        return self.job.index

    @property
    def attempts(self) -> int:
        return self.retries + 1

    def payload(self) -> SweepJob:
        return self.job if self.with_xml else self.light


def _timeouts_total():
    return obs.counter(
        "sweep_job_timeouts_total",
        "Jobs finalized as timeouts after exceeding their deadline.")


def _retries_total():
    return obs.counter(
        "sweep_job_retries_total",
        "Job re-dispatches after transient failures or pool breaks.")


def _quarantined_total():
    return obs.counter(
        "sweep_jobs_quarantined_total",
        "Poison jobs bisected out after repeatedly breaking the pool.")


def _recycles_total():
    return obs.counter(
        "sweep_pool_recycles_total",
        "Worker pools killed and replaced (deadline kills and "
        "broken-pool replacements).")


class ResilientDispatcher:
    """Sliding-window per-job dispatch with deadlines/retries/quarantine.

    ``acquire`` returns a ready executor pool; ``recycle(pool)``
    irrevocably disposes of one (terminate workers + discard) — the
    dispatcher re-acquires lazily.  ``execute`` is the picklable
    worker entry point (``job -> outcome dict``).
    """

    def __init__(self, *, acquire: Callable[[], object],
                 recycle: Callable[[object], None],
                 execute: Callable,
                 workers: int,
                 job_timeout: float | None = None,
                 policy: RetryPolicy | None = None,
                 on_outcome: Callable[[SweepJob, dict], None]
                 | None = None) -> None:
        self._acquire = acquire
        self._recycle_pool = recycle
        self._execute = execute
        self.workers = max(1, workers)
        self.job_timeout = job_timeout
        self.policy = policy or RetryPolicy()
        self._on_outcome = on_outcome
        self._rng = random.Random(self.policy.seed)
        self._pool = None
        self._outcomes: dict[int, dict] = {}

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._acquire()
        return self._pool

    def _recycle(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            self._recycle_pool(pool)
            _recycles_total().inc()

    def release(self):
        """Detach and return the live pool, if any (the caller owns
        its shutdown — persistent pools outlive the dispatch)."""
        pool, self._pool = self._pool, None
        return pool

    # -- terminal verdicts ----------------------------------------------------

    def _finalize(self, state: _JobState, outcome: dict) -> None:
        outcome.setdefault("attempts", state.attempts)
        self._outcomes[state.index] = outcome
        if self._on_outcome is not None:
            self._on_outcome(state.job, outcome)

    # -- the dispatch loop ----------------------------------------------------

    def run(self, jobs: Sequence[SweepJob]) -> list[dict]:
        """Dispatch ``jobs``; returns outcomes in the order given.

        Never raises for per-job failures: every job ends as ``ok``,
        ``error``, ``timeout``, or ``quarantined``.
        """
        states = [_JobState(job) for job in jobs]
        self._outcomes = {}
        ready: collections.deque[_JobState] = collections.deque(states)
        delayed: list[tuple[float, _JobState]] = []
        # Insertion order is submission order, which the pool's FIFO
        # call queue keeps: the first ``workers`` entries are running
        # and the rest are queued behind them.
        inflight: dict[concurrent.futures.Future, _JobState] = {}
        while ready or delayed or inflight:
            if delayed:
                now = time.monotonic()
                ready.extend(s for at, s in delayed if at <= now)
                delayed = [(at, s) for at, s in delayed if at > now]
            self._refill(ready, inflight)
            if not inflight:  # ready is drained: wait for a retry
                time.sleep(self._wait_s(inflight, delayed) or 0.0)
                continue
            self._start_clocks(inflight)
            done, _ = concurrent.futures.wait(
                inflight, timeout=self._wait_s(inflight, delayed),
                return_when=concurrent.futures.FIRST_COMPLETED)
            suspects: list[_JobState] = []
            for future in [f for f in inflight if f in done]:
                state = inflight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    suspects.append(state)
                except Exception as exc:  # noqa: BLE001 — e.g. pickling
                    self._finalize(state, {
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}"})
                else:
                    self._settle(state, outcome, ready, delayed)
            if suspects:
                # The executor fails every remaining future once it is
                # broken; fold them in now instead of waiting them out.
                suspects.extend(inflight.values())
                inflight.clear()
                self._recycle()
                self._after_break(sorted(suspects, key=lambda s: s.index),
                                  ready, delayed)
            else:
                self._expire(inflight, ready)
        return [self._outcomes[state.index] for state in states]

    def _refill(self, ready: collections.deque, inflight: dict) -> None:
        """Top the window up from the head of ``ready``.  Everything in
        flight shares one suspect-group tag, so a suspect group runs
        with nothing beside it."""
        while ready and len(inflight) < WINDOW_PER_WORKER * self.workers:
            state = ready[0]
            if inflight and \
                    state.group is not next(iter(inflight.values())).group:
                return
            future = self._submit(state, may_recycle=not inflight)
            if future is None and inflight:
                return  # the futures in flight will show the break
            ready.popleft()
            if future is None:
                self._finalize(state, self._execute(state.job))
            else:
                state.deadline = math.inf
                inflight[future] = state

    def _submit(self, state: _JobState, may_recycle: bool):
        """Submit one job; ``None`` if the pool refused it (broken or
        shut down).  With ``may_recycle`` a refusal recycles and
        re-acquires once; if even the fresh pool refuses, the caller
        runs the job in-process (guaranteed progress — injection is not
        armed in the parent, so this cannot kill the sweep)."""
        for _ in range(2 if may_recycle else 1):
            pool = self._ensure_pool()
            try:
                return pool.submit(self._execute, state.payload())
            except Exception:  # noqa: BLE001 — broken/shut-down pool
                if may_recycle:
                    self._recycle()
        return None

    def _start_clocks(self, inflight: dict) -> None:
        """Start the deadline of each job a worker is free for: the
        first ``workers`` in flight (FIFO), so every observed completion
        starts the clock of the head of the queued jobs."""
        if self.job_timeout is None:
            return
        now = time.monotonic()
        for state in itertools.islice(inflight.values(), self.workers):
            if state.deadline == math.inf:
                state.deadline = now + self.job_timeout

    def _wait_s(self, inflight: dict,
                delayed: list[tuple[float, _JobState]]) -> float | None:
        """Seconds to the nearest deadline or due retry (``None``: none)."""
        wake = min([*(s.deadline for s in inflight.values()),
                    *(at for at, _ in delayed)], default=math.inf)
        return (None if wake == math.inf
                else max(0.0, wake - time.monotonic()))

    def _expire(self, inflight: dict, ready: collections.deque) -> None:
        """Time out every running job past its deadline."""
        now = time.monotonic()
        expired = [f for f, s in inflight.items() if s.deadline <= now]
        if not expired:
            return
        for future in expired:
            state = inflight.pop(future)
            _timeouts_total().inc()
            self._finalize(state, {
                "status": "timeout",
                "error": (f"TimeoutError: job exceeded its "
                          f"{self.job_timeout:g}s deadline "
                          f"(attempt {state.attempts})")})
        # The hung worker only stops if the pool dies with it; innocents
        # in flight rejoin the queue front with no retry penalty.
        ready.extendleft(reversed(list(inflight.values())))
        inflight.clear()
        self._recycle()

    def _settle(self, state: _JobState, outcome: dict,
                ready: collections.deque,
                delayed: list[tuple[float, _JobState]]) -> None:
        status = outcome.get("status")
        if status == "need_model" and not state.with_xml:
            # Persistent-pool lazy fetch: not a failure, re-send with
            # the XML attached (no retry penalty).  A job that already
            # went with its XML, or has none, ends with the miss.
            obs.counter(
                "sweep_pool_need_model_total",
                "Jobs re-sent with XML after a worker lazy-fetch "
                "miss.").inc()
            state.with_xml = True
            ready.appendleft(state)
            return
        if status == "transient":
            state.last_error = outcome.get("error", "transient failure")
            if state.retries >= self.policy.max_retries:
                self._finalize(state, {
                    "status": "error",
                    "error": (f"{state.last_error} (gave up after "
                              f"{state.attempts} attempt(s))")})
                return
            state.retries += 1
            _retries_total().inc()
            delayed.append((time.monotonic()
                            + self.policy.backoff_s(state.retries,
                                                    self._rng), state))
            return
        self._finalize(state, outcome)

    def _after_break(self, suspects: list[_JobState],
                     ready: collections.deque,
                     delayed: list[tuple[float, _JobState]]) -> None:
        """Isolate the unresolved jobs of an in-flight set that broke the
        pool: ordinary jobs re-run as one suspect group, a group splits
        in halves, and a job alone in its group counts a pool break."""
        group = suspects[0].group
        if group is not None and len(group) == 1:
            state = group[0]
            state.pool_breaks += 1
            if state.pool_breaks >= self.policy.max_pool_breaks:
                _quarantined_total().inc()
                self._finalize(state, {
                    "status": "quarantined",
                    "error": (f"BrokenProcessPool: job killed its "
                              f"worker {state.pool_breaks} time(s) "
                              "in isolation and was quarantined")})
                return
            state.retries += 1
            _retries_total().inc()
            delayed.append((time.monotonic()
                            + self.policy.backoff_s(state.pool_breaks,
                                                    self._rng), state))
            return
        if group is None:
            halves = [suspects]
        else:
            mid = (len(suspects) + 1) // 2
            halves = [suspects[:mid], suspects[mid:]]
        for half in reversed(halves):
            if half:
                tag = tuple(half)
                for state in half:
                    state.group = tag
                ready.extendleft(reversed(half))


__all__ = ["ResilientDispatcher", "RetryPolicy",
           "terminate_pool_workers"]
