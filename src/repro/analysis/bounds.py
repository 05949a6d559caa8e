"""Static cost bounds: interval replay of the analytic cost algebra.

Walks each rank's CFG with the abstract evaluator and accumulates a
``[lower, upper]`` interval on predicted time, mirroring the exact
arithmetic of :class:`repro.estimator.analytic_plan.AnalyticPlan` —
Hockney transfer costs via :func:`repro.machine.network
.effective_parameters`, binomial-tree collectives, fork/parallel
``max(longest arm, work / processors)`` folds.  Where the plan's replay
is fully concrete the interval is degenerate and *equals* the analytic
prediction; every statically unknowable construct (an undecidable
guard, an unbounded cycle) widens rather than guesses, so the invariant

    bounds.lo  <=  analytic per-process time  <=  bounds.hi

holds whenever the analytic backend evaluates without error.  This
module deliberately imports only :mod:`repro.machine` for the cost
formulas — the analysis package must stay importable from the
estimator without a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.cfg import DiagramCFG, ModelCFG, ProgramPoint
from repro.analysis.intervals import (
    AbstractEnv,
    AbstractEvalError,
    AbstractEvaluator,
    Interval,
    is_concrete,
    to_interval,
)
from repro.lang.evaluator import declare_intrinsics
from repro.lang.types import Type
from repro.machine.network import (NetworkConfig, effective_parameters,
                                   tree_depth)
from repro.machine.params import SystemParameters

_INF = float("inf")
_BOUNDS_BUDGET = 200_000  # program points visited per rank


@dataclass(frozen=True)
class ProcessBounds:
    """Per-rank time intervals at one system/network configuration."""

    processes: int
    per_process: tuple[Interval, ...]
    makespan: Interval

    def to_payload(self) -> dict:
        return {
            "processes": self.processes,
            "per_process": [[iv.lo, iv.hi] for iv in self.per_process],
            "makespan": [self.makespan.lo, self.makespan.hi],
        }


class _GiveUp(Exception):
    """Bound computation degraded to the trivial ``[0, inf]``."""


class _Acc:
    """Running (time, work) interval pair — both in seconds."""

    __slots__ = ("tlo", "thi", "wlo", "whi")

    def __init__(self) -> None:
        self.tlo = self.thi = self.wlo = self.whi = 0.0

    def add_time(self, lo: float, hi: float) -> None:
        self.tlo += lo
        self.thi += hi

    def add_work(self, lo: float, hi: float) -> None:
        self.wlo += lo
        self.whi += hi

    def add(self, other: "_Acc") -> None:
        self.add_time(other.tlo, other.thi)
        self.add_work(other.wlo, other.whi)

    def hull(self, other: "_Acc") -> None:
        self.tlo = min(self.tlo, other.tlo)
        self.thi = max(self.thi, other.thi)
        self.wlo = min(self.wlo, other.wlo)
        self.whi = max(self.whi, other.whi)


class _BoundsWalker:
    """Interval replay of one rank at one concrete configuration."""

    def __init__(self, mcfg: ModelCFG, params: SystemParameters,
                 network: NetworkConfig) -> None:
        self.mcfg = mcfg
        self.params = params
        self.latency, self.bandwidth = effective_parameters(
            network, params.nodes == 1)
        self.threshold = network.eager_threshold
        self.tree_depth = tree_depth(params.processes)
        self.fanout = max(params.processes - 1, 0)
        self.evaluator = AbstractEvaluator(mcfg.functions)
        self.ops = 0

    def bound(self, pid: int) -> Interval:
        env = AbstractEnv()
        try:
            for name, type_, init in self.mcfg.variables:
                value = (self.evaluator.eval(init, env)
                         if init is not None else None)
                env.declare(name, type_, value)
            declare_intrinsics(env, pid, pid, 0, self.params.processes,
                               self.params.nodes,
                               self.params.threads_per_process)
            acc = self._diagram(self.mcfg.main, env.child())
        except (_GiveUp, AbstractEvalError):
            return Interval(0.0, _INF)
        lo = max(acc.tlo, 0.0)
        hi = max(acc.thi, acc.tlo, 0.0)
        # The analytic replay may associate the same sums differently
        # (e.g. its state-free loop fast path multiplies once where
        # this walker adds per iteration); a hair of relative slack
        # keeps the containment invariant exact in float terms.
        return Interval(max(lo - lo * 1e-9, 0.0), hi + hi * 1e-9)

    # -- the walk -----------------------------------------------------------

    def _diagram(self, cfg: DiagramCFG, env: AbstractEnv) -> _Acc:
        return self._span(cfg.entry, None, env)

    def _span(self, point: ProgramPoint, stop: ProgramPoint | None,
              env: AbstractEnv) -> _Acc:
        acc = _Acc()
        while point is not stop and point.kind != "exit":
            self.ops += 1
            if self.ops > _BOUNDS_BUDGET:
                raise _GiveUp
            kind = point.kind
            if kind == "work":
                self._work(point, env, acc)
                point = point.successor()
            elif point.is_comm:
                self._comm(point, env, acc)
                point = point.successor()
            elif kind == "branch":
                point = self._branch(point, env, acc)
            elif kind == "cycle_test":
                point = self._cycle_test(point, env, acc)
            elif kind == "call":
                acc.add(self._diagram(
                    self.mcfg.diagrams[point.behavior], env))
                point = point.successor()
            elif kind == "loop":
                self._loop(point, env, acc)
                point = point.successor()
            elif kind == "parallel":
                self._parallel(point, env, acc)
                point = point.successor()
            elif kind == "fork":
                point = self._fork(point, env, acc)
            else:  # entry/noop/merge/cycle_head/cycle_exit/join
                point = point.successor()
        return acc

    # -- leaves -------------------------------------------------------------

    def _value(self, expr, env: AbstractEnv) -> Interval:
        value = self.evaluator.eval(expr, env)
        if is_concrete(value) and isinstance(value, float) \
                and math.isnan(value):
            raise _GiveUp
        return to_interval(value)

    def _work(self, point: ProgramPoint, env: AbstractEnv,
              acc: _Acc) -> None:
        if point.code is not None:
            self.evaluator.run_program(point.code, env)
        if point.cost is None:
            return
        cost = self._value(point.cost, env)
        lo, hi = max(cost.lo, 0.0), max(cost.hi, 0.0)
        acc.add_time(lo, hi)
        acc.add_work(lo, hi)

    def _transfer(self, nbytes: float) -> float:
        return self.latency + max(nbytes, 0.0) / self.bandwidth

    def _comm(self, point: ProgramPoint, env: AbstractEnv,
              acc: _Acc) -> None:
        if point.code is not None:
            self.evaluator.run_program(point.code, env)
        kind = point.kind
        if kind == "barrier":
            cost = self.tree_depth * self._transfer(0.0)
            acc.add_time(cost, cost)
            return
        size = self._value(point.size, env)
        lo, hi = max(size.lo, 0.0), max(size.hi, 0.0)
        if kind == "send":
            acc.add_time(self._send_time(lo, True),
                         self._send_time(hi, hi <= self.threshold))
        elif kind == "recv":
            acc.add_time(self._recv_time(lo, True),
                         self._recv_time(hi, hi <= self.threshold))
        elif kind in ("bcast", "reduce"):
            acc.add_time(self.tree_depth * self._transfer(lo),
                         self.tree_depth * self._transfer(hi))
        elif kind == "allreduce":
            acc.add_time(2.0 * self.tree_depth * self._transfer(lo),
                         2.0 * self.tree_depth * self._transfer(hi))
        else:  # scatter / gather
            acc.add_time(self.fanout * self._transfer(lo),
                         self.fanout * self._transfer(hi))

    def _send_time(self, size: float, eager: bool) -> float:
        overhead = self._transfer(0.0)
        if eager and size <= self.threshold:
            return overhead
        return overhead + self._transfer(size)

    def _recv_time(self, size: float, eager: bool) -> float:
        if eager and size <= self.threshold:
            return self._transfer(size)
        return self._transfer(0.0) + self._transfer(size)

    # -- structured control flow --------------------------------------------

    def _branch(self, point: ProgramPoint, env: AbstractEnv,
                acc: _Acc) -> ProgramPoint:
        merge = point.join
        arm_edges = [edge for edge in point.edges if edge.role == "arm"]
        undecided = None
        chosen = None
        for index, edge in enumerate(arm_edges):
            verdict = self.evaluator.truth(
                self.evaluator.eval(edge.guard, env))
            if verdict is None:
                undecided = index
                break
            if verdict:
                chosen = edge.target
                break
        if undecided is None:
            target = (chosen if chosen is not None
                      else point.edge("else").target)
            acc.add(self._span(target, merge, env.child()))
            return merge
        # Guard not statically decidable: hull every still-possible
        # alternative and join their environments.
        alternatives = ([edge.target for edge in arm_edges[undecided:]]
                        + [point.edge("else").target])
        base = env.snapshot()
        hulled: _Acc | None = None
        outcomes: list[list] = []
        for alternative in alternatives:
            env.restore(base)
            sub = self._span(alternative, merge, env.child())
            outcomes.append(env.snapshot())
            if hulled is None:
                hulled = sub
            else:
                hulled.hull(sub)
        env.restore(outcomes[0])
        for outcome in outcomes[1:]:
            env.join_from(outcome)
        acc.add(hulled)
        return merge

    def _cycle_test(self, point: ProgramPoint, env: AbstractEnv,
                    acc: _Acc) -> ProgramPoint:
        if point.break_expr is not None:
            done = self.evaluator.truth(
                self.evaluator.eval(point.break_expr, env))
        else:
            stay = self.evaluator.truth(
                self.evaluator.eval(point.stay_expr, env))
            done = None if stay is None else not stay
        if done is None:
            # Trip count unknowable: time already accumulated stays as
            # the lower bound; the upper bound is unbounded.
            acc.add_time(0.0, _INF)
            acc.add_work(0.0, _INF)
            self._forget_mutable(env)
            return point.edge("break").target
        role = "break" if done else "stay"
        return point.edge(role).target

    def _loop(self, point: ProgramPoint, env: AbstractEnv,
              acc: _Acc) -> None:
        count = self.evaluator.eval(point.iterations, env)
        body = self.mcfg.diagrams[point.behavior]
        if is_concrete(count):
            for _ in range(int(count)):
                acc.add(self._diagram(body, env))
            return
        acc.add_time(0.0, _INF)
        acc.add_work(0.0, _INF)
        self._forget_mutable(env)

    def _parallel(self, point: ProgramPoint, env: AbstractEnv,
                  acc: _Acc) -> None:
        declared = self.evaluator.eval(point.num_threads, env)
        body = self.mcfg.diagrams[point.behavior]
        if not is_concrete(declared):
            acc.add_time(0.0, _INF)
            acc.add_work(0.0, _INF)
            self._forget_mutable(env)
            return
        threads = (int(declared) if int(declared) > 0
                   else self.params.threads_per_process)
        costs = []
        for tid in range(threads):
            thread_env = env.child()
            thread_env.declare("tid", Type.INT, tid)
            costs.append(self._diagram(body, thread_env))
        self._fold_concurrent(costs, acc)

    def _fork(self, point: ProgramPoint, env: AbstractEnv,
              acc: _Acc) -> ProgramPoint:
        join = point.join
        costs = [self._span(edge.target, join, env.child())
                 for edge in point.edges if edge.role == "fork"]
        self._fold_concurrent(costs, acc)
        return join

    def _fold_concurrent(self, costs: list[_Acc], acc: _Acc) -> None:
        """``max(longest strand, total work / processors)``, both ends."""
        if not costs:
            return
        wlo = sum(cost.wlo for cost in costs)
        whi = sum(cost.whi for cost in costs)
        ppn = self.params.processors_per_node
        acc.add_time(max(max(cost.tlo for cost in costs), wlo / ppn),
                     max(max(cost.thi for cost in costs), whi / ppn))
        acc.add_work(wlo, whi)

    def _forget_mutable(self, env: AbstractEnv) -> None:
        for name in self.mcfg.mutated_names:
            env.widen(name)


def cost_bounds(mcfg: ModelCFG, params: SystemParameters,
                network: NetworkConfig | None = None) -> ProcessBounds:
    """Interval time bounds per rank at ``params`` / ``network``."""
    network = network or NetworkConfig()
    per_process = []
    for pid in range(params.processes):
        walker = _BoundsWalker(mcfg, params, network)
        per_process.append(walker.bound(pid))
    if per_process:
        makespan = Interval(max(iv.lo for iv in per_process),
                            max(iv.hi for iv in per_process))
    else:
        makespan = Interval(0.0, 0.0)
    return ProcessBounds(params.processes, tuple(per_process), makespan)


__all__ = ["ProcessBounds", "cost_bounds"]
