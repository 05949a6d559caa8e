"""Grid-compiled analytic evaluation: compile once, evaluate many.

The analytic backend is the only backend with no event calendar to pay
for, yet it used to re-walk the UML cost recursion — re-parsing every
tag/cost expression, re-resolving every stereotype, re-running flow
analysis — for every single sweep point.  This module splits that work
the way the transformation papers split theirs: *transform per
structural model, evaluate per grid point*.

:class:`AnalyticPlan` is the compiled artifact, built once per model
structure (the sweep engine memoizes it by structural hash):

* every guard, iteration count, tag, cost expression, and code fragment
  is parsed at compile time (through the parser's shared memo);
* every action's :class:`~repro.transform.algorithm.ActionSpec` (its
  kind and parsed expressions, resolved once in the IR) becomes a small
  plan node (work, send/recv, collective) at compile time —
  stereotype-less actions have no spec and vanish from the plan;
* the ``<<loop+>>`` state-free fast-path decision is precomputed per
  behavior;
* a whole-plan name scan decides *rank invariance*: a model that never
  reads ``pid``/``uid`` costs the same on every rank, so one rank is
  evaluated and the rest share the result.

Evaluation replays the plan under a runtime parameterized on
``(SystemParameters, NetworkConfig, variable overrides)``.  Two runtimes
exist behind one walker:

* **scalar** — tight-loop replay of one point (also what
  :class:`repro.estimator.analytic.AnalyticEvaluator` runs, so the
  per-point and grid paths share every arithmetic operation);
* **vector** — the key observation is that the network configuration
  never feeds back into the mini-language environment: guards, loop
  trip counts, code fragments, and message sizes depend only on the
  system parameters and variable overrides, while latency/bandwidth
  only enter the *cost algebra*.  A batch of grid points that share
  ``(params, overrides)`` and differ in network therefore has identical
  control flow, and the plan is replayed **once** with costs carried as
  NumPy arrays over the whole network axis.  Sums, scales, and makespan
  maxima are elementwise IEEE-754 double operations — bit-identical to
  the scalar replay of each point — which is what lets
  :func:`repro.estimator.backends.evaluate_grid` promise byte-identical
  payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as _np

from repro.analysis.facts import rank_dependence
from repro.errors import EstimatorError, TransformError
from repro.lang.ast import (
    Assign,
    Expr,
    Program,
    VarDecl,
    walk_stmts,
)
from repro.lang.evaluator import Environment, Evaluator, declare_intrinsics
from repro.lang.parser import parse_expression, parse_program
from repro.lang.types import Type
from repro.machine.network import (NetworkConfig, effective_parameters,
                                   tree_depth)
from repro.machine.params import SystemParameters
from repro.transform.algorithm import ModelIR, as_ir
from repro.transform.flowgraph import (
    BranchRegion,
    CycleRegion,
    ForkRegion,
    LeafRegion,
    Region,
    SequenceRegion,
)
from repro.uml.activities import (
    ActionNode,
    ActivityInvocationNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model


@dataclass(frozen=True)
class GridPoint:
    """One evaluation point of an analytic grid.

    ``overrides`` re-initialize declared model variables exactly like
    :func:`repro.sweep.grid.apply_overrides` — ``(name, source)`` pairs
    applied at environment setup, without cloning or re-hashing the
    model.  ``seed`` is carried for caller symmetry with
    :class:`~repro.sweep.spec.SweepJob` (the analytic backend ignores
    it; points identical up to the seed share one evaluation).
    """

    params: SystemParameters
    network: NetworkConfig
    overrides: tuple[tuple[str, str], ...] = ()
    seed: int = 0


# -- cost-side runtimes -------------------------------------------------------
#
# The Hockney algebra itself (intra-node discounts, collective tree
# depth) is shared with the simulator via repro.machine.network —
# these runtimes only decide *how many points at once* it is applied to.

class _ScalarNet:
    """Hockney cost algebra of one network configuration."""

    __slots__ = ("latency", "bandwidth", "threshold")

    def __init__(self, config: NetworkConfig, intra: bool) -> None:
        self.latency, self.bandwidth = effective_parameters(config,
                                                            intra)
        self.threshold = config.eager_threshold

    def transfer(self, nbytes: float) -> float:
        if nbytes < 0:
            raise EstimatorError(f"negative message size {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def send_time(self, size: float) -> float:
        # Eager: the sender pays only its software overhead (the payload
        # travels asynchronously); rendezvous: envelope + synchronous
        # payload pull (mirrors repro.workload.mpi.Communicator).
        overhead = self.transfer(0.0)
        if size <= self.threshold:
            return overhead
        return overhead + self.transfer(size)

    def recv_time(self, size: float) -> float:
        overhead = self.transfer(0.0)
        if size <= self.threshold:
            return self.transfer(size)
        return overhead + self.transfer(size)


class _VectorNet:
    """The same algebra over a whole axis of network configurations.

    Every operation is an elementwise float64 op, so element ``i`` of any
    result is bit-identical to the `_ScalarNet` of ``configs[i]``.
    """

    __slots__ = ("latency", "bandwidth", "threshold")

    def __init__(self, configs: Sequence[NetworkConfig],
                 intra: bool) -> None:
        pairs = [effective_parameters(config, intra)
                 for config in configs]
        self.latency = _np.array([lat for lat, _ in pairs], dtype=float)
        self.bandwidth = _np.array([bw for _, bw in pairs], dtype=float)
        self.threshold = _np.array([config.eager_threshold
                                    for config in configs], dtype=float)

    def transfer(self, nbytes: float):
        if nbytes < 0:
            raise EstimatorError(f"negative message size {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def send_time(self, size: float):
        overhead = self.transfer(0.0)
        eager = size <= self.threshold
        if eager.all():
            return overhead
        full = overhead + self.transfer(size)
        return _np.where(eager, overhead, full)

    def recv_time(self, size: float):
        eager = size <= self.threshold
        alone = self.transfer(size)
        if eager.all():
            return alone
        overhead = self.transfer(0.0)
        return _np.where(eager, alone, overhead + alone)


class _Runtime:
    """Everything one plan replay needs besides the environment."""

    __slots__ = ("plan", "net", "vector", "processes", "nodes",
                 "processors_per_node", "threads_per_process",
                 "tree_depth", "fanout")

    def __init__(self, plan: "AnalyticPlan", params: SystemParameters,
                 net, vector: bool) -> None:
        self.plan = plan
        self.net = net
        self.vector = vector
        self.processes = params.processes
        self.nodes = params.nodes
        self.processors_per_node = params.processors_per_node
        self.threads_per_process = params.threads_per_process
        self.tree_depth = tree_depth(params.processes)
        self.fanout = max(params.processes - 1, 0)

    def fold_max(self, times: list, floor):
        """``max(max(times), floor)`` for scalar or array times."""
        if self.vector:
            best = times[0]
            for time in times[1:]:
                best = _np.maximum(best, time)
            return _np.maximum(best, floor)
        return max(max(times), floor)


# -- plan nodes ---------------------------------------------------------------
#
# Each node's cost() returns a (time, work) pair — elapsed seconds and
# processor-seconds — exactly like the `_Cost` recursion this compiles.
# ``time`` may be an ndarray (vector runtime); ``work`` is always a
# scalar, because only action/critical costs count as work and those
# never depend on the network.

class _PZero:
    __slots__ = ()

    def cost(self, rt, evaluator, env):
        return (0.0, 0.0)


_ZERO_NODE = _PZero()


class _PSeq:
    __slots__ = ("items",)

    def __init__(self, items: list) -> None:
        self.items = items

    def cost(self, rt, evaluator, env):
        time = 0.0
        work = 0.0
        for item in self.items:
            item_time, item_work = item.cost(rt, evaluator, env)
            time = time + item_time
            work = work + item_work
        return (time, work)


class _PBranch:
    __slots__ = ("arms", "else_arm")

    def __init__(self, arms: list, else_arm) -> None:
        self.arms = arms          # [(guard Expr, node)]
        self.else_arm = else_arm  # node | None

    def cost(self, rt, evaluator, env):
        for guard, arm in self.arms:
            if evaluator.eval_guard(guard, env):
                return arm.cost(rt, evaluator, env.child())
        if self.else_arm is not None:
            return self.else_arm.cost(rt, evaluator, env.child())
        return (0.0, 0.0)


class _PCycle:
    __slots__ = ("pre", "break_condition", "negated_stay_guard", "post")

    def __init__(self, pre, break_condition, negated_stay_guard,
                 post) -> None:
        self.pre = pre
        self.break_condition = break_condition  # Expr | None
        self.negated_stay_guard = negated_stay_guard
        self.post = post

    def cost(self, rt, evaluator, env):
        time = 0.0
        work = 0.0
        while True:
            pre_time, pre_work = self.pre.cost(rt, evaluator, env)
            time = time + pre_time
            work = work + pre_work
            if self.break_condition is not None:
                done = evaluator.eval_guard(self.break_condition, env)
            else:
                done = not evaluator.eval_guard(self.negated_stay_guard,
                                                env)
            if done:
                return (time, work)
            post_time, post_work = self.post.cost(rt, evaluator, env)
            time = time + post_time
            work = work + post_work


class _PFork:
    __slots__ = ("arms",)

    def __init__(self, arms: list) -> None:
        self.arms = arms

    def cost(self, rt, evaluator, env):
        if not self.arms:
            return (0.0, 0.0)
        costs = [arm.cost(rt, evaluator, env.child())
                 for arm in self.arms]
        work = sum(arm_work for _, arm_work in costs)
        # Arms are concurrent strands sharing the node's processors:
        # makespan bound max(longest arm, total work / processors).
        time = rt.fold_max([arm_time for arm_time, _ in costs],
                           work / rt.processors_per_node)
        return (time, work)


class _PCall:
    """Activity invocation — body linked after all diagrams compile."""

    __slots__ = ("behavior", "body")

    def __init__(self, behavior: str) -> None:
        self.behavior = behavior
        self.body = None

    def cost(self, rt, evaluator, env):
        return self.body.cost(rt, evaluator, env)


class _PLoop:
    __slots__ = ("behavior", "body", "iterations", "state_free")

    def __init__(self, behavior: str, iterations: Expr,
                 state_free: bool) -> None:
        self.behavior = behavior
        self.body = None
        self.iterations = iterations
        self.state_free = state_free

    def cost(self, rt, evaluator, env):
        iterations = int(evaluator.eval_expr(self.iterations, env))
        if iterations <= 0:
            return (0.0, 0.0)
        if self.state_free:
            body_time, body_work = self.body.cost(rt, evaluator, env)
            return (body_time * iterations, body_work * iterations)
        time = 0.0
        work = 0.0
        for _ in range(iterations):
            body_time, body_work = self.body.cost(rt, evaluator, env)
            time = time + body_time
            work = work + body_work
        return (time, work)


class _PParallel:
    __slots__ = ("behavior", "body", "num_threads")

    def __init__(self, behavior: str, num_threads: Expr) -> None:
        self.behavior = behavior
        self.body = None
        self.num_threads = num_threads

    def cost(self, rt, evaluator, env):
        declared = int(evaluator.eval_expr(self.num_threads, env))
        threads = declared if declared > 0 else rt.threads_per_process
        costs = []
        for tid in range(threads):
            thread_env = env.child()
            thread_env.declare("tid", Type.INT, tid)
            costs.append(self.body.cost(rt, evaluator, thread_env))
        work = sum(thread_work for _, thread_work in costs)
        # Makespan lower bound on the node's processors; only
        # processor-seconds contend — threads waiting on communication
        # overlap freely.
        time = rt.fold_max([thread_time for thread_time, _ in costs],
                           work / rt.processors_per_node)
        return (time, work)


class _PWork:
    """An ``<<action+>>``/``<<critical+>>`` leaf: code, then cost."""

    __slots__ = ("program", "cost_expr", "name")

    def __init__(self, program: Program | None, cost_expr: Expr | None,
                 name: str) -> None:
        self.program = program
        self.cost_expr = cost_expr
        self.name = name

    def cost(self, rt, evaluator, env):
        if self.program is not None:
            evaluator.run_program(self.program, env)
        if self.cost_expr is None:
            return (0.0, 0.0)
        value = float(evaluator.eval_expr(self.cost_expr, env))
        if value < 0 or math.isnan(value):
            raise EstimatorError(
                f"cost of {self.name!r} evaluated to {value}")
        return (value, value)


# Communication plan kinds (action kind pre-resolved at compile time).
_K_SEND, _K_RECV, _K_BARRIER, _K_TREE, _K_ALLREDUCE, _K_LINEAR = range(6)

_COMM_KINDS = {
    "send": _K_SEND,
    "recv": _K_RECV,
    "barrier": _K_BARRIER,
    "bcast": _K_TREE,
    "reduce": _K_TREE,
    "allreduce": _K_ALLREDUCE,
    "scatter": _K_LINEAR,
    "gather": _K_LINEAR,
}


class _PComm:
    """A communication leaf: Hockney service demand, no processor held."""

    __slots__ = ("program", "kind", "size")

    def __init__(self, program: Program | None, kind: int,
                 size: Expr | None) -> None:
        self.program = program
        self.kind = kind
        self.size = size

    def cost(self, rt, evaluator, env):
        if self.program is not None:
            evaluator.run_program(self.program, env)
        net = rt.net
        kind = self.kind
        if kind == _K_SEND or kind == _K_RECV:
            size = float(evaluator.eval_expr(self.size, env))
            time = (net.send_time(size) if kind == _K_SEND
                    else net.recv_time(size))
        elif kind == _K_BARRIER:
            time = rt.tree_depth * net.transfer(0.0)
        elif kind == _K_TREE:
            time = rt.tree_depth * net.transfer(
                float(evaluator.eval_expr(self.size, env)))
        elif kind == _K_ALLREDUCE:
            time = 2.0 * rt.tree_depth * net.transfer(
                float(evaluator.eval_expr(self.size, env)))
        else:  # _K_LINEAR — scatter/gather
            time = rt.fanout * net.transfer(
                float(evaluator.eval_expr(self.size, env)))
        return (time, 0.0)  # waits hold no processor


# -- the plan -----------------------------------------------------------------

class AnalyticPlan:
    """The reusable compiled form of one model's cost recursion."""

    def __init__(self, model: Model | ModelIR) -> None:
        self.ir = as_ir(model)
        self.model = model = self.ir.model
        self.functions = model.function_defs()
        self._state_free: dict[str, bool] = {}
        self._links: list = []

        # Globals then locals, in declaration order — exactly the order
        # the environment is populated per process.
        self.variables: list[tuple[str, Type, Expr | None]] = []
        for variable in (list(model.global_variables())
                         + list(model.local_variables())):
            init = (parse_expression(variable.init)
                    if variable.init is not None else None)
            self.variables.append((variable.name, variable.type, init))
        self._variable_names = {name for name, _, _ in self.variables}

        self.regions = {name: self._compile_region(region)
                        for name, region in self.ir.regions.items()}
        for ref in self._links:
            ref.body = self.regions[ref.behavior]
        self.main = self.regions[model.main_diagram_name]

        #: A model that never reads ``pid``/``uid`` in its cost-side
        #: expressions costs the same on every rank, so one rank's
        #: replay serves all of them.  The fact is shared with the
        #: static analyzer (:mod:`repro.analysis.facts`) so the two can
        #: never disagree about what "rank-invariant" means.
        self.rank_invariant = \
            not rank_dependence(self.ir).cost_rank_dependent

    # -- compile-time scans ---------------------------------------------------

    def region_is_state_free(self, region: Region,
                             _seen: frozenset[str] = frozenset()) -> bool:
        """True if no element reachable from ``region`` can mutate model
        state (no code fragments with assignments), so all iterations of
        a loop over it cost the same."""
        for leaf in region.leaves():
            node = leaf.node
            code = getattr(node, "code", None)
            if code is not None:
                program = parse_program(code)
                for stmt in walk_stmts(program.body):
                    if isinstance(stmt, (Assign, VarDecl)):
                        return False
            behavior = getattr(node, "behavior", None)
            if behavior is not None and behavior not in _seen:
                if not self.region_is_state_free(
                        self.ir.regions[behavior], _seen | {behavior}):
                    return False
        return True

    def _behavior_state_free(self, behavior: str) -> bool:
        cached = self._state_free.get(behavior)
        if cached is None:
            cached = self.region_is_state_free(self.ir.regions[behavior])
            self._state_free[behavior] = cached
        return cached

    # -- lowering ------------------------------------------------------------

    def _compile_region(self, region: Region):
        if isinstance(region, SequenceRegion):
            items: list = []
            for item in region.items:
                compiled = self._compile_region(item)
                if compiled is None:
                    continue
                if isinstance(compiled, _PSeq):
                    items.extend(compiled.items)
                else:
                    items.append(compiled)
            return _PSeq(items)
        if isinstance(region, LeafRegion):
            return self._compile_leaf(region.node)
        if isinstance(region, BranchRegion):
            arms = [(parse_expression(guard),
                     self._compile_region(arm) or _ZERO_NODE)
                    for guard, arm in region.arms]
            else_arm = (self._compile_region(region.else_arm) or _ZERO_NODE
                        if region.else_arm is not None else None)
            return _PBranch(arms, else_arm)
        if isinstance(region, CycleRegion):
            return _PCycle(
                self._compile_region(region.pre) or _ZERO_NODE,
                (parse_expression(region.break_condition)
                 if region.break_condition is not None else None),
                (parse_expression(region.negated_stay_guard)
                 if region.negated_stay_guard is not None else None),
                self._compile_region(region.post) or _ZERO_NODE)
        if isinstance(region, ForkRegion):
            return _PFork([self._compile_region(arm) or _ZERO_NODE
                           for arm in region.arms])
        raise TransformError(
            f"analytic evaluator: unknown region "
            f"{type(region).__name__}")

    def _compile_leaf(self, node):
        if isinstance(node, ActivityInvocationNode):
            ref = _PCall(node.behavior)
            self._links.append(ref)
            return ref
        if isinstance(node, LoopNode):
            ref = _PLoop(node.behavior, parse_expression(node.iterations),
                         self._behavior_state_free(node.behavior))
            self._links.append(ref)
            return ref
        if isinstance(node, ParallelRegionNode):
            ref = _PParallel(node.behavior, parse_expression(node.num_threads))
            self._links.append(ref)
            return ref
        if isinstance(node, ActionNode):
            spec = self.ir.actions.get(node.id)
            if spec is None:
                return None
            kind = _COMM_KINDS.get(spec.kind)
            if kind is not None:
                return _PComm(spec.program, kind, spec.size)
            return _PWork(spec.program, spec.cost, node.name)
        raise EstimatorError(
            f"analytic evaluator cannot time {type(node).__name__}")

    # -- evaluation ----------------------------------------------------------

    def _override_map(self, overrides: Sequence[tuple[str, str]]
                      ) -> Mapping[str, Expr]:
        if not overrides:
            return {}
        mapping: dict[str, Expr] = {}
        for name, source in overrides:
            if name not in self._variable_names:
                raise EstimatorError(
                    f"override of undeclared variable {name!r} "
                    f"(model {self.model.name!r})")
            mapping[name] = parse_expression(source)
        return mapping

    def _pid_time(self, rt: _Runtime, pid: int,
                  override_map: Mapping[str, Expr]):
        evaluator = Evaluator(self.functions)
        env = Environment()
        for name, type_, init in self.variables:
            expr = override_map.get(name, init) if override_map else init
            value = (evaluator.eval_expr(expr, env)
                     if expr is not None else None)
            env.declare(name, type_, value)
        # Intrinsics at process scope so cost-function bodies see them
        # (same visibility as the interp/codegen backends).
        declare_intrinsics(env, pid, pid, 0, rt.processes, rt.nodes,
                           rt.threads_per_process)
        time, _work = self.main.cost(rt, evaluator, env.child())
        return time

    def per_process_times(self, params: SystemParameters,
                          network: NetworkConfig,
                          overrides: Sequence[tuple[str, str]] = ()
                          ) -> list[float]:
        """Scalar replay of one point — the per-point evaluation path."""
        rt = _Runtime(self, params,
                      _ScalarNet(network, params.nodes == 1),
                      vector=False)
        override_map = self._override_map(overrides)
        if self.rank_invariant:
            first = self._pid_time(rt, 0, override_map)
            return [first] * params.processes
        return [self._pid_time(rt, pid, override_map)
                for pid in range(params.processes)]

    def makespan(self, params: SystemParameters, network: NetworkConfig,
                 overrides: Sequence[tuple[str, str]] = ()) -> float:
        per_process = self.per_process_times(params, network, overrides)
        return max(per_process) if per_process else 0.0

    def grid_makespans(self, points: Sequence[GridPoint]) -> list[float]:
        """Makespans of every point, in point order.

        Points are grouped by ``(params, overrides)`` — the axes that
        can steer control flow — and each group is replayed once with
        the cost algebra vectorized over its distinct network
        configurations (or per network, scalar, when NumPy is absent or
        the group has a single network).  Seed-only duplicates share one
        evaluation outright.
        """
        results: list[float] = [0.0] * len(points)
        groups: dict[tuple, list[int]] = {}
        for position, point in enumerate(points):
            groups.setdefault((point.params, point.overrides),
                              []).append(position)
        for (params, overrides), members in groups.items():
            override_map = self._override_map(overrides)
            by_network: dict[NetworkConfig, list[int]] = {}
            for position in members:
                by_network.setdefault(points[position].network,
                                      []).append(position)
            networks = list(by_network)
            if len(networks) > 1:
                spans = self._vector_makespans(params, networks,
                                               override_map)
            else:
                spans = [self._scalar_makespan(params, network,
                                               override_map)
                         for network in networks]
            for network, span in zip(networks, spans):
                for position in by_network[network]:
                    results[position] = span
        return results

    def _scalar_makespan(self, params: SystemParameters,
                         network: NetworkConfig,
                         override_map: Mapping[str, Expr]) -> float:
        rt = _Runtime(self, params,
                      _ScalarNet(network, params.nodes == 1),
                      vector=False)
        if self.rank_invariant:
            return self._pid_time(rt, 0, override_map)
        times = [self._pid_time(rt, pid, override_map)
                 for pid in range(params.processes)]
        return max(times) if times else 0.0

    def _vector_makespans(self, params: SystemParameters,
                          networks: Sequence[NetworkConfig],
                          override_map: Mapping[str, Expr]) -> list[float]:
        rt = _Runtime(self, params,
                      _VectorNet(networks, params.nodes == 1),
                      vector=True)
        if self.rank_invariant:
            span = self._pid_time(rt, 0, override_map)
        else:
            times = [self._pid_time(rt, pid, override_map)
                     for pid in range(params.processes)]
            span = times[0]
            for time in times[1:]:
                span = _np.maximum(span, time)
        if _np.ndim(span) == 0:
            # A network-independent model: one scalar serves the axis.
            return [float(span)] * len(networks)
        return [float(value) for value in span]


def compile_plan(model: Model | ModelIR) -> AnalyticPlan:
    """Compile ``model``'s cost recursion into a reusable plan."""
    return AnalyticPlan(model)


__all__ = ["AnalyticPlan", "GridPoint", "compile_plan"]
