"""The analysis passes, as MCF-configurable rules.

Analysis rules reuse the checker's :class:`~repro.checker.rules.Rule`
base (stable id, default severity, MCF enable/severity overrides) but
live in their own registry: they need a lowered CFG and whole-model
context that the per-diagram checker does not build, and they are run
by :class:`repro.analysis.analyzer.ModelAnalyzer`, not
:class:`repro.checker.ModelChecker`.

==============================  ========  =====================================
rule id                         severity  reports
==============================  ========  =====================================
``analysis-comm-matching``      error     guaranteed deadlocks, out-of-range
                                          ranks (warnings: possible deadlocks,
                                          unmatched sends, collectives not all
                                          ranks reach)
``analysis-guard-satisfiability``  warning  dead branches, always-true guards,
                                          cycles that can never exit
``analysis-rank-dependence``    info      whether cost/communication reads the
                                          rank (publishes the fact the
                                          analytic backend's fast path uses)
``analysis-cost-bounds``        info      interval bounds on predicted time
                                          per process count
==============================  ========  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.bounds import cost_bounds
from repro.analysis.cfg import ModelCFG, ProgramPoint
from repro.analysis.comm import (DEFAULT_ANALYSIS_SIZES, MatchResult,
                                 RankTrace, enumerate_traces, match_traces)
from repro.analysis.facts import rank_dependence
from repro.analysis.intervals import (AbstractEnv, AbstractEvalError,
                                      AbstractEvaluator, Interval)
from repro.checker.diagnostics import Diagnostic, Severity
from repro.checker.rules import Rule
from repro.lang.evaluator import declare_intrinsics
from repro.machine.network import NetworkConfig
from repro.machine.params import SystemParameters
from repro.uml.model import Model


@dataclass
class AnalysisContext:
    """Everything an analysis rule may consult.

    Traces and match results are memoized per process count so the
    rules share one enumeration.
    """

    model: Model
    mcfg: ModelCFG
    sizes: tuple[int, ...]
    params: dict[str, str] = field(default_factory=dict)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    facts: dict = field(default_factory=dict)
    _traces: dict[int, list[RankTrace]] = field(default_factory=dict)
    _matches: dict[int, MatchResult] = field(default_factory=dict)

    def traces(self, size: int) -> list[RankTrace]:
        cached = self._traces.get(size)
        if cached is None:
            cached = enumerate_traces(self.mcfg, size)
            self._traces[size] = cached
        return cached

    def match(self, size: int) -> MatchResult:
        cached = self._matches.get(size)
        if cached is None:
            cached = match_traces(self.traces(size),
                                  self.network.eager_threshold)
            self._matches[size] = cached
        return cached


class AnalysisRule(Rule):
    """Base for whole-model analysis passes."""

    def check(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


#: Registry of analysis rule classes, separate from the checker's.
ANALYSIS_RULES: dict[str, type[AnalysisRule]] = {}


def register_analysis(rule_class: type[AnalysisRule]) -> type[AnalysisRule]:
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in ANALYSIS_RULES:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    ANALYSIS_RULES[rule_class.rule_id] = rule_class
    return rule_class


def analysis_rule_ids() -> list[str]:
    return sorted(ANALYSIS_RULES)


def _site(point: ProgramPoint) -> str:
    return f"{point.kind} {point.name!r}"


@register_analysis
class CommunicationMatchingRule(AnalysisRule):
    """Symbolic send/recv/collective matching across the process axis."""

    rule_id = "analysis-comm-matching"
    default_severity = Severity.ERROR
    description = ("matches send/recv/collective sites across ranks and "
                   "process counts; errors on guaranteed deadlocks and "
                   "out-of-range ranks")

    def check(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        seen: set[tuple] = set()
        comm_facts: dict = {"sizes": {}, "certified_clean_sizes": []}
        for size in ctx.sizes:
            result = ctx.match(size)
            comm_facts["sizes"][str(size)] = {
                "exact": result.exact,
                "completed": result.completed,
                "ambiguous": result.ambiguous,
                "certified_clean": result.certified_clean,
                "blocked": len(result.blocked),
                "unmatched_sends": len(result.unmatched_sends),
                "messages_delivered": result.delivered,
            }
            if result.certified_clean:
                comm_facts["certified_clean_sizes"].append(size)
            yield from self._findings(result, size, seen)
        ctx.facts["comm"] = comm_facts

    def _findings(self, result: MatchResult, size: int,
                  seen: set[tuple]) -> Iterator[Diagnostic]:
        if not result.exact:
            for reason in result.inexact_reasons:
                key = ("inexact", reason)
                if key not in seen:
                    seen.add(key)
                    yield self.diag(
                        f"communication matching is inexact: {reason} "
                        f"(no cross-process claims made)",
                        severity=Severity.INFO)
            return
        for event, message in result.range_errors:
            key = ("range", event.point.element_id, message)
            if key not in seen:
                seen.add(key)
                yield self.diag(
                    f"{message} with {size} process(es), at "
                    f"{_site(event.point)} on rank {event.pid}",
                    element_id=event.point.element_id,
                    diagram=event.point.diagram,
                    diagram_id=event.point.diagram_id)
        stuck = result.blocked and not result.range_errors
        if stuck:
            certainty = ("possible deadlock" if result.ambiguous
                         else "guaranteed deadlock")
            severity = (Severity.WARNING if result.ambiguous else None)
            by_site: dict[int, list] = {}
            for site in result.blocked:
                by_site.setdefault(site.event.point.element_id,
                                   []).append(site)
            for element_id, sites in by_site.items():
                key = ("deadlock", element_id)
                if key in seen:
                    continue
                seen.add(key)
                ranks = ",".join(str(site.pid) for site in sites)
                first = sites[0]
                yield self.diag(
                    f"{certainty} with {size} process(es): rank(s) "
                    f"{ranks} blocked at {_site(first.event.point)} — "
                    f"{first.why}",
                    element_id=element_id,
                    diagram=first.event.point.diagram,
                    diagram_id=first.event.point.diagram_id,
                    severity=severity)
        for event in result.unmatched_sends:
            key = ("unmatched", event.point.element_id)
            if key not in seen:
                seen.add(key)
                yield self.diag(
                    f"message from rank {event.pid} to rank "
                    f"{event.peer} (tag {event.tag}) is never received "
                    f"with {size} process(es), at {_site(event.point)}",
                    element_id=event.point.element_id,
                    diagram=event.point.diagram,
                    diagram_id=event.point.diagram_id,
                    severity=Severity.WARNING)
        for event, missing in result.partial_collectives:
            key = ("partial", event.point.element_id)
            if key not in seen:
                seen.add(key)
                ranks = ",".join(str(pid) for pid in missing)
                yield self.diag(
                    f"{event.kind} at {_site(event.point)} is never "
                    f"reached by rank(s) {ranks} with {size} "
                    f"process(es)",
                    element_id=event.point.element_id,
                    diagram=event.point.diagram,
                    diagram_id=event.point.diagram_id,
                    severity=Severity.WARNING)


@register_analysis
class GuardSatisfiabilityRule(AnalysisRule):
    """Interval propagation over guards: dead branches, stuck cycles."""

    rule_id = "analysis-guard-satisfiability"
    default_severity = Severity.WARNING
    description = ("propagates value intervals through model globals to "
                   "find guards that can never (or always) be true")

    def check(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        evaluator = AbstractEvaluator(ctx.mcfg.functions)
        env = self._env(ctx, evaluator)
        if env is None:
            return
        dead = 0
        for cfg in ctx.mcfg.diagrams.values():
            for point in cfg.points:
                if point.kind == "branch":
                    for finding in self._branch(point, evaluator, env):
                        dead += 1
                        yield finding
                elif point.kind == "cycle_test":
                    for finding in self._cycle(point, evaluator, env):
                        dead += 1
                        yield finding
        ctx.facts["guards"] = {"findings": dead}

    def _env(self, ctx: AnalysisContext,
             evaluator: AbstractEvaluator) -> AbstractEnv | None:
        env = AbstractEnv()
        try:
            for name, type_, init in ctx.mcfg.variables:
                value = (evaluator.eval(init, env)
                         if init is not None else None)
                env.declare(name, type_, value)
            unbounded = Interval(0.0, float("inf"))
            positive = Interval(1.0, float("inf"))
            declare_intrinsics(env, unbounded, unbounded, unbounded,
                               positive, positive, positive)
        except AbstractEvalError:
            return None
        # Anything a code fragment or function can assign is unknown at
        # an arbitrary program point.
        for name in ctx.mcfg.mutated_names:
            env.widen(name)
        return env

    def _verdict(self, expr, evaluator: AbstractEvaluator,
                 env: AbstractEnv) -> bool | None:
        try:
            return evaluator.truth(evaluator.eval(expr, env))
        except AbstractEvalError:
            return None

    def _branch(self, point: ProgramPoint, evaluator: AbstractEvaluator,
                env: AbstractEnv) -> Iterator[Diagnostic]:
        arm_edges = [edge for edge in point.edges if edge.role == "arm"]
        for index, edge in enumerate(arm_edges):
            verdict = self._verdict(edge.guard, evaluator, env)
            if verdict is False:
                yield self.diag(
                    "guard can never be true; this branch arm is dead",
                    element_id=point.element_id, diagram=point.diagram,
                    diagram_id=point.diagram_id)
            elif verdict is True and index < len(arm_edges) - 1:
                yield self.diag(
                    "guard is always true; later arms of this decision "
                    "are unreachable",
                    element_id=point.element_id, diagram=point.diagram,
                    diagram_id=point.diagram_id)
            if verdict is True:
                break

    def _cycle(self, point: ProgramPoint, evaluator: AbstractEvaluator,
               env: AbstractEnv) -> Iterator[Diagnostic]:
        if point.break_expr is not None:
            verdict = self._verdict(point.break_expr, evaluator, env)
            if verdict is False:
                yield self.diag(
                    "cycle break condition can never be true; the "
                    "cycle never exits",
                    element_id=point.element_id, diagram=point.diagram,
                    diagram_id=point.diagram_id)
        elif point.stay_expr is not None:
            verdict = self._verdict(point.stay_expr, evaluator, env)
            if verdict is True:
                yield self.diag(
                    "cycle stay guard is always true; the cycle never "
                    "exits",
                    element_id=point.element_id, diagram=point.diagram,
                    diagram_id=point.diagram_id)


@register_analysis
class RankDependenceRule(AnalysisRule):
    """Publishes the rank-dependence fact the analytic backend shares."""

    rule_id = "analysis-rank-dependence"
    default_severity = Severity.INFO
    description = ("classifies whether cost or communication structure "
                   "depends on the executing rank")

    def check(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        fact = rank_dependence(ctx.mcfg.ir)
        ctx.facts["rank_dependence"] = fact.to_payload()
        if fact.cost_rank_dependent:
            names = ",".join(sorted(fact.cost_names
                                    & {"pid", "uid"}))
            yield self.diag(
                f"cost is rank-dependent (reads {names}); per-rank "
                "times may differ")
        elif fact.rank_dependent:
            yield self.diag(
                "communication structure is rank-dependent but cost is "
                "not; one rank's time serves all ranks")


@register_analysis
class CostBoundsRule(AnalysisRule):
    """Interval lower/upper bounds on predicted time per process."""

    rule_id = "analysis-cost-bounds"
    default_severity = Severity.INFO
    description = ("derives static interval bounds on predicted time "
                   "per process count")

    def check(self, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        bounds_facts = {}
        last = None
        for size in ctx.sizes:
            params = SystemParameters(processes=size)
            bounds = cost_bounds(ctx.mcfg, params, ctx.network)
            bounds_facts[str(size)] = bounds.to_payload()
            last = (size, bounds)
        ctx.facts["cost_bounds"] = bounds_facts
        if last is not None:
            size, bounds = last
            lo, hi = bounds.makespan.lo, bounds.makespan.hi
            if hi == float("inf"):
                yield self.diag(
                    f"predicted time with {size} process(es) is at "
                    f"least {lo:.6g}s and not statically bounded above")
            else:
                yield self.diag(
                    f"predicted time with {size} process(es) is within "
                    f"[{lo:.6g}s, {hi:.6g}s]")


__all__ = [
    "ANALYSIS_RULES",
    "AnalysisContext",
    "AnalysisRule",
    "CommunicationMatchingRule",
    "CostBoundsRule",
    "DEFAULT_ANALYSIS_SIZES",
    "GuardSatisfiabilityRule",
    "RankDependenceRule",
    "analysis_rule_ids",
    "register_analysis",
]
