"""Dataflow facts derived by whole-model name scans.

The central fact is **rank dependence**: whether a model's *cost* can
differ between ranks.  The analytic backend replays one rank and shares
the result across all of them whenever the answer is no, so the scan
must cover exactly the expressions that backend evaluates — variable
initializers, cost-function bodies, branch guards, cycle guards, loop
trip counts, thread counts, message sizes, cost invocations, and code
fragments of stereotyped elements.  Peer expressions (``dest``,
``source``, ``root``) are *not* part of the cost scan: no backend's
cost algebra reads them — they are tracked separately because the
communication structure they steer is rank-dependent in almost every
real MPI model.

:class:`RankDependenceFact` is published in the analysis report and is
also what :class:`repro.estimator.analytic_plan.AnalyticPlan` consults
for its rank-invariance fast path (this module replaces the plan's
private name scan).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import (Call, Expr, Name, stmt_expressions, walk_expr,
                            walk_stmts)
from repro.lang.parser import parse_expression
from repro.transform.algorithm import ActionSpec, ModelIR, as_ir
from repro.uml.activities import (
    ActionNode,
    DecisionNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model

#: Intrinsics that identify the executing rank.
RANK_NAMES = frozenset({"pid", "uid"})


@dataclass(frozen=True)
class RankDependenceFact:
    """Which names the model reads, split by what they steer."""

    cost_names: frozenset[str]
    peer_names: frozenset[str]

    @property
    def cost_rank_dependent(self) -> bool:
        """Can predicted per-rank times differ?  (What the analytic
        backend's one-rank fast path must respect.)"""
        return bool(self.cost_names & RANK_NAMES)

    @property
    def rank_dependent(self) -> bool:
        """Does *any* behavior — cost or communication structure —
        read the rank?"""
        return bool((self.cost_names | self.peer_names) & RANK_NAMES)

    def to_payload(self) -> dict:
        return {
            "cost_names": sorted(self.cost_names),
            "peer_names": sorted(self.peer_names),
            "cost_rank_dependent": self.cost_rank_dependent,
            "rank_dependent": self.rank_dependent,
        }


class _Scan:
    def __init__(self) -> None:
        self.names: set[str] = set()
        self.peer_names: set[str] = set()

    def note(self, expr: Expr | None, into: set[str] | None = None) -> None:
        if expr is None:
            return
        bucket = self.names if into is None else into
        for sub in walk_expr(expr):
            if isinstance(sub, Name):
                bucket.add(sub.ident)
            elif isinstance(sub, Call):
                bucket.add(sub.func)

    def note_stmts(self, stmts) -> None:
        for stmt in walk_stmts(stmts):
            for expr in stmt_expressions(stmt):
                self.note(expr)


def rank_dependence(model: Model | ModelIR) -> RankDependenceFact:
    """Scan ``model`` (or an already-built IR, whose resolved actions it
    reads) for the names its evaluation can read."""
    ir = as_ir(model)
    model = ir.model
    scan = _Scan()
    for variable in (list(model.global_variables())
                     + list(model.local_variables())):
        if variable.init is not None:
            scan.note(parse_expression(variable.init))
    for function in model.function_defs().values():
        scan.note_stmts(function.body)
    for diagram in model.diagrams:
        for node in diagram.nodes:
            if isinstance(node, DecisionNode):
                for edge in node.outgoing:
                    if edge.guard not in (None, "else"):
                        scan.note(parse_expression(edge.guard))
            elif isinstance(node, LoopNode):
                scan.note(parse_expression(node.iterations))
            elif isinstance(node, ParallelRegionNode):
                scan.note(parse_expression(node.num_threads))
            elif isinstance(node, ActionNode):
                spec = ir.actions.get(node.id)
                # A stereotype-less action has no spec and no runtime
                # object; its annotations never evaluate in any backend.
                if spec is not None:
                    _scan_action(scan, spec)
    return RankDependenceFact(frozenset(scan.names),
                              frozenset(scan.peer_names))


def _scan_action(scan: _Scan, spec: ActionSpec) -> None:
    if spec.program is not None:
        scan.note_stmts(spec.program.body)
    scan.note(spec.cost)
    scan.note(spec.size)
    scan.note(spec.peer, into=scan.peer_names)
    scan.note(spec.root, into=scan.peer_names)


__all__ = ["RANK_NAMES", "RankDependenceFact", "rank_dependence"]
