"""Per-process control-flow graphs of program points.

The region tree (:mod:`repro.transform.flowgraph`) is the structured
form the backends execute; the analyzer needs the same behavior as a
*graph* it can walk point by point: enumerate communication sites in
program order, follow guarded edges, skip a fork body wholesale.  This
module lowers each diagram's region tree into a :class:`DiagramCFG` —
a list of :class:`ProgramPoint` nodes joined by guarded
:class:`CFGEdge` s — and bundles the per-diagram graphs plus the parsed
model context (variables, functions) into a :class:`ModelCFG`.

Lowering mirrors the backends' semantics precisely because it reads
what they read: an action point takes its kind, code, cost, size, peer,
root and tag from the action's
:class:`~repro.transform.algorithm.ActionSpec` in the shared IR
(``action``/``critical`` become ``work`` points), stereotype-less
actions vanish (they have no spec and no runtime object), structured
nodes (``activity+``/``loop+``/``parallel+``) become call points into
the behavior diagram's own CFG, and branch/cycle points carry their
guard expressions, parsed through the parser's shared memo, in model
order.
"""

from __future__ import annotations

from repro.lang.ast import Assign, Expr, Program, walk_stmts
from repro.lang.parser import parse_expression
from repro.lang.types import Type
from repro.transform.algorithm import ACTION_TABLE, ModelIR, as_ir
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
    ActivityNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model

#: Program-point kinds of communication leaves: every action kind but
#: the two that only compute (``action``/``critical`` lower to ``work``).
COMM_KINDS = frozenset(kind for kind, _, _ in ACTION_TABLE.values()
                       if kind not in ("action", "critical"))

#: Collectives where the root blocks until every rank has arrived.
ROOT_WAITS_ALL = frozenset({"reduce", "gather"})
#: Collectives where non-roots block only until the root has arrived.
WAITS_ROOT_ONLY = frozenset({"bcast", "scatter"})
#: Collectives where every rank blocks until every rank has arrived.
ALL_WAIT_ALL = frozenset({"barrier", "allreduce"})


class CFGEdge:
    """One control-flow edge; ``guard`` is a parsed expression or None."""

    __slots__ = ("target", "guard", "role")

    def __init__(self, target: "ProgramPoint", guard: Expr | None,
                 role: str) -> None:
        self.target = target
        self.guard = guard
        self.role = role

    def __repr__(self) -> str:
        return f"<CFGEdge {self.role} -> #{self.target.index}>"


class ProgramPoint:
    """One executable (or control) site of a diagram CFG."""

    __slots__ = (
        "index", "kind", "node", "diagram", "diagram_id", "element_id",
        "name", "edges", "code", "cost", "size", "peer", "root", "tag",
        "behavior", "iterations", "num_threads", "break_expr",
        "stay_expr", "arm_spans", "join",
    )

    def __init__(self, index: int, kind: str, diagram: str,
                 diagram_id: int | None,
                 node: ActivityNode | None = None) -> None:
        self.index = index
        self.kind = kind
        self.node = node
        self.diagram = diagram
        self.diagram_id = diagram_id
        self.element_id = node.id if node is not None else None
        self.name = node.name if node is not None else kind
        self.edges: list[CFGEdge] = []
        self.code: Program | None = None
        self.cost: Expr | None = None
        self.size: Expr | None = None
        self.peer: Expr | None = None       # send dest / recv source
        self.root: Expr | None = None
        self.tag: int = 0
        self.behavior: str | None = None
        self.iterations: Expr | None = None
        self.num_threads: Expr | None = None
        self.break_expr: Expr | None = None
        self.stay_expr: Expr | None = None
        self.arm_spans: list[tuple[int, int]] = []  # fork arms, by index
        self.join: "ProgramPoint | None" = None

    @property
    def is_comm(self) -> bool:
        return self.kind in COMM_KINDS

    def successor(self) -> "ProgramPoint":
        """The unique fall-through successor (non-control points)."""
        assert len(self.edges) == 1, (self.kind, self.edges)
        return self.edges[0].target

    def edge(self, role: str) -> CFGEdge:
        for edge in self.edges:
            if edge.role == role:
                return edge
        raise KeyError(role)

    def __repr__(self) -> str:
        return (f"<ProgramPoint #{self.index} {self.kind} "
                f"{self.name!r} @{self.diagram}>")


class DiagramCFG:
    """The CFG of one diagram: entry → points → exit."""

    def __init__(self, name: str, diagram_id: int | None) -> None:
        self.name = name
        self.diagram_id = diagram_id
        self.points: list[ProgramPoint] = []
        self.entry: ProgramPoint | None = None
        self.exit: ProgramPoint | None = None

    def new_point(self, kind: str,
                  node: ActivityNode | None = None) -> ProgramPoint:
        point = ProgramPoint(len(self.points), kind, self.name,
                             self.diagram_id, node)
        self.points.append(point)
        return point

    def comm_points(self) -> list[ProgramPoint]:
        return [point for point in self.points if point.is_comm]


class _DiagramSummary:
    """Transitive facts about one diagram (behavior calls followed)."""

    __slots__ = ("has_comm", "has_code", "has_cost")

    def __init__(self) -> None:
        self.has_comm = False
        self.has_code = False
        self.has_cost = False


class ModelCFG:
    """All diagram CFGs of one model plus the shared parsed context."""

    def __init__(self, model: Model | ModelIR) -> None:
        self.ir = as_ir(model)
        self.model = model = self.ir.model
        self.functions = model.function_defs()
        self._summaries: dict[str, _DiagramSummary] = {}
        #: The code fragments the lowering attached to program points.
        self.programs: list[Program] = []

        # Globals then locals, initializers parsed, in declaration order —
        # the exact environment-population order of every backend.
        self.variables: list[tuple[str, Type, Expr | None]] = []
        for variable in (list(model.global_variables())
                         + list(model.local_variables())):
            init = (parse_expression(variable.init)
                    if variable.init is not None else None)
            self.variables.append((variable.name, variable.type, init))
        self.global_names = {v.name for v in model.global_variables()}

        self.diagrams: dict[str, DiagramCFG] = {}
        for diagram in model.diagrams:
            cfg = DiagramCFG(diagram.name, diagram.id)
            _Lowerer(self, cfg).lower(self.ir.regions[diagram.name])
            self.diagrams[diagram.name] = cfg
        self.main = self.diagrams[model.main_diagram_name]

        #: Names assigned anywhere code can run — code fragments of any
        #: stereotyped element or any cost-function body.  Conservative:
        #: an assignment to a shadowing local still counts.
        self.mutated_names: set[str] = set()
        for program in self.programs:
            for stmt in walk_stmts(program.body):
                if isinstance(stmt, Assign):
                    self.mutated_names.add(stmt.name)
        self.functions_mutate_globals = False
        for function in self.functions.values():
            for stmt in walk_stmts(function.body):
                if isinstance(stmt, Assign):
                    self.mutated_names.add(stmt.name)
                    if stmt.name in self.global_names:
                        self.functions_mutate_globals = True

    # -- summaries ----------------------------------------------------------

    def summary(self, diagram: str,
                _stack: frozenset[str] = frozenset()) -> _DiagramSummary:
        cached = self._summaries.get(diagram)
        if cached is not None:
            return cached
        summary = _DiagramSummary()
        if diagram in _stack:  # recursive invocation; facts join below
            return summary
        for point in self.diagrams[diagram].points:
            if point.is_comm:
                summary.has_comm = True
            if point.code is not None:
                summary.has_code = True
            if point.cost is not None:
                summary.has_cost = True
            if point.behavior is not None:
                nested = self.summary(point.behavior, _stack | {diagram})
                summary.has_comm |= nested.has_comm
                summary.has_code |= nested.has_code
                summary.has_cost |= nested.has_cost
        self._summaries[diagram] = summary
        return summary

    def span_summary(self, cfg: DiagramCFG,
                     span: tuple[int, int]) -> _DiagramSummary:
        """Summary of a contiguous point span (a fork arm)."""
        summary = _DiagramSummary()
        for index in range(span[0], span[1]):
            point = cfg.points[index]
            if point.is_comm:
                summary.has_comm = True
            if point.code is not None:
                summary.has_code = True
            if point.cost is not None:
                summary.has_cost = True
            if point.behavior is not None:
                nested = self.summary(point.behavior)
                summary.has_comm |= nested.has_comm
                summary.has_code |= nested.has_code
                summary.has_cost |= nested.has_cost
        return summary


class _Lowerer:
    """Lowers one region tree into a DiagramCFG."""

    def __init__(self, model_cfg: ModelCFG, cfg: DiagramCFG) -> None:
        self.model_cfg = model_cfg
        self.cfg = cfg

    def lower(self, region: Region) -> None:
        entry = self.cfg.new_point("entry")
        self.cfg.entry = entry
        last = self._lower(region, entry, None, "seq")
        exit_point = self.cfg.new_point("exit")
        self._link(last, exit_point, None, "seq")
        self.cfg.exit = exit_point

    @staticmethod
    def _link(source: ProgramPoint, target: ProgramPoint,
              guard: Expr | None, role: str) -> None:
        source.edges.append(CFGEdge(target, guard, role))

    def _lower(self, region: Region, pred: ProgramPoint,
               guard: Expr | None, role: str) -> ProgramPoint:
        """Lower ``region`` after ``pred``; the connecting edge carries
        ``guard``/``role``.  Returns the last point of the lowering (or
        a pass-through point when the region lowers to nothing)."""
        if isinstance(region, SequenceRegion):
            head = self.cfg.new_point("noop")
            self._link(pred, head, guard, role)
            last = head
            for item in region.items:
                last = self._lower(item, last, None, "seq")
            return last
        if isinstance(region, LeafRegion):
            return self._lower_leaf(region.node, pred, guard, role)
        if isinstance(region, BranchRegion):
            return self._lower_branch(region, pred, guard, role)
        if isinstance(region, CycleRegion):
            return self._lower_cycle(region, pred, guard, role)
        if isinstance(region, ForkRegion):
            return self._lower_fork(region, pred, guard, role)
        raise TypeError(f"unknown region {type(region).__name__}")

    # -- leaves -------------------------------------------------------------

    def _lower_leaf(self, node: ActivityNode, pred: ProgramPoint,
                    guard: Expr | None, role: str) -> ProgramPoint:
        if isinstance(node, ActivityInvocationNode):
            point = self.cfg.new_point("call", node)
            point.behavior = node.behavior
        elif isinstance(node, LoopNode):
            point = self.cfg.new_point("loop", node)
            point.behavior = node.behavior
            point.iterations = parse_expression(node.iterations)
        elif isinstance(node, ParallelRegionNode):
            point = self.cfg.new_point("parallel", node)
            point.behavior = node.behavior
            point.num_threads = parse_expression(node.num_threads)
        elif isinstance(node, ActionNode):
            spec = self.model_cfg.ir.actions.get(node.id)
            if spec is None:
                # No runtime class → the node never executes in any
                # backend; it does not exist in the CFG either.
                head = self.cfg.new_point("noop")
                self._link(pred, head, guard, role)
                return head
            point = self.cfg.new_point(
                spec.kind if spec.kind in COMM_KINDS else "work", node)
            if spec.program is not None:
                self.model_cfg.programs.append(spec.program)
            point.code, point.cost, point.size = (spec.program, spec.cost,
                                                  spec.size)
            point.peer, point.root, point.tag = spec.peer, spec.root, spec.tag
        else:
            head = self.cfg.new_point("noop")
            self._link(pred, head, guard, role)
            return head
        self._link(pred, point, guard, role)
        return point

    # -- structured control flow ---------------------------------------------

    def _lower_branch(self, region: BranchRegion, pred: ProgramPoint,
                      guard: Expr | None, role: str) -> ProgramPoint:
        branch = self.cfg.new_point("branch", region.decision)
        self._link(pred, branch, guard, role)
        merge = self.cfg.new_point("merge", region.merge)
        branch.join = merge
        for guard_src, arm in region.arms:
            arm_last = self._lower(arm, branch,
                                   parse_expression(guard_src), "arm")
            self._link(arm_last, merge, None, "seq")
        if region.else_arm is not None:
            else_last = self._lower(region.else_arm, branch, None, "else")
            self._link(else_last, merge, None, "seq")
        else:
            # No guard true and no else: flow continues past the merge.
            self._link(branch, merge, None, "else")
        return merge

    def _lower_cycle(self, region: CycleRegion, pred: ProgramPoint,
                     guard: Expr | None, role: str) -> ProgramPoint:
        head = self.cfg.new_point("cycle_head", region.header)
        self._link(pred, head, guard, role)
        pre_last = self._lower(region.pre, head, None, "seq")
        test = self.cfg.new_point("cycle_test", region.decision)
        self._link(pre_last, test, None, "seq")
        if region.break_condition is not None:
            test.break_expr = parse_expression(region.break_condition)
        if region.negated_stay_guard is not None:
            test.stay_expr = parse_expression(region.negated_stay_guard)
        after = self.cfg.new_point("cycle_exit")
        self._link(test, after, None, "break")
        post_last = self._lower(region.post, test, None, "stay")
        self._link(post_last, head, None, "back")
        return after

    def _lower_fork(self, region: ForkRegion, pred: ProgramPoint,
                    guard: Expr | None, role: str) -> ProgramPoint:
        fork = self.cfg.new_point("fork", region.fork)
        self._link(pred, fork, guard, role)
        join = self.cfg.new_point("join", region.join)
        fork.join = join
        for arm in region.arms:
            start = len(self.cfg.points)
            arm_last = self._lower(arm, fork, None, "fork")
            fork.arm_spans.append((start, len(self.cfg.points)))
            self._link(arm_last, join, None, "seq")
        return join


def build_model_cfg(model: Model | ModelIR) -> ModelCFG:
    """Lower every diagram of ``model`` (or of an already-built IR)
    into its CFG."""
    return ModelCFG(model)


__all__ = [
    "ALL_WAIT_ALL",
    "CFGEdge",
    "COMM_KINDS",
    "DiagramCFG",
    "ModelCFG",
    "ProgramPoint",
    "ROOT_WAITS_ALL",
    "WAITS_ROOT_ONLY",
    "build_model_cfg",
]
