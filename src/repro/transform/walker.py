"""One walk over the region trees, shared by the three text emitters.

The paper's Fig. 6 splits the transformation into one traverser and one
content handler per target.  :class:`RegionWalker` is the traverser of
the C++ emitter, the Python emitter and the program skeleton: it owns
the dispatch over region and leaf kinds, the stack of inlined diagrams
(a recursive invocation is an error), the branch and drawn-loop shapes,
and every name the generated code numbers (loop indices, Python helpers,
C++ region objects), each taken fresh from its copy of
:attr:`ModelIR.names`, so none can shadow a model name.  A target writes
only its own statements; the Python module and the skeleton share one
dialect, :class:`PyRegionWalker`.
"""

from __future__ import annotations

from repro.errors import TransformError, UnsupportedElementError
from repro.lang.ast import Expr
from repro.lang.parser import parse_expression
from repro.lang.pygen import emit_stmt, expr_to_py, py_comment
from repro.lang.types import default_value
from repro.transform.algorithm import ActionSpec, ModelIR, claim_name
from repro.transform.flowgraph import (BranchRegion, CycleRegion, ForkRegion,
                                       LeafRegion, Region, SequenceRegion)
from repro.uml.activities import (ActionNode, ActivityInvocationNode,
                                  ActivityNode, LoopNode, ParallelRegionNode)
from repro.util.textwriter import CodeWriter


class RegionWalker:
    """Walks a :class:`ModelIR`'s regions into one :class:`CodeWriter`.

    A target defines :meth:`render` (an expression), :meth:`string` (a
    string argument), :meth:`break_if`, and the statements of
    :meth:`action`, :meth:`activity`, :meth:`loop`, :meth:`parallel` and
    :meth:`fork`; :meth:`elided` writes nothing unless it overrides it.
    """

    #: A branch's first and later guarded arm (``{}``: the guard), its
    #: else arm, and the line closing a statement (None: a suite ends with
    #: its indentation); a drawn loop's head and a negated guard.
    IF: str
    ELIF: str
    ELSE: str
    END: str | None
    WHILE: str
    NOT: str
    #: Whether an else arm without statements is left out.
    SKIP_EMPTY_ELSE = False

    def __init__(self, ir: ModelIR) -> None:
        self.ir = ir
        self.w = CodeWriter()
        self.names = set(ir.names)
        self._numbers: dict[str, int] = {}
        self._inlined: list[str] = []

    def fresh(self, template: str, family: str | None = None) -> str:
        """The next ``template.format(n)`` no name of the generated code
        takes; ``family`` (default: ``template``) owns the count ``n``."""
        family = family or template
        n = self._numbers.get(family, 0) + 1
        while template.format(n) in self.names:
            n += 1
        self._numbers[family] = n
        return self.claim(template.format(n))

    def claim(self, name: str) -> str:
        """``name``, or the first ``name_<n>`` no other name takes."""
        return claim_name(name, self.names)

    def expr(self, source: str) -> str:
        return self.render(parse_expression(source))

    def arg(self, arg) -> str:
        """One ``execute()`` argument: an expression, a tag number, an
        ``op``/``lock`` string, or None for a missing cost."""
        if arg is None:
            return "0.0"
        if isinstance(arg, int):
            return str(arg)
        if isinstance(arg, str):
            return self.string(arg)
        return self.render(arg)

    def walk(self, region: Region) -> None:
        if isinstance(region, SequenceRegion):
            self.sequence(region)
        elif isinstance(region, LeafRegion):
            self.leaf(region.node)
        elif isinstance(region, BranchRegion):
            self.branch(region)
        elif isinstance(region, ForkRegion):
            self.fork(region)
        elif isinstance(region, CycleRegion):
            self.cycle(region)
        else:  # pragma: no cover - defensive
            raise TransformError(
                f"unknown region type {type(region).__name__}")

    def sequence(self, region: SequenceRegion) -> None:
        for item in region.items:
            self.walk(item)

    def leaf(self, node: ActivityNode) -> None:
        if isinstance(node, ActivityInvocationNode):
            self.activity(node)
        elif isinstance(node, LoopNode):
            self.loop(node)
        elif isinstance(node, ParallelRegionNode):
            self.parallel(node)
        elif isinstance(node, ActionNode):
            spec = self.ir.actions.get(node.id)
            if spec is None:
                self.elided(node)
            else:
                self.action(spec)
        else:
            raise UnsupportedElementError(
                f"no code mapping for node class {type(node).__name__} "
                f"({node.name!r})")

    def inline(self, node: ActivityInvocationNode | LoopNode
               | ParallelRegionNode) -> None:
        """Walk the diagram ``node`` invokes, in place."""
        if node.behavior in self._inlined:
            raise TransformError(
                f"recursive diagram invocation of {node.behavior!r} via "
                f"{node.name!r}")
        self._inlined.append(node.behavior)
        try:
            self.walk(self.ir.regions[node.behavior])
        finally:
            self._inlined.pop()

    def elided(self, node: ActionNode) -> None:
        """An action without a performance stereotype, which no backend
        runs."""

    def branch(self, region: BranchRegion) -> None:
        for i, (guard, arm) in enumerate(region.arms):
            with self.w.block((self.ELIF if i else self.IF)
                              .format(self.expr(guard))):
                self.walk(arm)
        else_arm = region.else_arm
        if else_arm is not None and not (self.SKIP_EMPTY_ELSE
                                         and _empty(else_arm)):
            with self.w.block(self.ELSE):
                self.walk(else_arm)
        if self.END is not None:
            self.w.writeln(self.END)

    def cycle(self, region: CycleRegion) -> None:
        """``while (true) { pre; if (exit) break; post }``."""
        with self.w.block(self.WHILE, self.END):
            self.walk(region.pre)
            if region.break_condition is not None:
                condition = self.expr(region.break_condition)
            else:
                condition = self.NOT.format(
                    self.expr(region.negated_stay_guard))
            self.break_if(condition)
            self.walk(region.post)


class PyRegionWalker(RegionWalker):
    """The Python dialect of the Python module and the skeleton: suites,
    ``pass`` for a block without statements, ``for _iN in
    range(int(...))``, and ``if <cond>: break``."""

    IF, ELIF, ELSE, END = "if {}:", "elif {}:", "else:", None
    WHILE, NOT = "while True:", "not ({})"
    #: Prefix of every name outside :attr:`scope`.
    PREFIX = ""
    string = staticmethod(repr)

    def __init__(self, ir: ModelIR) -> None:
        super().__init__(ir)
        #: Names written bare; a code fragment adds those it declares.
        self.scope: set[str] = set()

    def render(self, expr: Expr) -> str:
        return expr_to_py(expr, name_prefix=self.PREFIX, bare=self.scope)

    def initial(self, variable) -> str:
        """A model variable's initial value."""
        if variable.init is not None:
            return self.expr(variable.init)
        return repr(default_value(variable.type))

    def fragment(self, spec: ActionSpec) -> None:
        """The action's code fragment, if it has one."""
        if spec.program is not None:
            self.w.writeln(
                f"# code associated with {py_comment(spec.node.name)}")
            for stmt in spec.program:
                emit_stmt(self.w, stmt, name_prefix=self.PREFIX,
                          declared_locals=self.scope)

    def sequence(self, region: SequenceRegion) -> None:
        if all(map(self.ir.is_elided, region.items)):
            self.w.writeln("pass")
        super().sequence(region)

    def break_if(self, condition: str) -> None:
        with self.w.block(f"if {condition}:"):
            self.w.writeln("break")

    def loop(self, node: LoopNode) -> None:
        index = self.fresh("_i{}")
        with self.w.block(
                f"for {index} in range(int({self.expr(node.iterations)})):"):
            self.inline(node)


def _empty(region: Region) -> bool:
    """Whether ``region`` holds only sequences, and no statement."""
    return (isinstance(region, SequenceRegion)
            and all(map(_empty, region.items)))
