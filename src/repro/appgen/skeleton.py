"""Skeleton emitter: UML performance model → runnable program skeleton.

The emitted module defines ``run(comm)`` taking an mpi4py-like
communicator.  Mapping:

* globals → locals of ``run`` (rank-private state, as in SPMD programs);
* code fragments → inlined statements (they are real code);
* ``<<action+>>`` → a TODO hook function per element, called in place;
* communication elements → ``comm`` calls;
* loops/branches/nested activities → Python control flow;
* ``<<parallel+>>`` → a sequential for over the thread range with a TODO
  note (threading is left to the implementer);
* cost functions → emitted as reference comments (they model time, not
  behaviour).
"""

from __future__ import annotations

import types
from dataclasses import dataclass

from repro.errors import TransformError, UnsupportedElementError
from repro.lang.evaluator import INTRINSICS
from repro.lang.parser import parse_expression
from repro.lang.pygen import _render_with_filter, emit_stmt, py_comment
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
    ActivityNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model
from repro.util.ids import mangle_identifier
from repro.util.textwriter import CodeWriter

#: Action kind → its ``comm`` call; any other kind calls its hook.
_COMM_CALLS = {
    "send": "comm.send(None, dest=int({peer}), tag={tag})",
    "recv": "comm.recv(source=int({peer}), tag={tag})",
    "barrier": "comm.barrier()",
    "bcast": "comm.bcast(None, root=int({root}))",
    "scatter": "comm.scatter([None] * size, root=int({root}))",
    "gather": "comm.gather(None, root=int({root}))",
    "reduce": "comm.reduce(0, root=int({root}))",
    "allreduce": "comm.allreduce(0)",
}


@dataclass
class SkeletonArtifacts:
    source: str
    model_name: str

    def compile(self) -> types.ModuleType:
        module = types.ModuleType(
            f"skeleton_{mangle_identifier(self.model_name)}")
        exec(compile(self.source, f"<skeleton:{self.model_name}>",
                     "exec"), module.__dict__)
        return module


def generate_skeleton(model_or_ir: Model | ModelIR) -> SkeletonArtifacts:
    return _SkeletonEmitter(as_ir(model_or_ir)).emit()


class _SkeletonEmitter:
    def __init__(self, ir: ModelIR) -> None:
        self.ir = ir
        self.w = CodeWriter()
        self._loop_counter = 0
        self._inline_stack: list[str] = []
        # In the skeleton everything lives in run()'s scope: globals,
        # locals, and the rank intrinsics are all bare names.
        self._bare: set[str] = {"rank", *INTRINSICS}
        self._bare.update(v.name for v in ir.model.variables)

    def _expr(self, source: str) -> str:
        return self._render(parse_expression(source))

    def _render(self, expr) -> str:
        return _render_with_filter(expr, 0, "", self._bare)

    def emit(self) -> SkeletonArtifacts:
        model = self.ir.model
        w = self.w
        w.writeln(f"# Program skeleton generated from performance model "
                  f"{model.name!r}.")
        w.writeln("# Fill in the TODO hooks; pass an mpi4py-like "
                  "communicator to run().")
        w.writeln("from repro.lang.evaluator import c_div, c_mod")
        w.writeln("from repro.lang.builtins import BUILTINS as _bi")
        w.blank()
        self._emit_hooks()
        with w.block("def run(comm):", None):
            w.writeln('"""SPMD entry point: every rank executes this."""')
            w.writeln("rank = comm.rank")
            w.writeln("size = comm.size")
            w.writeln("pid = rank  # the model's process id")
            w.writeln("uid = 0")
            w.writeln("tid = 0")
            self._emit_variables()
            w.blank()
            w.writeln(f"# {py_comment(model.main_diagram_name)} activity")
            self._emit_region(self.ir.regions[model.main_diagram_name])
            w.writeln("return locals()")
        return SkeletonArtifacts(source=w.text(), model_name=model.name)

    def _emit_hooks(self) -> None:
        """One TODO hook per <<action+>> element."""
        w = self.w
        for spec in self.ir.actions.values():
            if spec.kind not in ("action", "critical"):
                continue
            cost = spec.node.cost
            with w.block(f"def compute_{spec.instance}(state):", None):
                w.writeln(f'"""TODO: implement the code block modeled by '
                          f'element {_docstring_text(repr(spec.node.name))}')
                if cost:
                    w.writeln("(modeled execution time: "
                              f"{_docstring_text(cost)})")
                w.writeln('"""')
            w.blank()

    def _emit_variables(self) -> None:
        w = self.w
        from repro.lang.types import default_value
        if self.ir.model.variables:
            w.writeln("# model variables (rank-private)")
        for variable in self.ir.model.variables:
            if variable.init is not None:
                w.writeln(f"{variable.name} = {self._expr(variable.init)}")
            else:
                w.writeln(
                    f"{variable.name} = {default_value(variable.type)!r}")

    # -- flow ------------------------------------------------------------

    def _emit_region(self, region: Region) -> None:
        if isinstance(region, SequenceRegion):
            if all(map(self.ir.is_elided, region.items)):
                self.w.writeln("pass")
            for item in region.items:
                self._emit_region(item)
        elif isinstance(region, LeafRegion):
            self._emit_leaf(region.node)
        elif isinstance(region, BranchRegion):
            first_guard, first_arm = region.arms[0]
            self.w.writeln(f"if {self._expr(first_guard)}:")
            self.w.indent()
            self._emit_region(first_arm)
            self.w.dedent()
            for guard, arm in region.arms[1:]:
                self.w.writeln(f"elif {self._expr(guard)}:")
                self.w.indent()
                self._emit_region(arm)
                self.w.dedent()
            if region.else_arm is not None:
                self.w.writeln("else:")
                self.w.indent()
                self._emit_region(region.else_arm)
                self.w.dedent()
        elif isinstance(region, CycleRegion):
            self.w.writeln("while True:")
            self.w.indent()
            self._emit_region(region.pre)
            if region.break_condition is not None:
                condition = self._expr(region.break_condition)
            else:
                condition = f"not ({self._expr(region.negated_stay_guard)})"
            self.w.writeln(f"if {condition}:")
            self.w.indent()
            self.w.writeln("break")
            self.w.dedent()
            self._emit_region(region.post)
            self.w.dedent()
        elif isinstance(region, ForkRegion):
            self.w.writeln(f"# TODO: the model forks "
                           f"{len(region.arms)} concurrent arms here; "
                           "they run sequentially in this skeleton")
            for arm in region.arms:
                self._emit_region(arm)
        else:  # pragma: no cover - defensive
            raise TransformError(
                f"unknown region type {type(region).__name__}")

    def _emit_leaf(self, node: ActivityNode) -> None:
        w = self.w
        if isinstance(node, ActivityInvocationNode):
            self._inline(node.behavior, f"# activity {py_comment(node.name)}")
            return
        if isinstance(node, LoopNode):
            self._loop_counter += 1
            index = f"_i{self._loop_counter}"
            w.writeln(f"for {index} in range(int("
                      f"{self._expr(node.iterations)})):")
            w.indent()
            self._inline(node.behavior, None)
            w.dedent()
            return
        if isinstance(node, ParallelRegionNode):
            threads = self._expr(node.num_threads)
            w.writeln(f"# TODO: parallel region {node.name!r} over "
                      f"{threads} threads (sequential here)")
            w.writeln(f"for tid in range(max(1, int({threads}))):")
            w.indent()
            self._inline(node.behavior, None)
            w.dedent()
            w.writeln("tid = 0")
            return
        if isinstance(node, ActionNode):
            self._emit_action(node)
            return
        raise UnsupportedElementError(
            f"skeleton has no mapping for {type(node).__name__}")

    def _inline(self, behavior: str, comment: str | None) -> None:
        if behavior in self._inline_stack:
            raise TransformError(
                f"recursive diagram invocation of {behavior!r}")
        if comment:
            self.w.writeln(comment)
        self._inline_stack.append(behavior)
        try:
            self._emit_region(self.ir.regions[behavior])
        finally:
            self._inline_stack.pop()

    def _emit_action(self, node: ActionNode) -> None:
        w = self.w
        spec = self.ir.actions.get(node.id)
        if spec is None:
            return  # not a performance element: the model never runs it
        if spec.program is not None:
            w.writeln(f"# code associated with {py_comment(node.name)}")
            locals_ = set(self._bare)
            for stmt in spec.program:
                emit_stmt(w, stmt, name_prefix="", declared_locals=locals_)
        call = _COMM_CALLS.get(spec.kind,
                               f"compute_{spec.instance}(locals())")
        peer = self._render(spec.peer) if spec.peer is not None else None
        root = self._render(spec.root) if spec.root is not None else None
        w.writeln(call.format(peer=peer, root=root, tag=spec.tag)
                  + f"  # {py_comment(node.name)}")


def _docstring_text(text: str) -> str:
    """``text`` inside a triple-quoted docstring: no escape sequence and
    no closing quote can come from the model."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
