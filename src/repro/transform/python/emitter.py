"""The Python ContentHandler: renders the IR as an executable module.

The paper generates C++ because CSIM is a C library; this reproduction's
simulation engine is Python, so the machine-efficient representation is a
generated Python module.  The module defines one generator function

``pmp_main(ctx)``

executed by every simulated process/thread.  ``ctx`` is the runtime
context (:class:`repro.workload.context.ExecContext`): it carries the
process store ``v`` (the per-process C++ globals), the intrinsic ids
(uid/pid/tid/size/...), element factories, and collective operations.
Blocking operations are generators, hence the ``yield from`` calls — the
structure otherwise mirrors the generated C++ statement for statement.
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
from repro.util.textwriter import CodeWriter

#: Names that stay bare (not routed through the process store ``v``).
INTRINSIC_NAMES = frozenset(INTRINSICS)


@dataclass
class PyArtifacts:
    """The generated Python module."""

    source: str
    entry_point: str
    model_name: str

    def compile(self) -> types.ModuleType:
        """Exec the generated source into a fresh module object."""
        module = types.ModuleType(f"pmp_{self.model_name}")
        module.__dict__["__prophet_generated__"] = True
        exec(compile(self.source, f"<pmp:{self.model_name}>", "exec"),
             module.__dict__)
        return module

    def entry(self):
        """The compiled entry-point generator function."""
        return getattr(self.compile(), self.entry_point)


def transform_to_python(model_or_ir: Model | ModelIR) -> PyArtifacts:
    """Transform a model into its executable Python representation."""
    return _PyEmitter(as_ir(model_or_ir)).emit()


class _PyEmitter:
    def __init__(self, ir: ModelIR) -> None:
        self.ir = ir
        self.w = CodeWriter()
        self._loop_counter = 0
        self._helper_counter = 0
        self._inline_stack: list[str] = []
        # Names that must never be prefixed with "v." in expressions:
        # intrinsics, model locals, cost-function names, loop indices.
        self._bare: set[str] = set(INTRINSIC_NAMES)
        self._bare.update(v.name for v in ir.model.local_variables())
        self._bare.update(ir.model.cost_functions)

    # -- expression helpers ---------------------------------------------------

    def _expr(self, source: str, extra_bare: set[str] | None = None) -> str:
        bare = self._bare if extra_bare is None else self._bare | extra_bare
        return _render_with_filter(parse_expression(source), 0, "v.", bare)

    # -- top level -------------------------------------------------------------

    def emit(self) -> PyArtifacts:
        model = self.ir.model
        w = self.w
        w.writeln(f"# {py_comment(model.name)} — Python representation of the "
                  "performance model (PMP).")
        w.writeln("# Generated by Performance Prophet; executed by the "
                  "Performance Estimator.")
        w.writeln(f"MODEL_NAME = {model.name!r}")
        w.writeln("ENTRY_POINT = 'pmp_main'")
        w.blank()
        self._emit_init_globals()
        w.blank()
        with w.block("def pmp_main(ctx):", None):
            w.writeln('"""Simulated process body (a simulation '
                      'generator)."""')
            w.writeln("v = ctx.v")
            w.writeln("uid, pid, tid = ctx.uid, ctx.pid, ctx.tid")
            w.writeln("size, nnodes, nthreads = "
                      "ctx.size, ctx.nnodes, ctx.nthreads")
            w.writeln("c_div, c_mod, _bi = ctx.c_div, ctx.c_mod, "
                      "ctx.builtins")
            w.writeln("yield from ()  # generator marker")
            self._emit_cost_functions()
            self._emit_locals()
            self._emit_declarations()
            main_name = self.ir.model.main_diagram_name
            w.blank()
            w.writeln(f"# {py_comment(main_name)} activity")
            self._emit_region(self.ir.regions[main_name],
                              fragment_locals=set(self._bare))
        return PyArtifacts(source=w.text(), entry_point="pmp_main",
                           model_name=model.name)

    def _emit_init_globals(self) -> None:
        """Per-process global initialization (the C++ globals section).

        Each simulated process owns a copy of the globals (SPMD); the
        estimator calls this once per process before spawning it.
        """
        w = self.w
        with w.block("def init_globals(v, c_div, c_mod, _bi):", None):
            w.writeln('"""Initialize one process\'s copy of the model '
                      'globals."""')
            from repro.lang.types import default_value
            emitted = False
            for variable in self.ir.model.global_variables():
                if variable.init is not None:
                    w.writeln(f"v.{variable.name} = "
                              f"{self._expr(variable.init)}")
                else:
                    w.writeln(f"v.{variable.name} = "
                              f"{default_value(variable.type)!r}")
                emitted = True
            if not emitted:
                w.writeln("pass")

    def _emit_cost_functions(self) -> None:
        w = self.w
        if not self.ir.model.cost_functions:
            return
        w.blank()
        w.writeln("# Cost functions")
        for function in self.ir.model.cost_functions.values():
            definition = function.definition
            params = ", ".join(p.name for p in definition.params)
            with w.block(f"def {function.name}({params}):", None):
                body_locals = ({p.name for p in definition.params}
                               | self._bare)
                for stmt in definition.body:
                    emit_stmt(w, stmt, name_prefix="v.",
                              declared_locals=body_locals)

    def _emit_locals(self) -> None:
        locals_ = self.ir.model.local_variables()
        if not locals_:
            return
        w = self.w
        w.blank()
        w.writeln("# Locals")
        for variable in locals_:
            if variable.init is not None:
                w.writeln(f"{variable.name} = {self._expr(variable.init)}")
            else:
                from repro.lang.types import default_value
                w.writeln(f"{variable.name} = "
                          f"{default_value(variable.type)!r}")

    def _emit_declarations(self) -> None:
        w = self.w
        w.blank()
        w.writeln("# Declare performance modeling elements")
        for spec in self.ir.actions.values():
            w.writeln(f"{spec.instance} = ctx.new({spec.class_name!r}, "
                      f"{spec.node.name!r}, {spec.node.id})")
            self._bare.add(spec.instance)

    # -- flow --------------------------------------------------------------------

    def _emit_region(self, region: Region,
                     fragment_locals: set[str]) -> None:
        if isinstance(region, SequenceRegion):
            if all(map(self.ir.is_elided, region.items)):
                self.w.writeln("pass")
            for item in region.items:
                self._emit_region(item, fragment_locals)
        elif isinstance(region, LeafRegion):
            self._emit_leaf(region.node, fragment_locals)
        elif isinstance(region, BranchRegion):
            self._emit_branch(region, fragment_locals)
        elif isinstance(region, ForkRegion):
            self._emit_fork(region, fragment_locals)
        elif isinstance(region, CycleRegion):
            self._emit_cycle(region, fragment_locals)
        else:  # pragma: no cover - defensive
            raise TransformError(
                f"unknown region type {type(region).__name__}")

    def _emit_leaf(self, node: ActivityNode,
                   fragment_locals: set[str]) -> None:
        if isinstance(node, ActivityInvocationNode):
            self._check_inline_cycle(node.behavior, node.name)
            self.w.writeln(f"# Activity {py_comment(node.name)}")
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior],
                                  fragment_locals)
            finally:
                self._inline_stack.pop()
            return
        if isinstance(node, LoopNode):
            self._emit_loop_node(node, fragment_locals)
            return
        if isinstance(node, ParallelRegionNode):
            self._emit_parallel_node(node, fragment_locals)
            return
        if isinstance(node, ActionNode):
            self._emit_action(node, fragment_locals)
            return
        raise UnsupportedElementError(
            f"no Python mapping for node class {type(node).__name__} "
            f"({node.name!r})")

    def _emit_action(self, node: ActionNode,
                     fragment_locals: set[str]) -> None:
        spec = self.ir.actions.get(node.id)
        if spec is None:
            self.w.writeln(f"# (non-performance element {node.name!r} "
                           "elided)")
            return
        if spec.program is not None:
            self.w.writeln(f"# code associated with {py_comment(node.name)}")
            for stmt in spec.program:
                emit_stmt(self.w, stmt, name_prefix="v.",
                          declared_locals=fragment_locals)
        bare = self._bare | fragment_locals
        args = "".join(f", {_py_arg(arg, bare)}" for arg in spec.args)
        self.w.writeln(
            f"yield from {spec.instance}.execute(uid, pid, tid{args})")

    def _emit_loop_node(self, node: LoopNode,
                        fragment_locals: set[str]) -> None:
        self._check_inline_cycle(node.behavior, node.name)
        self._loop_counter += 1
        index = f"_i{self._loop_counter}"
        iterations = self._expr(node.iterations, fragment_locals)
        self.w.writeln(f"# Loop {py_comment(node.name)} over diagram "
                       f"{py_comment(node.behavior)}")
        with self.w.block(f"for {index} in range(int({iterations})):",
                          None):
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior],
                                  fragment_locals)
            finally:
                self._inline_stack.pop()

    def _emit_parallel_node(self, node: ParallelRegionNode,
                            fragment_locals: set[str]) -> None:
        self._check_inline_cycle(node.behavior, node.name)
        self._helper_counter += 1
        helper = f"_par{self._helper_counter}_body"
        threads = self._expr(node.num_threads, fragment_locals)
        self.w.writeln(f"# Parallel region {py_comment(node.name)} "
                       f"(diagram {py_comment(node.behavior)})")
        with self.w.block(f"def {helper}(ctx, uid, pid, tid):", None):
            self.w.writeln("yield from ()  # generator marker")
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior],
                                  set(fragment_locals))
            finally:
                self._inline_stack.pop()
        self.w.writeln(
            f"yield from ctx.parallel_region({node.name!r}, {node.id}, "
            f"int({threads}), {helper})")

    def _check_inline_cycle(self, behavior: str, node_name: str) -> None:
        if behavior in self._inline_stack:
            raise TransformError(
                f"recursive diagram invocation of {behavior!r} via "
                f"{node_name!r}")

    def _emit_branch(self, region: BranchRegion,
                     fragment_locals: set[str]) -> None:
        w = self.w
        first_guard, first_arm = region.arms[0]
        w.writeln(f"if {self._expr(first_guard, fragment_locals)}:")
        w.indent()
        self._emit_region(first_arm, fragment_locals)
        w.dedent()
        for guard, arm in region.arms[1:]:
            w.writeln(f"elif {self._expr(guard, fragment_locals)}:")
            w.indent()
            self._emit_region(arm, fragment_locals)
            w.dedent()
        if region.else_arm is not None:
            w.writeln("else:")
            w.indent()
            self._emit_region(region.else_arm, fragment_locals)
            w.dedent()

    def _emit_fork(self, region: ForkRegion,
                   fragment_locals: set[str]) -> None:
        w = self.w
        arm_names = []
        for arm in region.arms:
            self._helper_counter += 1
            helper = f"_fork{self._helper_counter}_arm"
            arm_names.append(helper)
            with w.block(f"def {helper}(ctx, uid, pid, tid):", None):
                w.writeln("yield from ()  # generator marker")
                self._emit_region(arm, set(fragment_locals))
        w.writeln(
            f"yield from ctx.fork_join({region.fork.name!r}, "
            f"{region.fork.id}, [{', '.join(arm_names)}])")

    def _emit_cycle(self, region: CycleRegion,
                    fragment_locals: set[str]) -> None:
        w = self.w
        w.writeln(f"# Loop (header {py_comment(region.header.name)})")
        with w.block("while True:", None):
            self._emit_region(region.pre, fragment_locals)
            if region.break_condition is not None:
                condition = self._expr(region.break_condition,
                                       fragment_locals)
            else:
                condition = ("not (" +
                             self._expr(region.negated_stay_guard,
                                        fragment_locals) + ")")
            w.writeln(f"if {condition}:")
            w.indent()
            w.writeln("break")
            w.dedent()
            self._emit_region(region.post, fragment_locals)


def _py_arg(arg, bare: set[str]) -> str:
    """One ``execute()`` argument: an expression, a tag number, an
    ``op``/``lock`` string, or None for a missing cost."""
    if arg is None:
        return "0.0"
    if isinstance(arg, (int, str)):
        return repr(arg)
    return _render_with_filter(arg, 0, "v.", bare)
