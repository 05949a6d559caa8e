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

from repro.lang.evaluator import INTRINSICS
from repro.lang.pygen import emit_stmt, py_comment
from repro.transform.algorithm import ActionSpec, ModelIR, as_ir
from repro.transform.flowgraph import CycleRegion, ForkRegion
from repro.transform.walker import PyRegionWalker
from repro.uml.activities import (ActionNode, ActivityInvocationNode, LoopNode,
                                  ParallelRegionNode)
from repro.uml.model import Model


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


def transform_to_python(model_or_ir: Model | ModelIR) -> PyArtifacts:
    """Transform a model into its executable Python representation."""
    return _PyEmitter(as_ir(model_or_ir)).emit()


class _PyEmitter(PyRegionWalker):
    PREFIX = "v."

    def __init__(self, ir: ModelIR) -> None:
        super().__init__(ir)
        # Intrinsics, model locals and cost functions stay bare; action
        # instances join once declared.
        self.scope.update(INTRINSICS, ir.model.cost_functions,
                          (v.name for v in ir.model.local_variables()))

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
            self.walk(self.ir.regions[main_name])
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
            globals_ = self.ir.model.global_variables()
            for variable in globals_:
                w.writeln(f"v.{variable.name} = {self.initial(variable)}")
            if not globals_:
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
                               | self.scope)
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
            w.writeln(f"{variable.name} = {self.initial(variable)}")

    def _emit_declarations(self) -> None:
        w = self.w
        w.blank()
        w.writeln("# Declare performance modeling elements")
        for spec in self.ir.actions.values():
            w.writeln(f"{spec.instance} = ctx.new({spec.class_name!r}, "
                      f"{spec.node.name!r}, {spec.node.id})")
            self.scope.add(spec.instance)

    # -- flow --------------------------------------------------------------------

    def action(self, spec: ActionSpec) -> None:
        self.fragment(spec)
        args = "".join(f", {self.arg(arg)}" for arg in spec.args)
        self.w.writeln(
            f"yield from {spec.instance}.execute(uid, pid, tid{args})")

    def elided(self, node: ActionNode) -> None:
        self.w.writeln(f"# (non-performance element {node.name!r} elided)")

    def activity(self, node: ActivityInvocationNode) -> None:
        self.w.writeln(f"# Activity {py_comment(node.name)}")
        self.inline(node)

    def loop(self, node: LoopNode) -> None:
        self.w.writeln(f"# Loop {py_comment(node.name)} over diagram "
                       f"{py_comment(node.behavior)}")
        super().loop(node)

    def parallel(self, node: ParallelRegionNode) -> None:
        helper = self.fresh("_par{}_body", "helper")
        threads = self.expr(node.num_threads)
        self.w.writeln(f"# Parallel region {py_comment(node.name)} "
                       f"(diagram {py_comment(node.behavior)})")
        self._generator(helper, self.inline, node)
        self.w.writeln(
            f"yield from ctx.parallel_region({node.name!r}, {node.id}, "
            f"int({threads}), {helper})")

    def fork(self, region: ForkRegion) -> None:
        helpers = []
        for arm in region.arms:
            helpers.append(self.fresh("_fork{}_arm", "helper"))
            self._generator(helpers[-1], self.walk, arm)
        self.w.writeln(
            f"yield from ctx.fork_join({region.fork.name!r}, "
            f"{region.fork.id}, [{', '.join(helpers)}])")

    def _generator(self, name: str, write, item) -> None:
        """``def name(ctx, uid, pid, tid):``, a generator whose body
        ``write(item)`` writes in a copy of the current scope."""
        outer, self.scope = self.scope, set(self.scope)
        with self.w.block(f"def {name}(ctx, uid, pid, tid):"):
            self.w.writeln("yield from ()  # generator marker")
            write(item)
        self.scope = outer

    def cycle(self, region: CycleRegion) -> None:
        self.w.writeln(f"# Loop (header {py_comment(region.header.name)})")
        super().cycle(region)
