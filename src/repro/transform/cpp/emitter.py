"""The C++ ContentHandler: renders the IR as the paper's Fig. 8 text.

Section order follows the Fig. 5 algorithm exactly: globals (lines 9-12),
cost functions (13-18), then the program — locals (20-23), element
declarations (24-28), and the execution flow (29-35) with nested
activities as nested blocks, branches as ``if/else-if``, code fragments
spliced before their element's ``execute()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Expr
from repro.lang.cppgen import (cpp_comment, cpp_string, cpp_type, emit_stmt,
                               expr_to_cpp, function_to_cpp)
from repro.transform.algorithm import ActionSpec, ModelIR, as_ir
from repro.transform.cpp.runtime_header import RUNTIME_HEADER
from repro.transform.flowgraph import CycleRegion, ForkRegion
from repro.transform.walker import RegionWalker
from repro.uml.activities import (ActionNode, ActivityInvocationNode, LoopNode,
                                  ParallelRegionNode)
from repro.uml.model import Model
from repro.util.ids import mangle_identifier
from repro.util.textwriter import CodeWriter


@dataclass
class CppArtifacts:
    """The generated PMP: main source plus the runtime header."""

    source: str
    header: str
    entry_point: str

    def numbered_source(self) -> str:
        """Line-numbered rendering, as the paper's Fig. 8 shows."""
        writer = CodeWriter()
        writer.write_lines(self.source.splitlines())
        return writer.numbered()


def transform_to_cpp(model_or_ir: Model | ModelIR) -> CppArtifacts:
    """Transform a model (Fig. 5 end to end) into its C++ representation."""
    return _CppEmitter(as_ir(model_or_ir)).emit()


class _CppEmitter(RegionWalker):
    IF, ELIF, ELSE, END = "if ({}) {{", "}} else if ({}) {{", "} else {", "}"
    WHILE, NOT = "while (true) {", "!({})"
    SKIP_EMPTY_ELSE = True
    string = staticmethod(cpp_string)

    # -- top level -----------------------------------------------------------

    def emit(self) -> CppArtifacts:
        model = self.ir.model
        entry = f"pmp_{mangle_identifier(model.name, lower_first=True)}"
        w = self.w
        w.writeln(f"// {cpp_comment(model.name)} — C++ representation of the "
                  "performance model (PMP).")
        w.writeln("// Generated by Performance Prophet; input for the "
                  "Performance Estimator.")
        w.writeln('#include "prophet_runtime.h"')
        w.writeln("using namespace prophet;")
        w.blank()

        # Globals: Fig. 5 lines 9-12; Fig. 8(a) lines 24-25.
        w.writeln("// Globals")
        for variable in model.global_variables():
            w.writeln(self._declaration(variable))
        w.blank()
        # Cost functions: Fig. 5 lines 13-18; Fig. 8(a) lines 31-54.
        w.writeln("// Cost functions")
        for function in model.cost_functions.values():
            w.write_lines(function_to_cpp(function.definition).splitlines())
        w.blank()
        self._emit_program(entry)

        w.blank()
        w.writeln(f"PROPHET_REGISTER_MODEL("
                  f"{mangle_identifier(model.name)}, {entry});")
        return CppArtifacts(source=w.text(), header=RUNTIME_HEADER,
                            entry_point=entry)

    def _emit_program(self, entry: str) -> None:
        """Fig. 5 lines 19-35; Fig. 8(b)."""
        w = self.w
        w.writeln("// Program")
        with w.block(f"void {entry}(int uid, int pid, int tid) {{", "}"):
            locals_ = self.ir.model.local_variables()
            if locals_:  # Fig. 5 lines 20-23
                w.writeln("// Locals")
                for variable in locals_:
                    w.writeln(self._declaration(variable))
            # Fig. 5 lines 24-28; Fig. 8(b) lines 64-68.
            w.writeln("// Declare performance modeling elements")
            for spec in self.ir.actions.values():
                w.writeln(f"{spec.class_name} {spec.instance}"
                          f"({cpp_string(spec.node.name)}, {spec.node.id});")
            main_name = self.ir.model.main_diagram_name
            w.writeln(f"// {cpp_comment(main_name)} activity")
            with w.block("{", "}"):
                self.walk(self.ir.regions[main_name])

    def _declaration(self, variable) -> str:
        declaration = f"{cpp_type(variable.type)} {variable.name}"
        if variable.init is not None:
            declaration += f" = {self.expr(variable.init)}"
        return declaration + ";"

    # -- flow ------------------------------------------------------------------

    def render(self, expr: Expr) -> str:
        return expr_to_cpp(expr)

    def break_if(self, condition: str) -> None:
        self.w.writeln(f"if ({condition}) break;")

    def action(self, spec: ActionSpec) -> None:
        """Code fragment, then ``execute(uid, pid, tid, args...)`` — the
        Fig. 8 call shape for every action kind."""
        if spec.program is not None:
            self.w.writeln(
                f"// code associated with {cpp_comment(spec.node.name)}")
            for stmt in spec.program:
                emit_stmt(self.w, stmt)
        args = "".join(f", {self.arg(arg)}" for arg in spec.args)
        self.w.writeln(f"{spec.instance}.execute(uid, pid, tid{args});")

    def elided(self, node: ActionNode) -> None:
        self.w.writeln(f"// (non-performance element {node.name!r} elided)")

    def activity(self, node: ActivityInvocationNode) -> None:
        self.w.writeln(f"// Activity {cpp_comment(node.name)}")
        with self.w.block("{", "}"):
            self.inline(node)

    def loop(self, node: LoopNode) -> None:
        index = self.fresh("i{}_")
        iterations = self.expr(node.iterations)
        self.w.writeln(f"// Loop {cpp_comment(node.name)} over diagram "
                       f"{cpp_comment(node.behavior)}")
        with self.w.block(
                f"for (int {index} = 0; {index} < ({iterations}); "
                f"++{index}) {{", "}"):
            self.inline(node)

    def parallel(self, node: ParallelRegionNode) -> None:
        instance = self.claim(mangle_identifier(node.name, lower_first=True))
        threads = self.expr(node.num_threads)
        self.w.writeln(f"// Parallel region {cpp_comment(node.name)} "
                       f"(diagram {cpp_comment(node.behavior)})")
        self.w.writeln(f"ParallelRegion {instance}({cpp_string(node.name)}, "
                       f"{node.id});")
        with self.w.block(
                f"PROPHET_PARALLEL({instance}, {threads}) {{", "}"):
            self.inline(node)

    def fork(self, region: ForkRegion) -> None:
        w = self.w
        w.writeln(f"// Fork {cpp_comment(region.fork.name)} / join "
                  f"{cpp_comment(region.join.name)}")
        with w.block("PROPHET_SECTIONS {", "}"):
            for arm in region.arms:
                with w.block("PROPHET_SECTION {", "}"):
                    self.walk(arm)

    def cycle(self, region: CycleRegion) -> None:
        self.w.writeln(f"// Loop (header {cpp_comment(region.header.name)})")
        super().cycle(region)

