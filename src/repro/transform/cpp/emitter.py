"""The C++ ContentHandler: renders the IR as the paper's Fig. 8 text.

Section order follows the Fig. 5 algorithm exactly: globals (lines 9-12),
cost functions (13-18), then the program — locals (20-23), element
declarations (24-28), and the execution flow (29-35) with nested
activities as nested blocks, branches as ``if/else-if``, code fragments
spliced before their element's ``execute()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransformError, UnsupportedElementError
from repro.lang.cppgen import (
    cpp_comment,
    cpp_string,
    cpp_type,
    emit_stmt,
    expr_to_cpp,
    function_to_cpp,
)
from repro.lang.parser import parse_expression
from repro.transform.algorithm import ModelIR, as_ir, claim_name
from repro.transform.cpp.runtime_header import RUNTIME_HEADER
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


class _CppEmitter:
    def __init__(self, ir: ModelIR) -> None:
        self.ir = ir
        self.w = CodeWriter()
        self._loop_counter = 0
        self._inline_stack: list[str] = []
        self._names = set(ir.names)  # region objects take fresh names

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

        self._emit_globals()
        self._emit_cost_functions()
        self._emit_program(entry)

        w.blank()
        w.writeln(f"PROPHET_REGISTER_MODEL("
                  f"{mangle_identifier(model.name)}, {entry});")
        return CppArtifacts(source=w.text(), header=RUNTIME_HEADER,
                            entry_point=entry)

    def _emit_globals(self) -> None:
        """Fig. 5 lines 9-12; Fig. 8(a) lines 24-25."""
        w = self.w
        w.begin_section("globals")
        w.writeln("// Globals")
        for variable in self.ir.model.global_variables():
            declaration = f"{cpp_type(variable.type)} {variable.name}"
            if variable.init is not None:
                declaration += \
                    f" = {expr_to_cpp(parse_expression(variable.init))}"
            w.writeln(declaration + ";")
        w.end_section()
        w.blank()

    def _emit_cost_functions(self) -> None:
        """Fig. 5 lines 13-18; Fig. 8(a) lines 31-54."""
        w = self.w
        w.begin_section("cost-functions")
        w.writeln("// Cost functions")
        for function in self.ir.model.cost_functions.values():
            for line in function_to_cpp(function.definition).splitlines():
                w.writeln(line)
        w.end_section()
        w.blank()

    def _emit_program(self, entry: str) -> None:
        """Fig. 5 lines 19-35; Fig. 8(b)."""
        w = self.w
        w.writeln("// Program")
        with w.block(f"void {entry}(int uid, int pid, int tid) {{", "}"):
            self._emit_locals()
            self._emit_declarations()
            main_name = self.ir.model.main_diagram_name
            w.writeln(f"// {cpp_comment(main_name)} activity")
            with w.block("{", "}"):
                self._emit_region(self.ir.regions[main_name])

    def _emit_locals(self) -> None:
        """Fig. 5 lines 20-23."""
        locals_ = self.ir.model.local_variables()
        w = self.w
        w.begin_section("locals")
        if locals_:
            w.writeln("// Locals")
            for variable in locals_:
                declaration = f"{cpp_type(variable.type)} {variable.name}"
                if variable.init is not None:
                    declaration += \
                        f" = {expr_to_cpp(parse_expression(variable.init))}"
                w.writeln(declaration + ";")
        w.end_section()

    def _emit_declarations(self) -> None:
        """Fig. 5 lines 24-28; Fig. 8(b) lines 64-68."""
        w = self.w
        w.begin_section("declarations")
        w.writeln("// Declare performance modeling elements")
        for spec in self.ir.actions.values():
            w.writeln(f"{spec.class_name} {spec.instance}"
                      f"({cpp_string(spec.node.name)}, {spec.node.id});")
        w.end_section()

    # -- flow ------------------------------------------------------------------

    def _emit_region(self, region: Region) -> None:
        if isinstance(region, SequenceRegion):
            for item in region.items:
                self._emit_region(item)
        elif isinstance(region, LeafRegion):
            self._emit_leaf(region.node)
        elif isinstance(region, BranchRegion):
            self._emit_branch(region)
        elif isinstance(region, ForkRegion):
            self._emit_fork(region)
        elif isinstance(region, CycleRegion):
            self._emit_cycle(region)
        else:  # pragma: no cover - defensive
            raise TransformError(
                f"unknown region type {type(region).__name__}")

    def _emit_leaf(self, node: ActivityNode) -> None:
        if isinstance(node, ActivityInvocationNode):
            self._emit_activity_invocation(node)
            return
        if isinstance(node, LoopNode):
            self._emit_loop_node(node)
            return
        if isinstance(node, ParallelRegionNode):
            self._emit_parallel_node(node)
            return
        if isinstance(node, ActionNode):
            self._emit_action(node)
            return
        raise UnsupportedElementError(
            f"no C++ mapping for node class {type(node).__name__} "
            f"({node.name!r})")

    def _emit_action(self, node: ActionNode) -> None:
        """Code fragment, then ``execute(uid, pid, tid, args...)`` — the
        Fig. 8 call shape for every action kind."""
        spec = self.ir.actions.get(node.id)
        if spec is None:
            self.w.writeln(f"// (non-performance element {node.name!r} "
                           "elided)")
            return
        if spec.program is not None:
            self.w.writeln(
                f"// code associated with {cpp_comment(node.name)}")
            for stmt in spec.program:
                emit_stmt(self.w, stmt)
        args = "".join(f", {_cpp_arg(arg)}" for arg in spec.args)
        self.w.writeln(f"{spec.instance}.execute(uid, pid, tid{args});")

    def _emit_activity_invocation(self, node: ActivityInvocationNode) -> None:
        self._check_inline_cycle(node.behavior, node.name)
        self.w.writeln(f"// Activity {cpp_comment(node.name)}")
        with self.w.block("{", "}"):
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior])
            finally:
                self._inline_stack.pop()

    def _emit_loop_node(self, node: LoopNode) -> None:
        self._check_inline_cycle(node.behavior, node.name)
        self._loop_counter += 1
        index = f"i{self._loop_counter}_"
        iterations = expr_to_cpp(parse_expression(node.iterations))
        self.w.writeln(f"// Loop {cpp_comment(node.name)} over diagram "
                       f"{cpp_comment(node.behavior)}")
        with self.w.block(
                f"for (int {index} = 0; {index} < ({iterations}); "
                f"++{index}) {{", "}"):
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior])
            finally:
                self._inline_stack.pop()

    def _emit_parallel_node(self, node: ParallelRegionNode) -> None:
        self._check_inline_cycle(node.behavior, node.name)
        instance = claim_name(
            mangle_identifier(node.name, lower_first=True), self._names)
        threads = expr_to_cpp(parse_expression(node.num_threads))
        self.w.writeln(f"// Parallel region {cpp_comment(node.name)} "
                       f"(diagram {cpp_comment(node.behavior)})")
        self.w.writeln(f"ParallelRegion {instance}({cpp_string(node.name)}, "
                       f"{node.id});")
        with self.w.block(
                f"PROPHET_PARALLEL({instance}, {threads}) {{", "}"):
            self._inline_stack.append(node.behavior)
            try:
                self._emit_region(self.ir.regions[node.behavior])
            finally:
                self._inline_stack.pop()

    def _check_inline_cycle(self, behavior: str, node_name: str) -> None:
        if behavior in self._inline_stack:
            raise TransformError(
                f"recursive diagram invocation of {behavior!r} via "
                f"{node_name!r}")

    def _emit_branch(self, region: BranchRegion) -> None:
        """Fig. 8(b) lines 77-87: decision → if/else-if/else."""
        w = self.w
        first_guard, first_arm = region.arms[0]
        w.writeln(f"if ({expr_to_cpp(parse_expression(first_guard))}) {{")
        w.indent()
        self._emit_region(first_arm)
        w.dedent()
        for guard, arm in region.arms[1:]:
            w.writeln(
                f"}} else if ({expr_to_cpp(parse_expression(guard))}) {{")
            w.indent()
            self._emit_region(arm)
            w.dedent()
        if region.else_arm is not None and _region_nonempty(region.else_arm):
            w.writeln("} else {")
            w.indent()
            self._emit_region(region.else_arm)
            w.dedent()
        w.writeln("}")

    def _emit_fork(self, region: ForkRegion) -> None:
        w = self.w
        w.writeln(f"// Fork {cpp_comment(region.fork.name)} / join "
                  f"{cpp_comment(region.join.name)}")
        with w.block("PROPHET_SECTIONS {", "}"):
            for arm in region.arms:
                with w.block("PROPHET_SECTION {", "}"):
                    self._emit_region(arm)

    def _emit_cycle(self, region: CycleRegion) -> None:
        w = self.w
        w.writeln(f"// Loop (header {cpp_comment(region.header.name)})")
        with w.block("while (true) {", "}"):
            self._emit_region(region.pre)
            if region.break_condition is not None:
                condition = expr_to_cpp(
                    parse_expression(region.break_condition))
            else:
                condition = "!(" + expr_to_cpp(
                    parse_expression(region.negated_stay_guard)) + ")"
            w.writeln(f"if ({condition}) break;")
            self._emit_region(region.post)


def _cpp_arg(arg) -> str:
    """One ``execute()`` argument: an expression, a tag number, an
    ``op``/``lock`` string, or None for a missing cost."""
    if arg is None:
        return "0.0"
    if isinstance(arg, int):
        return str(arg)
    if isinstance(arg, str):
        return cpp_string(arg)
    return expr_to_cpp(arg)


def _region_nonempty(region: Region) -> bool:
    if isinstance(region, SequenceRegion):
        return any(_region_nonempty(item) for item in region.items)
    return True
