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

from repro.lang.pygen import py_comment
from repro.transform.algorithm import ActionSpec, ModelIR, as_ir
from repro.transform.flowgraph import ForkRegion
from repro.transform.walker import PyRegionWalker
from repro.uml.activities import ActivityInvocationNode, ParallelRegionNode
from repro.uml.model import Model
from repro.util.ids import mangle_identifier

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


class _SkeletonEmitter(PyRegionWalker):
    """Everything lives in ``run()``'s scope, so no name is prefixed."""

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
            self.walk(self.ir.regions[model.main_diagram_name])
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
        if self.ir.model.variables:
            w.writeln("# model variables (rank-private)")
        for variable in self.ir.model.variables:
            w.writeln(f"{variable.name} = {self.initial(variable)}")

    # -- flow ------------------------------------------------------------

    def action(self, spec: ActionSpec) -> None:
        self.fragment(spec)
        call = _COMM_CALLS.get(spec.kind,
                               f"compute_{spec.instance}(locals())")
        peer = self.render(spec.peer) if spec.peer is not None else None
        root = self.render(spec.root) if spec.root is not None else None
        self.w.writeln(call.format(peer=peer, root=root, tag=spec.tag)
                       + f"  # {py_comment(spec.node.name)}")

    def activity(self, node: ActivityInvocationNode) -> None:
        self.w.writeln(f"# activity {py_comment(node.name)}")
        self.inline(node)

    def parallel(self, node: ParallelRegionNode) -> None:
        w = self.w
        threads = self.expr(node.num_threads)
        w.writeln(f"# TODO: parallel region {node.name!r} over "
                  f"{threads} threads (sequential here)")
        with w.block(f"for tid in range(max(1, int({threads}))):"):
            self.inline(node)
        w.writeln("tid = 0")

    def fork(self, region: ForkRegion) -> None:
        self.w.writeln(f"# TODO: the model forks "
                       f"{len(region.arms)} concurrent arms here; "
                       "they run sequentially in this skeleton")
        for arm in region.arms:
            self.walk(arm)


def _docstring_text(text: str) -> str:
    """``text`` inside a triple-quoted docstring: no escape sequence and
    no closing quote can come from the model."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
