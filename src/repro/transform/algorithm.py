"""The transformation IR: everything a backend needs, precomputed once.

:func:`build_ir` runs the Fig. 5 algorithm's analysis phases:

* lines 1-8  — collect performance elements (:mod:`.collect`);
* lines 9-12 — global variables (read off the model);
* lines 13-18 — cost functions (read off the model);
* lines 19-28 — locals and element declarations (name mangling here);
* lines 29-35 — the execution flow, reconstructed per diagram as a region
  tree (:mod:`.flowgraph`).

Both backends (C++ text, executable Python) render the same IR, which is
what makes the two representations semantically aligned.  So do the
interpreter, the analytic plan and the analyzer's CFG: each accepts a
built :class:`ModelIR` (via :func:`as_ir`), so a caller that already
lowered a model — the sweep runner, once per model per call — shares
that one IR with every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TransformError
from repro.transform.collect import collect_performance_elements
from repro.transform.flowgraph import FlowParser, SequenceRegion
from repro.uml.activities import (
    ActionNode,
    ActivityInvocationNode,
    ActivityNode,
    LoopNode,
    ParallelRegionNode,
)
from repro.uml.model import Model
from repro.uml.perf_profile import (
    ACTION_PLUS,
    ALLREDUCE_PLUS,
    BARRIER_PLUS,
    BCAST_PLUS,
    CRITICAL_PLUS,
    GATHER_PLUS,
    RECV_PLUS,
    REDUCE_PLUS,
    SCATTER_PLUS,
    SEND_PLUS,
    performance_stereotype,
)
from repro.util.ids import mangle_identifier, unique_name

#: Stereotype name → runtime class name (C++ and Python share these).
RUNTIME_CLASSES: dict[str, str] = {
    ACTION_PLUS: "ActionPlus",
    CRITICAL_PLUS: "CriticalSection",
    SEND_PLUS: "MpiSend",
    RECV_PLUS: "MpiRecv",
    BARRIER_PLUS: "MpiBarrier",
    BCAST_PLUS: "MpiBcast",
    SCATTER_PLUS: "MpiScatter",
    GATHER_PLUS: "MpiGather",
    REDUCE_PLUS: "MpiReduce",
    ALLREDUCE_PLUS: "MpiAllreduce",
}


@dataclass
class Declaration:
    """One generated element declaration (Fig. 5 lines 24-28)."""

    node: ActivityNode
    class_name: str
    instance: str        # the mangled instance identifier (Kernel6→kernel6)
    display_name: str    # the UML element name, kept as a constructor arg


@dataclass
class ModelIR:
    model: Model
    perf_elements: list[ActivityNode]
    declarations: list[Declaration] = field(default_factory=list)
    regions: dict[str, SequenceRegion] = field(default_factory=dict)
    instance_names: dict[int, str] = field(default_factory=dict)

    @property
    def main_region(self) -> SequenceRegion:
        return self.regions[self.model.main_diagram_name]

    def instance_for(self, node: ActivityNode) -> str:
        try:
            return self.instance_names[node.id]
        except KeyError:
            raise TransformError(
                f"element {node.name!r} (id {node.id}) has no declaration; "
                "is it a performance modeling element?") from None


def build_ir(model: Model) -> ModelIR:
    """Run the analysis phases of the Fig. 5 algorithm."""
    if model.main_diagram_name is None:
        raise TransformError(f"model {model.name!r} has no main diagram")
    perf_elements = collect_performance_elements(model)
    ir = ModelIR(model=model, perf_elements=perf_elements)

    # Declarations (lines 24-28): declare a runtime object for every
    # performance element whose stereotype maps to a runtime class;
    # structured nodes (activity+/loop+/parallel+) become nested code,
    # not objects, exactly as activity SA in Fig. 8 (lines 79-82).
    taken: set[str] = set()
    for node in perf_elements:
        stereotype = performance_stereotype(node)
        class_name = RUNTIME_CLASSES.get(stereotype or "")
        if class_name is None:
            continue
        base = mangle_identifier(node.name, lower_first=True)
        instance = unique_name(base, taken)
        taken.add(instance)
        ir.declarations.append(
            Declaration(node, class_name, instance, node.name))
        ir.instance_names[node.id] = instance

    # Flow (lines 29-35): structured region tree per diagram.  Every
    # diagram is parsed; backends inline sub-diagram regions at their
    # invocation sites (the paper nests SA's code inside the main activity).
    for diagram in model.diagrams:
        ir.regions[diagram.name] = FlowParser(diagram).parse()

    _check_invocations_resolve(ir)
    return ir


def as_ir(model_or_ir: Model | ModelIR) -> ModelIR:
    """``model_or_ir`` itself if it is already an IR, else a fresh
    :func:`build_ir` of the model.  Never memoized: models are mutable,
    and an edited model must never be served a stale IR."""
    if isinstance(model_or_ir, ModelIR):
        return model_or_ir
    return build_ir(model_or_ir)


def model_of(model_or_ir: Model | ModelIR) -> Model:
    """The model ``model_or_ir`` is, or was lowered from."""
    if isinstance(model_or_ir, ModelIR):
        return model_or_ir.model
    return model_or_ir


def _check_invocations_resolve(ir: ModelIR) -> None:
    for node in ir.model.all_nodes():
        if isinstance(node, (ActivityInvocationNode, LoopNode,
                             ParallelRegionNode)):
            if node.behavior not in ir.regions:
                raise TransformError(
                    f"element {node.name!r} invokes diagram "
                    f"{node.behavior!r}, which does not exist")


def cost_argument(node: ActionNode) -> str | None:
    """The cost expression source used as the last execute() argument.

    Preference order per the profile: explicit ``cost`` source on the node
    (``FA1()``), else the constant ``time`` tag (Fig. 1(b)), else None.
    """
    if node.cost is not None:
        return node.cost
    stereotype = performance_stereotype(node)
    if stereotype is not None:
        time = node.tag_value(stereotype, "time")
        if time is not None:
            return repr(float(time))
    return None
