"""The transformation IR: everything a backend needs, precomputed once.

:func:`build_ir` runs the Fig. 5 algorithm's analysis phases:

* lines 1-8  — collect performance elements (:mod:`.collect`);
* lines 9-12 — global variables (read off the model);
* lines 13-18 — cost functions (read off the model);
* lines 19-28 — locals and element declarations (name mangling here);
* lines 29-35 — the execution flow, reconstructed per diagram as a region
  tree (:mod:`.flowgraph`).

Fig. 5 maps each performance element to one runtime call, and so does
this module, once: :data:`ACTION_TABLE` says, per action stereotype,
which trace-record kind and runtime class it becomes and which tags its
``execute()`` arguments come from, and :func:`build_ir` resolves every
stereotyped action into one immutable :class:`ActionSpec` — instance
name, parsed code fragment, parsed or literal arguments — in
:attr:`ModelIR.actions`.  Every consumer reads that record instead of the
stereotype and its tags: the C++ and Python emitters and the skeleton
render its argument list, the interpreter folds it into its per-event
plan, and the analytic plan, the analyzer's CFG and the rank-dependence
scan read its expressions.

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
from repro.lang.ast import Expr, Program
from repro.lang.evaluator import INTRINSICS
from repro.lang.parser import parse_expression, parse_program
from repro.transform.collect import collect_performance_elements
from repro.transform.flowgraph import (
    FlowParser,
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
from repro.util.ids import GENERATED_NAMES, mangle_identifier, unique_name

#: Action stereotype → (trace-record kind, runtime class shared by C++
#: and Python, the tags its ``execute()`` arguments come from in call
#: order after ``(uid, pid, tid)``).  ``cost`` comes from
#: :func:`cost_argument`; ``dest``/``source`` fill the ``peer`` field.
ACTION_TABLE: dict[str, tuple[str, str, tuple[str, ...]]] = {
    ACTION_PLUS: ("action", "ActionPlus", ("cost",)),
    CRITICAL_PLUS: ("critical", "CriticalSection", ("cost", "lock")),
    SEND_PLUS: ("send", "MpiSend", ("dest", "size", "tag")),
    RECV_PLUS: ("recv", "MpiRecv", ("source", "size", "tag")),
    BARRIER_PLUS: ("barrier", "MpiBarrier", ()),
    BCAST_PLUS: ("bcast", "MpiBcast", ("root", "size")),
    SCATTER_PLUS: ("scatter", "MpiScatter", ("root", "size")),
    GATHER_PLUS: ("gather", "MpiGather", ("root", "size")),
    REDUCE_PLUS: ("reduce", "MpiReduce", ("root", "size", "op")),
    ALLREDUCE_PLUS: ("allreduce", "MpiAllreduce", ("size", "op")),
}

#: Literal (non-expression) argument tags and their defaults.
_LITERAL_DEFAULTS = {"tag": 0, "op": "sum", "lock": "default"}


@dataclass(frozen=True)
class ActionSpec:
    """One performance action, resolved once (Fig. 5 lines 24-28 plus its
    ``execute()`` call).

    ``cost``, ``peer``, ``size`` and ``root`` are parsed expressions, or
    None where the kind has no such argument (or, for ``cost``, where the
    action has none: it costs ``0.0``); ``args`` holds the call's
    arguments after ``(uid, pid, tid)`` in order.
    """

    node: ActionNode
    kind: str
    class_name: str
    instance: str        # the mangled instance identifier (Kernel6→kernel6)
    program: Program | None
    cost: Expr | None = None
    peer: Expr | None = None     # send dest / recv source
    size: Expr | None = None
    root: Expr | None = None
    tag: int = 0
    op: str | None = None
    lock: str | None = None
    args: tuple = ()


@dataclass
class ModelIR:
    model: Model
    perf_elements: list[ActivityNode]
    #: node id → its resolved action, in declaration order; an action
    #: without a stereotype has no entry.
    actions: dict[int, ActionSpec] = field(default_factory=dict)
    regions: dict[str, SequenceRegion] = field(default_factory=dict)
    #: Every name the generated code binds: intrinsics, the emitters'
    #: own, the model's variables and cost functions, action instances.
    #: The region walker numbers its names past these.
    names: set[str] = field(default_factory=set)

    @property
    def main_region(self) -> SequenceRegion:
        return self.regions[self.model.main_diagram_name]

    def is_elided(self, region: Region) -> bool:
        """Whether ``region`` is an action without a performance
        stereotype: no backend runs it, so no emitter writes a statement
        for it."""
        return (isinstance(region, LeafRegion)
                and isinstance(region.node, ActionNode)
                and region.node.id not in self.actions)


def claim_name(name: str, taken: set[str]) -> str:
    """``name``, or the first ``name_<n>`` not in ``taken``, added to
    ``taken``."""
    name = unique_name(name, taken)
    taken.add(name)
    return name


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
    # An instance name never shadows a name the generated code reads.
    ir.names.update(INTRINSICS, *GENERATED_NAMES.values(),
                    model.cost_functions,
                    (variable.name for variable in model.variables))
    for node in perf_elements:
        stereotype = performance_stereotype(node)
        if stereotype not in ACTION_TABLE:
            continue
        instance = claim_name(
            mangle_identifier(node.name, lower_first=True), ir.names)
        ir.actions[node.id] = _resolve(node, stereotype, instance)

    # Flow (lines 29-35): structured region tree per diagram.  Every
    # diagram is parsed; backends inline sub-diagram regions at their
    # invocation sites (the paper nests SA's code inside the main activity).
    for diagram in model.diagrams:
        ir.regions[diagram.name] = FlowParser(diagram).parse()

    _check_invocations_resolve(ir)
    return ir


def _resolve(node: ActionNode, stereotype: str, instance: str) -> ActionSpec:
    kind, class_name, arg_tags = ACTION_TABLE[stereotype]
    fields: dict = {}
    for tag in arg_tags:
        if tag == "cost":
            source = cost_argument(node)
            fields["cost"] = (parse_expression(source)
                              if source is not None else None)
        elif tag in _LITERAL_DEFAULTS:
            value = node.tag_value(stereotype, tag, _LITERAL_DEFAULTS[tag])
            fields[tag] = int(value) if tag == "tag" else value
        else:
            raw = node.tag_value(stereotype, tag)
            fields["peer" if tag in ("dest", "source") else tag] = \
                parse_expression(raw if isinstance(raw, str) else "0")
    program = parse_program(node.code) if node.code is not None else None
    return ActionSpec(node, kind, class_name, instance, program,
                      args=tuple(fields.values()), **fields)


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
