"""Graph-structural well-formedness rules.

These guarantee that each diagram is a well-formed activity graph the
transformation can turn into structured code: unique ids, one initial node,
reachable/coreachable nodes, correctly shaped control nodes, and acyclic
behavior references between diagrams.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.checker.diagnostics import Diagnostic, Severity
from repro.checker.rules import CheckContext, Rule, register
from repro.uml.activities import (
    ActionNode,
    ActivityFinalNode,
    ActivityInvocationNode,
    DecisionNode,
    ForkNode,
    InitialNode,
    JoinNode,
    LoopNode,
    MergeNode,
    ParallelRegionNode,
)
from repro.util.graphs import descendants, find_cycle, reverse


@register
class UniqueIdsRule(Rule):
    rule_id = "unique-ids"
    description = "Element ids are unique across the whole model."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        seen: dict[int, str] = {}
        for element in ctx.model.iter_tree():
            other = seen.get(element.id)
            if other is not None:
                yield self.diag(
                    f"id {element.id} used by both {other} and {element!r}",
                    element_id=element.id)
            else:
                seen[element.id] = repr(element)


@register
class MainDiagramRule(Rule):
    rule_id = "main-diagram"
    description = "The model designates an existing, non-empty main diagram."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        model = ctx.model
        if model.main_diagram_name is None:
            yield self.diag("model has no main diagram")
            return
        if not model.has_diagram(model.main_diagram_name):
            yield self.diag(
                f"main diagram {model.main_diagram_name!r} does not exist")


@register
class EmptyDiagramRule(Rule):
    rule_id = "empty-diagram"
    description = "Diagrams contain at least one node."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            if len(diagram) == 0:
                yield self.diag("diagram is empty", diagram=diagram.name)


@register
class SingleInitialRule(Rule):
    rule_id = "single-initial"
    description = "Each diagram has exactly one initial node."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            if len(diagram) == 0:
                continue
            initials = diagram.initial_nodes()
            if len(initials) != 1:
                yield self.diag(
                    f"diagram has {len(initials)} initial nodes, expected 1",
                    diagram=diagram.name)


@register
class HasFinalRule(Rule):
    rule_id = "has-final"
    description = "Each diagram has at least one final node."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            if len(diagram) == 0:
                continue
            if not diagram.final_nodes():
                yield self.diag("diagram has no final node",
                                diagram=diagram.name)


@register
class EdgeArityRule(Rule):
    rule_id = "edge-arity"
    description = ("Initial/final/action nodes have structured edge counts; "
                   "decisions/forks branch, merges/joins converge.")

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            for node in diagram.nodes:
                n_in, n_out = len(node.incoming), len(node.outgoing)
                where = dict(element_id=node.id, diagram=diagram.name)
                if isinstance(node, InitialNode):
                    if n_in != 0:
                        yield self.diag(
                            f"initial node {node.name!r} has incoming edges",
                            **where)
                    if n_out != 1:
                        yield self.diag(
                            f"initial node {node.name!r} has {n_out} outgoing "
                            "edges, expected 1", **where)
                elif isinstance(node, ActivityFinalNode):
                    if n_out != 0:
                        yield self.diag(
                            f"final node {node.name!r} has outgoing edges",
                            **where)
                    if n_in < 1:
                        yield self.diag(
                            f"final node {node.name!r} is never reached",
                            **where)
                elif isinstance(node, DecisionNode):
                    if n_out < 2:
                        yield self.diag(
                            f"decision {node.name!r} has {n_out} outgoing "
                            "edges, expected >= 2", **where)
                    if n_in != 1:
                        yield self.diag(
                            f"decision {node.name!r} has {n_in} incoming "
                            "edges, expected 1", **where)
                elif isinstance(node, MergeNode):
                    if n_out != 1:
                        yield self.diag(
                            f"merge {node.name!r} has {n_out} outgoing edges, "
                            "expected 1", **where)
                    if n_in < 2:
                        yield self.diag(
                            f"merge {node.name!r} has {n_in} incoming edges, "
                            "expected >= 2", **where)
                elif isinstance(node, ForkNode):
                    if n_out < 2:
                        yield self.diag(
                            f"fork {node.name!r} has {n_out} outgoing edges, "
                            "expected >= 2", **where)
                    if n_in != 1:
                        yield self.diag(
                            f"fork {node.name!r} has {n_in} incoming edges, "
                            "expected 1", **where)
                elif isinstance(node, JoinNode):
                    if n_out != 1:
                        yield self.diag(
                            f"join {node.name!r} has {n_out} outgoing edges, "
                            "expected 1", **where)
                    if n_in < 2:
                        yield self.diag(
                            f"join {node.name!r} has {n_in} incoming edges, "
                            "expected >= 2", **where)
                else:
                    # Actions, activities, loops, parallel regions: simple
                    # single-entry single-exit elements.
                    if n_in != 1:
                        yield self.diag(
                            f"node {node.name!r} has {n_in} incoming edges, "
                            "expected 1", **where)
                    if n_out != 1:
                        yield self.diag(
                            f"node {node.name!r} has {n_out} outgoing edges, "
                            "expected 1", **where)


@register
class UnreachableNodesRule(Rule):
    rule_id = "unreachable-nodes"
    description = "Every node is reachable from the initial node."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            if not diagram.initial_nodes():
                continue  # single-initial already reports
            reachable = diagram.reachable_from_initial()
            for node in diagram.nodes:
                if node.id not in reachable:
                    yield self.diag(
                        f"node {node.name!r} is unreachable from the "
                        "initial node",
                        element_id=node.id, diagram=diagram.name)


@register
class CanReachFinalRule(Rule):
    rule_id = "can-reach-final"
    default_severity = Severity.WARNING
    description = "Every node can reach a final node (no dead cycles)."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            finals = diagram.final_nodes()
            if not finals:
                continue
            pred = reverse(diagram.successor_map())
            coreachable: set[int] = set()
            for final in finals:
                coreachable |= {final.id} | descendants(pred, final.id)
            for node in diagram.nodes:
                if node.id not in coreachable:
                    yield self.diag(
                        f"node {node.name!r} cannot reach any final node",
                        element_id=node.id, diagram=diagram.name)


@register
class DecisionGuardsRule(Rule):
    rule_id = "decision-guards"
    description = ("Decision outputs carry guards; at most one 'else'; "
                   "non-decision edges carry no guards.")

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            for node in diagram.nodes:
                if isinstance(node, DecisionNode):
                    else_edges = [e for e in node.outgoing
                                  if e.guard == "else"]
                    if len(else_edges) > 1:
                        yield self.diag(
                            f"decision {node.name!r} has "
                            f"{len(else_edges)} 'else' branches",
                            element_id=node.id, diagram=diagram.name)
                    unguarded = [e for e in node.outgoing if e.guard is None]
                    for edge in unguarded:
                        yield self.diag(
                            f"unguarded branch from decision {node.name!r} "
                            f"to {edge.target.name!r}",
                            element_id=edge.id, diagram=diagram.name)
                    if not else_edges and not unguarded:
                        # All-guarded decisions may fall through at runtime;
                        # flag as warning through a dedicated diagnostic.
                        yield Diagnostic(
                            self.rule_id, Severity.WARNING,
                            f"decision {node.name!r} has no 'else' branch; "
                            "execution falls through the merge if no guard "
                            "holds",
                            element_id=node.id, diagram=diagram.name)
                else:
                    for edge in node.outgoing:
                        if edge.guard is not None:
                            yield self.diag(
                                f"edge from non-decision node {node.name!r} "
                                f"carries guard {edge.guard!r}",
                                element_id=edge.id, diagram=diagram.name)


@register
class ForkJoinBalanceRule(Rule):
    rule_id = "fork-join-balance"
    description = "Forks and joins are balanced within each diagram."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        for diagram in ctx.model.diagrams:
            forks = sum(isinstance(n, ForkNode) for n in diagram.nodes)
            joins = sum(isinstance(n, JoinNode) for n in diagram.nodes)
            if forks != joins:
                yield self.diag(
                    f"diagram has {forks} fork(s) but {joins} join(s)",
                    diagram=diagram.name)


@register
class BehaviorResolvesRule(Rule):
    rule_id = "behavior-resolves"
    description = ("activity+/loop+/parallel+ behavior references resolve "
                   "to existing diagrams, acyclically.")

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        model = ctx.model
        calls: dict[str, list[str]] = {d.name: [] for d in model.diagrams}
        for diagram in model.diagrams:
            for node in diagram.nodes:
                behavior = getattr(node, "behavior", None)
                if behavior is None:
                    continue
                if not model.has_diagram(behavior):
                    yield self.diag(
                        f"node {node.name!r} references missing diagram "
                        f"{behavior!r}",
                        element_id=node.id, diagram=diagram.name)
                else:
                    calls[diagram.name].append(behavior)
        cycle = find_cycle(calls)
        if cycle is None:
            return
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[-1][1]}"
        yield self.diag(f"recursive behavior reference: {path}")


@register
class DuplicateNamesRule(Rule):
    rule_id = "duplicate-names"
    default_severity = Severity.WARNING
    description = ("Performance-element names are unique across the model "
                   "(code generation derives identifiers from them).")

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        from repro.uml.perf_profile import is_performance_element
        counts = Counter(
            node.name for node in ctx.model.all_nodes()
            if is_performance_element(node))
        for name, count in counts.items():
            if count > 1:
                yield self.diag(
                    f"{count} performance elements share the name {name!r}; "
                    "generated identifiers will be disambiguated")


@register
class StructuredFlowRule(Rule):
    rule_id = "structured-flow"
    description = ("Each diagram's control flow reconstructs into "
                   "structured code (the Fig. 5 transformation will "
                   "succeed).")

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        from repro.errors import UnstructuredFlowError
        from repro.transform.flowgraph import FlowParser
        for diagram in ctx.model.diagrams:
            if len(diagram) == 0 or len(diagram.initial_nodes()) != 1:
                continue  # other rules already report these
            try:
                FlowParser(diagram).parse()
            except UnstructuredFlowError as exc:
                yield self.diag(str(exc), diagram=diagram.name)
            except Exception as exc:  # pragma: no cover - defensive
                yield self.diag(
                    f"flow reconstruction failed unexpectedly: {exc}",
                    diagram=diagram.name)


@register
class ModelSizeRule(Rule):
    rule_id = "model-size"
    default_severity = Severity.INFO
    description = "Model stays within the MCF's max-nodes parameter."

    def check(self, ctx: CheckContext) -> Iterator[Diagnostic]:
        raw = ctx.params.get("max-nodes")
        if raw is None:
            return
        limit = int(raw)
        total = ctx.model.statistics()["nodes"]
        if total > limit:
            yield self.diag(
                f"model has {total} nodes, exceeding the MCF limit of "
                f"{limit}")
