"""Structured control-flow reconstruction.

An activity diagram is a digraph; C++ needs structured statements.  This
module parses a diagram into a *region tree*:

* :class:`LeafRegion` — one executable element (action, communication,
  activity/loop/parallel invocation);
* :class:`SequenceRegion` — ordered sub-regions;
* :class:`BranchRegion` — decision/merge diamond → ``if/else-if/else``
  (the paper's Fig. 8 lines 77-87 mapping);
* :class:`ForkRegion` — fork/join → concurrent sections;
* :class:`CycleRegion` — a drawn loop (merge header + exit decision +
  back edge) → ``while (true) { ...; if (exit) break; ... }``.

Decision/merge pairing uses immediate post-dominators on the flow graph;
drawn loops are discovered via DFS back edges and natural-loop membership.
Graphs that defeat these rules (multi-entry loops, criss-crossing
branches) raise :class:`~repro.errors.UnstructuredFlowError` — Teuta's
GUI prevents drawing them, so the transformation may reject them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnstructuredFlowError
from repro.uml.activities import (
    ActivityFinalNode,
    ActivityNode,
    ControlFlow,
    DecisionNode,
    ForkNode,
    InitialNode,
    JoinNode,
    MergeNode,
)
from repro.uml.diagram import ActivityDiagram
from repro.util.graphs import immediate_dominators, reverse

_VIRTUAL_EXIT = -1  # node id of the synthetic exit in dominator analyses


# ---------------------------------------------------------------------------
# Region tree
# ---------------------------------------------------------------------------

@dataclass
class Region:
    """Base class of region-tree nodes."""

    def leaves(self):
        """Yield all LeafRegion nodes, left to right."""
        yield from ()


@dataclass
class LeafRegion(Region):
    node: ActivityNode

    def leaves(self):
        yield self


@dataclass
class SequenceRegion(Region):
    items: list[Region] = field(default_factory=list)

    def leaves(self):
        for item in self.items:
            yield from item.leaves()


@dataclass
class BranchRegion(Region):
    """``arms`` are (guard_source, region) in model order; ``else_arm`` may
    be an empty SequenceRegion when the decision jumps straight to merge."""

    decision: DecisionNode
    arms: list[tuple[str, Region]]
    else_arm: Region | None
    merge: MergeNode | None

    def leaves(self):
        for _, region in self.arms:
            yield from region.leaves()
        if self.else_arm is not None:
            yield from self.else_arm.leaves()


@dataclass
class ForkRegion(Region):
    fork: ForkNode
    arms: list[Region]
    join: JoinNode

    def leaves(self):
        for arm in self.arms:
            yield from arm.leaves()


@dataclass
class CycleRegion(Region):
    """A drawn loop.

    Emitted as ``while (true) { <pre>; if (<break_cond>) break; <post>; }``
    where ``break_cond`` is the exit-edge guard (or the negated stay-edge
    guard when the exit is the ``else`` branch).
    """

    header: ActivityNode
    pre: Region                    # from header to the exit decision
    decision: DecisionNode
    break_condition: str | None    # None: negate stay guard instead
    negated_stay_guard: str | None
    post: Region                   # from the stay edge back to the header

    def leaves(self):
        yield from self.pre.leaves()
        yield from self.post.leaves()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class FlowParser:
    """Parses one diagram into a region tree rooted at a SequenceRegion."""

    def __init__(self, diagram: ActivityDiagram) -> None:
        self.diagram = diagram
        self.initial = diagram.initial_node()
        self._succ = diagram.successor_map()
        self._back_edges = self._find_back_edges()
        self._loop_bodies = self._natural_loops()
        self._postdom = self._post_dominators()

    # -- graph precomputation ------------------------------------------------

    def _find_back_edges(self) -> set[tuple[int, int]]:
        """DFS back edges reachable from the initial node."""
        back: set[tuple[int, int]] = set()
        color: dict[int, int] = {}  # 0 unseen / 1 on stack / 2 done
        stack: list[tuple[int, list[int]]] = [
            (self.initial.id, list(self._succ[self.initial.id]))]
        color[self.initial.id] = 1
        while stack:
            node, successors = stack[-1]
            if successors:
                nxt = successors.pop()
                state = color.get(nxt, 0)
                if state == 1:
                    back.add((node, nxt))
                elif state == 0:
                    color[nxt] = 1
                    stack.append((nxt, list(self._succ[nxt])))
            else:
                color[node] = 2
                stack.pop()
        return back

    def _natural_loops(self) -> dict[int, set[int]]:
        """header id → loop body node ids (header included)."""
        bodies: dict[int, set[int]] = {}
        pred = reverse(self._succ)
        for source, header in self._back_edges:
            body = {header, source}
            # Nodes that reach `source` without passing through `header`.
            stack = [source]
            while stack:
                node = stack.pop()
                for prev in pred[node]:
                    if prev not in body and prev != header:
                        body.add(prev)
                        stack.append(prev)
            bodies.setdefault(header, set()).update(body)
        return bodies

    def _post_dominators(self) -> dict[int, int]:
        """Immediate post-dominators, computed as dominators on the
        reversed graph from a virtual exit joined to all final nodes.
        Back edges are removed first so loops do not hide the join points
        of branches inside them."""
        reversed_graph = reverse(
            {node: [t for t in targets if (node, t) not in self._back_edges]
             for node, targets in self._succ.items()})
        # Loop exit decisions post-dominate through their exit edge only;
        # the removed back edges already ensure acyclicity.
        reversed_graph[_VIRTUAL_EXIT] = [
            node.id for node in self.diagram.nodes
            if isinstance(node, ActivityFinalNode)]
        if not reversed_graph[_VIRTUAL_EXIT]:
            raise UnstructuredFlowError(
                f"diagram {self.diagram.name!r} has no final node")
        return immediate_dominators(reversed_graph, _VIRTUAL_EXIT)

    # -- public API ---------------------------------------------------------

    def parse(self) -> SequenceRegion:
        """Region tree for the whole diagram (initial/final excluded)."""
        successors = self.initial.successors()
        if len(successors) != 1:
            raise UnstructuredFlowError(
                f"initial node of {self.diagram.name!r} must have exactly "
                f"one outgoing edge, has {len(successors)}")
        return self._parse_sequence(successors[0], stop=None,
                                    exclude_headers=frozenset())

    # -- recursive descent over the graph -------------------------------------

    def _parse_sequence(self, node: ActivityNode | None,
                        stop: ActivityNode | None,
                        exclude_headers: frozenset[int]) -> SequenceRegion:
        """Parse a straight-line segment from ``node`` until ``stop`` (or a
        final node).  ``exclude_headers`` holds headers of loops currently
        being parsed, so the walk does not re-enter them."""
        items: list[Region] = []
        current = node
        while current is not None and current is not stop:
            if isinstance(current, ActivityFinalNode):
                break
            if (current.id in self._loop_bodies
                    and current.id not in exclude_headers):
                region, current = self._parse_loop(current, exclude_headers)
                items.append(region)
                continue
            if isinstance(current, DecisionNode):
                region, current = self._parse_branch(current, exclude_headers)
                items.append(region)
                continue
            if isinstance(current, ForkNode):
                region, current = self._parse_fork(current, exclude_headers)
                items.append(region)
                continue
            if isinstance(current, MergeNode):
                # A plain pass-through merge (merges closing a branch are
                # `stop` nodes of its arms; loop headers are handled above).
                current = self._single_successor(current)
                continue
            if isinstance(current, JoinNode):
                raise UnstructuredFlowError(
                    f"join {current.name!r} reached outside a fork arm in "
                    f"diagram {self.diagram.name!r}")
            # Executable leaf element.
            items.append(LeafRegion(current))
            current = self._single_successor(current)
        return SequenceRegion(items)

    def _single_successor(self, node: ActivityNode) -> ActivityNode | None:
        successors = node.successors()
        if len(successors) == 0:
            return None
        if len(successors) != 1:
            raise UnstructuredFlowError(
                f"node {node.name!r} in diagram {self.diagram.name!r} has "
                f"{len(successors)} successors where 1 is expected")
        return successors[0]

    # -- branches -------------------------------------------------------------

    def _parse_branch(self, decision: DecisionNode,
                      exclude_headers: frozenset[int]
                      ) -> tuple[BranchRegion, ActivityNode | None]:
        merge_id = self._postdom.get(decision.id)
        if merge_id is None:
            raise UnstructuredFlowError(
                f"decision {decision.name!r} has no post-dominator in "
                f"diagram {self.diagram.name!r}")
        merge_node: ActivityNode | None
        if merge_id == _VIRTUAL_EXIT:
            merge_node = None
        else:
            merge_node = self.diagram.node_by_id(merge_id)
        arms: list[tuple[str, Region]] = []
        else_arm: Region | None = None
        for edge in decision.outgoing:
            target = edge.target
            arm = (SequenceRegion([])
                   if target is merge_node
                   else self._parse_sequence(target, merge_node,
                                             exclude_headers))
            if edge.guard == "else" or edge.guard is None:
                if else_arm is not None:
                    raise UnstructuredFlowError(
                        f"decision {decision.name!r} has multiple "
                        "else/unguarded branches")
                else_arm = arm
            else:
                arms.append((edge.guard, arm))
        if not arms:
            raise UnstructuredFlowError(
                f"decision {decision.name!r} has no guarded branch")
        continuation: ActivityNode | None = None
        merge: MergeNode | None = None
        if merge_node is not None:
            if isinstance(merge_node, MergeNode):
                merge = merge_node
                continuation = self._single_successor(merge_node)
            else:
                # Branches reconverge at a non-merge node (e.g. both arms
                # flow straight into the same action).
                continuation = merge_node
        return BranchRegion(decision, arms, else_arm, merge), continuation

    # -- forks ----------------------------------------------------------------

    def _parse_fork(self, fork: ForkNode,
                    exclude_headers: frozenset[int]
                    ) -> tuple[ForkRegion, ActivityNode | None]:
        join_id = self._postdom.get(fork.id)
        if join_id is None or join_id == _VIRTUAL_EXIT:
            raise UnstructuredFlowError(
                f"fork {fork.name!r} has no joining node in diagram "
                f"{self.diagram.name!r}")
        join_node = self.diagram.node_by_id(join_id)
        if not isinstance(join_node, JoinNode):
            raise UnstructuredFlowError(
                f"fork {fork.name!r} reconverges at {join_node.name!r}, "
                "which is not a join node")
        arms = [self._parse_sequence(edge.target, join_node, exclude_headers)
                for edge in fork.outgoing]
        return (ForkRegion(fork, arms, join_node),
                self._single_successor(join_node))

    # -- drawn loops -----------------------------------------------------------

    def _parse_loop(self, header: ActivityNode,
                    exclude_headers: frozenset[int]
                    ) -> tuple[CycleRegion, ActivityNode | None]:
        body = self._loop_bodies[header.id]
        back_sources = {source for source, target in self._back_edges
                        if target == header.id}
        if len(back_sources) != 1:
            raise UnstructuredFlowError(
                f"loop at {header.name!r} has {len(back_sources)} back "
                "edges; only single-back-edge loops are structured")
        # Find the unique exit decision: a decision in the body with one
        # edge leaving the body.
        exits: list[tuple[DecisionNode, ControlFlow]] = []
        for node_id in body:
            node = self.diagram.node_by_id(node_id)
            for edge in node.outgoing:
                if edge.target.id not in body:
                    if not isinstance(node, DecisionNode):
                        raise UnstructuredFlowError(
                            f"loop at {header.name!r} is exited from "
                            f"non-decision node {node.name!r}")
                    exits.append((node, edge))
        if len(exits) != 1:
            raise UnstructuredFlowError(
                f"loop at {header.name!r} has {len(exits)} exit edges; "
                "expected exactly 1")
        decision, exit_edge = exits[0]
        stay_edges = [e for e in decision.outgoing if e is not exit_edge]
        if len(stay_edges) != 1:
            raise UnstructuredFlowError(
                f"loop exit decision {decision.name!r} must have exactly "
                f"2 outgoing edges, has {len(decision.outgoing)}")
        stay_edge = stay_edges[0]

        if exit_edge.guard not in (None, "else"):
            break_condition: str | None = exit_edge.guard
            negated_stay = None
        elif stay_edge.guard not in (None, "else"):
            break_condition = None
            negated_stay = stay_edge.guard
        else:
            raise UnstructuredFlowError(
                f"loop exit decision {decision.name!r} has no usable guard")

        # pre: from the header (inclusive if executable) to the decision.
        inner_exclude = exclude_headers | {header.id}
        pre_start = header if not isinstance(header, MergeNode) \
            else self._single_successor_in(header, body)
        pre = self._parse_sequence(pre_start, decision, inner_exclude)
        # post: from the stay edge target back to the header.
        post = (SequenceRegion([])
                if stay_edge.target is header
                else self._parse_sequence(stay_edge.target, header,
                                          inner_exclude))
        continuation = exit_edge.target \
            if not isinstance(exit_edge.target, ActivityFinalNode) else None
        region = CycleRegion(header, pre, decision, break_condition,
                             negated_stay, post)
        return region, continuation

    def _single_successor_in(self, node: ActivityNode,
                             body: set[int]) -> ActivityNode:
        successors = [s for s in node.successors() if s.id in body]
        if len(successors) != 1:
            raise UnstructuredFlowError(
                f"loop header {node.name!r} must have exactly one "
                f"successor inside the loop, has {len(successors)}")
        return successors[0]


def parse_diagram(diagram: ActivityDiagram) -> SequenceRegion:
    """Convenience wrapper: region tree of ``diagram``."""
    return FlowParser(diagram).parse()
