"""Activity diagrams: node/edge containers with structural queries.

A diagram owns its nodes and edges (the model tree of Fig. 5's caption:
model → diagrams → elements).  Graph-structural queries (reachability,
initial/final nodes, successor maps) live here; semantic checks live in
:mod:`repro.checker`.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DiagramError
from repro.uml.activities import (
    ActivityFinalNode,
    ActivityNode,
    ControlFlow,
    InitialNode,
)
from repro.uml.element import NamedElement
from repro.util.graphs import descendants


class ActivityDiagram(NamedElement):
    """One activity diagram: a named directed graph of activity nodes."""

    metaclass = "Activity"

    def __init__(self, element_id: int, name: str) -> None:
        super().__init__(element_id, name)
        self._nodes: dict[int, ActivityNode] = {}
        self._edges: dict[int, ControlFlow] = {}

    # -- construction --------------------------------------------------------

    def add_node(self, node: ActivityNode) -> ActivityNode:
        if node.id in self._nodes:
            raise DiagramError(
                f"diagram {self.name!r} already contains a node with "
                f"id {node.id}")
        self._nodes[node.id] = node
        self._adopt(node)
        return node

    def add_edge(self, edge: ControlFlow) -> ControlFlow:
        if edge.id in self._edges:
            raise DiagramError(
                f"diagram {self.name!r} already contains an edge with "
                f"id {edge.id}")
        for endpoint in (edge.source, edge.target):
            if endpoint.id not in self._nodes \
                    or self._nodes[endpoint.id] is not endpoint:
                raise DiagramError(
                    f"edge endpoints must be nodes of diagram {self.name!r}; "
                    f"{endpoint.name!r} is not")
        self._edges[edge.id] = edge
        self._adopt(edge)
        return edge

    # -- access ----------------------------------------------------------

    @property
    def nodes(self) -> list[ActivityNode]:
        return list(self._nodes.values())

    @property
    def edges(self) -> list[ControlFlow]:
        return list(self._edges.values())

    def node_by_id(self, node_id: int) -> ActivityNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DiagramError(
                f"diagram {self.name!r} has no node with id {node_id}"
            ) from None

    def node_by_name(self, name: str) -> ActivityNode:
        matches = [n for n in self._nodes.values() if n.name == name]
        if not matches:
            raise DiagramError(
                f"diagram {self.name!r} has no node named {name!r}")
        if len(matches) > 1:
            raise DiagramError(
                f"diagram {self.name!r} has {len(matches)} nodes named "
                f"{name!r}")
        return matches[0]

    def owned_elements(self) -> Iterator[ActivityNode | ControlFlow]:
        yield from self._nodes.values()
        yield from self._edges.values()

    def __len__(self) -> int:
        return len(self._nodes)

    # -- structure ---------------------------------------------------------

    def initial_nodes(self) -> list[InitialNode]:
        return [n for n in self._nodes.values() if isinstance(n, InitialNode)]

    def final_nodes(self) -> list[ActivityFinalNode]:
        return [n for n in self._nodes.values()
                if isinstance(n, ActivityFinalNode)]

    def initial_node(self) -> InitialNode:
        """The unique initial node; raises if absent or ambiguous."""
        initials = self.initial_nodes()
        if len(initials) != 1:
            raise DiagramError(
                f"diagram {self.name!r} has {len(initials)} initial nodes, "
                "expected exactly 1")
        return initials[0]

    def successor_map(self) -> dict[int, list[int]]:
        """Node id → the ids of its successors, each once, in edge order."""
        succ: dict[int, dict[int, None]] = {node: {} for node in self._nodes}
        for edge in self._edges.values():
            succ[edge.source.id][edge.target.id] = None
        return {node: list(targets) for node, targets in succ.items()}

    def to_networkx(self) -> "networkx.MultiDiGraph":
        """Graph view keyed by node id; edge data carries the edge object.

        A MultiDiGraph because two nodes may be connected by several guarded
        edges (decision with two branches to the same merge).  Needs the
        ``networkx`` package, which nothing else in the program loads.
        """
        import networkx as nx
        graph = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(node.id, element=node)
        for edge in self._edges.values():
            graph.add_edge(edge.source.id, edge.target.id, key=edge.id,
                           element=edge)
        return graph

    def reachable_from_initial(self) -> set[int]:
        """Ids of nodes reachable from the initial node (empty if none)."""
        initials = self.initial_nodes()
        if not initials:
            return set()
        succ = self.successor_map()
        reachable: set[int] = set()
        for initial in initials:
            reachable |= {initial.id} | descendants(succ, initial.id)
        return reachable
