"""The graph walks of :mod:`repro.util.graphs` against networkx.

networkx is the reference here: the program no longer loads it, so
these tests hold the stdlib walks to exactly what it answered, on
seeded random digraphs and on every diagram of the built-in models, the
every-kind model and a ``random_models`` corpus.  Equal ``find_cycle``
edges keep the checker's ``recursive behavior reference: …`` message
as it was.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.transform.flowgraph import FlowParser
from repro.util.graphs import (descendants, find_cycle, immediate_dominators,
                               reverse)

GRAPHS = 3000

#: Two entries into one loop, so neither loop node dominates the other.
IRREDUCIBLE = {0: [1, 2], 1: [2], 2: [1, 3], 3: []}


def random_successors(seed: int) -> dict[int, list[int]]:
    """A digraph on up to 12 nodes, keyed in shuffled order, that may
    hold self-loops, parallel edges and nodes no other node reaches."""
    rng = random.Random(seed)
    nodes = list(range(rng.randint(1, 12)))
    rng.shuffle(nodes)
    succ: dict[int, list[int]] = {node: [] for node in nodes}
    for _ in range(rng.randint(0, 3 * len(nodes))):
        succ[rng.choice(nodes)].append(rng.choice(nodes))
    return succ


def corpus() -> list[dict[int, list[int]]]:
    return [IRREDUCIBLE] + [random_successors(seed) for seed in range(GRAPHS)]


def to_digraph(succ) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(succ)
    graph.add_edges_from((node, target) for node, targets in succ.items()
                         for target in targets)
    return graph


def simple_graph(diagram) -> nx.DiGraph:
    """The diagram's digraph by node id, edges in model order, without
    the element data that ``to_networkx()`` carries and ``reverse()``
    would deep-copy."""
    graph = nx.DiGraph()
    graph.add_nodes_from(node.id for node in diagram.nodes)
    graph.add_edges_from((edge.source.id, edge.target.id)
                         for edge in diagram.edges)
    return graph


def nx_cycle(graph):
    try:
        return nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None


def nx_idom(graph, start) -> dict:
    """networkx's map without ``start``, which older releases include."""
    idom = nx.immediate_dominators(graph, start)
    idom.pop(start, None)
    return idom


class TestRandomDigraphs:
    def test_corpus_has_the_hard_shapes(self):
        graphs = corpus()
        assert any(n in targets for g in graphs for n, targets in g.items())
        assert any(len(set(t)) < len(t) for g in graphs for t in g.values())
        assert any(len(descendants(g, next(iter(g)))) + 1 < len(g)
                   for g in graphs)

    def test_descendants(self):
        for succ in corpus():
            graph = to_digraph(succ)
            for node in succ:
                assert descendants(succ, node) == nx.descendants(graph, node)

    def test_find_cycle(self):
        for succ in corpus():
            assert find_cycle(succ) == nx_cycle(to_digraph(succ)), succ

    def test_immediate_dominators(self):
        for succ in corpus():
            graph = to_digraph(succ)
            for start in list(succ)[:3]:
                assert immediate_dominators(succ, start) == \
                    nx_idom(graph, start), (succ, start)


def model_corpus():
    from repro.service.registry import builtin_model_builders
    from repro.uml.random_models import RandomModelConfig, random_model
    from tests.transform.emitter_golden import every_kind_model
    config = RandomModelConfig(target_actions=15, max_depth=3,
                               p_decision=0.3, p_loop=0.2, p_activity=0.2,
                               p_fork=0.2, p_collective=0.3)
    models = [build() for build in builtin_model_builders().values()]
    models.append(every_kind_model())
    models.extend(random_model(seed, config) for seed in range(20))
    return models


@pytest.fixture(scope="module")
def diagrams():
    return [d for model in model_corpus() for d in model.diagrams]


class TestModelDiagrams:
    def test_descendants(self, diagrams):
        for diagram in diagrams:
            succ = diagram.successor_map()
            graph = diagram.to_networkx()
            for node in succ:
                assert descendants(succ, node) == nx.descendants(graph, node)
                assert descendants(reverse(succ), node) == \
                    nx.ancestors(graph, node)

    def test_find_cycle(self, diagrams):
        cycles = 0
        for diagram in diagrams:
            expected = nx_cycle(simple_graph(diagram))
            assert find_cycle(diagram.successor_map()) == expected
            cycles += expected is not None
        assert cycles, "the corpus draws no loop"

    def test_post_dominators(self, diagrams):
        """The flow parser's map equals networkx's on the graph it was
        built from: back edges dropped, reversed, a virtual exit (-1)
        joined to every final node."""
        for diagram in diagrams:
            parser = FlowParser(diagram)
            graph = simple_graph(diagram)
            graph.remove_edges_from(parser._back_edges)
            graph = graph.reverse()
            graph.add_edges_from((-1, final.id)
                                 for final in diagram.final_nodes())
            assert parser._postdom == nx_idom(graph, -1), diagram.name
