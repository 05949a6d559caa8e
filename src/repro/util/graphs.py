"""The graph walks the checker and the flow parser need.

Each takes a successor map: every node maps to an iterable of its
successors, and every successor is a key.  Where order shows in a
result, map order and successor order decide it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

Successors = Mapping[Hashable, Iterable[Hashable]]


def reverse(succ: Successors) -> dict[Hashable, list[Hashable]]:
    """The predecessor map of ``succ``: every node of ``succ`` is a key."""
    pred: dict[Hashable, list[Hashable]] = {node: [] for node in succ}
    for node, targets in succ.items():
        for target in targets:
            pred[target].append(node)
    return pred


def descendants(succ: Successors, source: Hashable) -> set[Hashable]:
    """Nodes reachable from ``source`` along one edge or more, ``source``
    itself left out even when a cycle returns to it."""
    seen = {source}
    stack = [source]
    while stack:
        for target in succ[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    seen.discard(source)
    return seen


def find_cycle(succ: Successors) -> list[tuple[Hashable, Hashable]] | None:
    """The edges of the first cycle a depth-first search meets, from the
    node the closing edge returns to, or None for an acyclic graph.

    Roots are tried in map order and successors in their order, so the
    cycle is the one ``networkx.find_cycle`` reports.
    """
    done: set[Hashable] = set()
    for root in succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(succ[root])]
        while pending:
            for target in pending[-1]:
                if target in on_path:
                    nodes = path[path.index(target):] + [target]
                    return list(zip(nodes, nodes[1:]))
                if target not in done:
                    path.append(target)
                    on_path.add(target)
                    pending.append(iter(succ[target]))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                pending.pop()
    return None


def immediate_dominators(succ: Successors,
                         start: Hashable) -> dict[Hashable, Hashable]:
    """Immediate dominator of every node reachable from ``start``, with
    ``start`` left out (Cooper, Harvey and Kennedy, "A simple, fast
    dominance algorithm", 2001)."""
    postorder: list[Hashable] = []
    seen = {start}
    stack = [(start, iter(succ[start]))]
    while stack:
        node, targets = stack[-1]
        for target in targets:
            if target not in seen:
                seen.add(target)
                stack.append((target, iter(succ[target])))
                break
        else:
            stack.pop()
            postorder.append(node)
    rank = {node: i for i, node in enumerate(postorder)}
    pred: dict[Hashable, list[Hashable]] = {node: [] for node in postorder}
    for node in postorder:
        for target in succ[node]:
            pred[target].append(node)

    idom = {start: start}

    def intersect(a: Hashable, b: Hashable) -> Hashable:
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(postorder[:-1]):
            new = None
            for p in pred[node]:
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    del idom[start]
    return idom
