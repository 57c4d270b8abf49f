"""Reference BFS components (oracle for :mod:`repro.graph.components`).

Same ordering contract as the library: components sort by size (largest
first) with ties broken by smallest member id.
"""

from __future__ import annotations

from collections import deque

from repro.graph.snapshot import GraphSnapshot

__all__ = ["connected_components", "largest_component"]


def connected_components(graph: GraphSnapshot) -> list[set[int]]:
    """All connected components, largest first (ties: smallest member id)."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for root in graph.nodes():
        if root in seen:
            continue
        component = _bfs_component(graph, root)
        seen |= component
        components.append(component)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def largest_component(graph: GraphSnapshot) -> set[int]:
    """The node set of the largest component (empty graph → empty set).

    Equal-size components tie-break on the smallest member id, not on
    traversal order.
    """
    best: set[int] = set()
    seen: set[int] = set()
    for root in graph.nodes():
        if root in seen:
            continue
        component = _bfs_component(graph, root)
        seen |= component
        if len(component) > len(best) or (
            len(component) == len(best) and component and min(component) < min(best)
        ):
            best = component
    return best


def _bfs_component(graph: GraphSnapshot, root: int) -> set[int]:
    component = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        # Builds a set; membership is visit-order-independent.
        for nbr in graph.adjacency[node]:
            if nbr not in component:
                component.add(nbr)
                queue.append(nbr)
    return component
