"""Reference Figure-1 metrics (oracles for :mod:`repro.metrics`).

Sampling draws from the *sorted* node pool with the same RNG calls as the
library, and every sum is exact integer arithmetic, so each function here
returns the same float as its CSR twin.
"""

from __future__ import annotations

import numpy as np

from repro.graph.components import bfs_distances
from repro.graph.snapshot import GraphSnapshot
from repro.util.rng import make_rng
from tests.oracles.components import largest_component

__all__ = [
    "average_clustering",
    "average_path_length_sampled",
    "degree_assortativity",
    "local_clustering",
]


def local_clustering(graph: GraphSnapshot, node: int) -> float:
    """Clustering coefficient of one node (0.0 when degree < 2)."""
    neighbors = graph.adjacency[node]
    k = len(neighbors)
    if k < 2:
        return 0.0
    adjacency = graph.adjacency
    links = 0
    # Triangle counting visits every unordered pair exactly once, so the
    # count is independent of the enumeration order.
    nbrs = list(neighbors)
    for i, u in enumerate(nbrs):
        u_adj = adjacency[u]
        for v in nbrs[i + 1 :]:
            if v in u_adj:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(
    graph: GraphSnapshot,
    sample_size: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Mean local clustering over all nodes (or a uniform sample)."""
    if graph.num_nodes == 0:
        return float("nan")
    nodes = list(graph.nodes())
    if sample_size is not None and sample_size < len(nodes):
        # Sorted pool: sampling must not depend on adjacency insertion order.
        pool = np.fromiter(graph.nodes(), dtype=np.int64, count=len(nodes))
        pool.sort()
        generator = make_rng(rng)
        nodes = generator.choice(pool, size=sample_size, replace=False).tolist()
    return float(np.mean([local_clustering(graph, n) for n in nodes]))


def average_path_length_sampled(
    graph: GraphSnapshot,
    sample_size: int = 1000,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Average hop distance from sampled sources to all reachable nodes."""
    generator = make_rng(rng)
    component = largest_component(graph)
    if len(component) < 2:
        return float("nan")
    # Sort the sampling pool: set iteration order is an implementation
    # detail, and sampling must not depend on it.
    members = np.fromiter(component, dtype=np.int64, count=len(component))
    members.sort()
    k = min(sample_size, members.size)
    sources = generator.choice(members, size=k, replace=False)
    total = 0
    count = 0
    for source in sources:
        for node, dist in bfs_distances(graph, int(source)).items():
            if node != source:
                total += dist
                count += 1
    if count == 0:
        return float("nan")
    return total / count


def degree_assortativity(graph: GraphSnapshot) -> float:
    """Degree correlation over edges; ``nan`` when undefined (e.g. regular graphs)."""
    adjacency = graph.adjacency
    # Both orientations of every edge contribute, so the x- and y-series
    # are permutations of each other: sum(x) == sum(y), sum(x^2) == sum(y^2).
    n = 0
    s = 0  # sum of degrees over both orientations
    ss = 0  # sum of squared degrees over both orientations
    sxy = 0  # sum of du * dv over both orientations
    for u, v in graph.edges():
        du = len(adjacency[u])
        dv = len(adjacency[v])
        n += 2
        s += du + dv
        ss += du * du + dv * dv
        sxy += 2 * du * dv
    if n < 2:
        return float("nan")
    var = n * ss - s * s  # n^2 * variance, exact
    if var == 0:
        return float("nan")
    return float((n * sxy - s * s) / var)
