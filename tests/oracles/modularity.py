"""Reference modularity and community edge counts (oracles for
:mod:`repro.community.modularity`).

Both walk the snapshot's adjacency sets.  The library computes the same
integers from bincounts over the CSR arrays and sums the modularity terms
in the same order (first appearance of each label in adjacency insertion
order), so the floats agree bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping

from repro.graph.snapshot import GraphSnapshot

__all__ = ["community_edge_stats", "modularity"]


def modularity(graph: GraphSnapshot, partition: Mapping[int, int]) -> float:
    """Modularity of ``partition`` on ``graph`` (0.0 when edgeless)."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    internal: dict[int, int] = defaultdict(int)
    degree_sum: dict[int, int] = defaultdict(int)
    for node, neighbors in graph.adjacency.items():
        c = partition[node]
        degree_sum[c] += len(neighbors)
    for u, v in graph.edges():
        if partition[u] == partition[v]:
            internal[partition[u]] += 1
    q = 0.0
    for c, d in degree_sum.items():
        q += internal.get(c, 0) / m - (d / (2.0 * m)) ** 2
    return q


def community_edge_stats(graph: GraphSnapshot, members: Iterable[int]) -> tuple[int, int]:
    """(internal edge count, total degree sum) for a member set."""
    member_set = set(members)
    internal2 = 0
    degree_sum = 0
    for node in member_set:
        neighbors = graph.adjacency[node]
        degree_sum += len(neighbors)
        internal2 += sum(1 for nbr in neighbors if nbr in member_set)
    return internal2 // 2, degree_sum
