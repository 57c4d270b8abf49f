"""Newman-Girvan modularity of a partition (from scratch).

``Q = Σ_c [ L_c / m  -  (D_c / 2m)² ]`` where ``L_c`` is the number of
intra-community edges, ``D_c`` the total degree of community ``c`` and
``m`` the number of edges.  The paper uses Q > 0.3 as the significance bar
(citing [19]) and observes Q > 0.4 on all Renren snapshots (Fig 4a).

Both ``L_c`` and ``D_c`` come from integer bincounts over the CSR arrays
of :class:`~repro.kernels.csr.CSRGraph` (:func:`community_edge_stats`),
the view Louvain already holds, so scoring a partition never walks Python
adjacency sets.  The per-community terms are summed in first-appearance
order of each label in CSR position order (= adjacency insertion order),
the order the dict reference in ``tests/oracles/modularity.py`` uses, so
the float is bit-identical to it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph

__all__ = ["community_edge_stats", "modularity", "partition_communities"]


def partition_communities(partition: Mapping[int, int]) -> dict[int, set[int]]:
    """Invert a ``node → community`` map into ``community → node set``."""
    communities: dict[int, set[int]] = defaultdict(set)
    for node, community in partition.items():
        communities[community].add(node)
    return dict(communities)


def community_edge_stats(
    csr: CSRGraph, partition: Mapping[int, int]
) -> dict[int, tuple[int, int]]:
    """``label → (internal edge count, degree sum)`` for every community.

    Keys follow the first appearance of each label in CSR position order.
    Every node of ``csr`` must be assigned (raises :class:`KeyError`
    otherwise); labels of nodes outside the graph are ignored.
    """
    n = csr.num_nodes
    if n == 0:
        return {}
    labels = np.fromiter(
        (partition[node] for node in csr.node_ids.tolist()), dtype=np.int64, count=n
    )
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    # Community of each directed edge's source and target; rows are
    # contiguous in position order, so repeating per degree gives sources.
    src = np.repeat(inverse, csr.degrees)
    dst = inverse[csr.indices]
    degree_sum = np.bincount(src, minlength=uniq.size)
    internal = np.bincount(src[src == dst], minlength=uniq.size) // 2
    order = np.argsort(first, kind="stable")
    return dict(
        zip(
            uniq[order].tolist(),
            zip(internal[order].tolist(), degree_sum[order].tolist(), strict=True),
            strict=True,
        )
    )


def modularity(
    graph: GraphSnapshot,
    partition: Mapping[int, int],
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Modularity of ``partition`` on ``graph``.

    Every node of the graph must be assigned (raises :class:`KeyError`
    otherwise); returns 0.0 for an edgeless graph.  ``csr`` optionally
    reuses a prebuilt :class:`~repro.kernels.csr.CSRGraph` of the same
    snapshot.
    """
    m = graph.num_edges
    if m == 0:
        return 0.0
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    q = 0.0
    for internal, degree_sum in community_edge_stats(csr, partition).values():
        q += internal / m - (degree_sum / (2.0 * m)) ** 2
    return q
