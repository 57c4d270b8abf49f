"""Average clustering coefficient (Figure 1e).

Local clustering of a node is the fraction of existing edges among its
neighbors over the maximum possible; the network metric is the mean over
all nodes (degree < 2 nodes contribute 0, matching the networkx
convention the community uses as reference).

The CSR kernel (:mod:`repro.kernels.clustering`) counts neighbor-neighbor
intersections against a boolean membership mask instead of probing ``k^2``
Python set pairs.  Counts are exact integers.

Sampling draws from the *sorted* node pool (not dict insertion order), so
restored and parallel replays — which rebuild adjacency in a different
insertion order — sample exactly the same nodes as a serial run.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.clustering import average_clustering_csr, local_clustering_csr
from repro.kernels.csr import CSRGraph

__all__ = ["local_clustering", "average_clustering"]


def local_clustering(graph: GraphSnapshot, node: int, *, csr: CSRGraph | None = None) -> float:
    """Clustering coefficient of one node (0.0 when degree < 2)."""
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return local_clustering_csr(csr, node)


def average_clustering(
    graph: GraphSnapshot,
    sample_size: int | None = None,
    rng: int | np.random.Generator | None = None,
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Mean local clustering over all nodes (or a uniform sample).

    ``sample_size`` bounds the work on large snapshots; ``None`` computes
    the exact average.  Returns ``nan`` for an empty graph.
    """
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return average_clustering_csr(csr, sample_size, rng)
