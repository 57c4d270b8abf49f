"""Vectorized CSR kernels: the one implementation of every graph algorithm.

Each kernel is *bit-identical* to a pure-Python reference implementation
kept as a parity oracle in ``tests/oracles/``: same floats for the same RNG
draws.  The contract, and how to add a kernel, is documented in
``docs/kernels.md``.

Layout:

* :mod:`~repro.kernels.csr` — :class:`CSRGraph`, the frozen array view all
  kernels consume, plus the multi-slice neighbor gather;
* :mod:`~repro.kernels.traversal` — frontier-array BFS: components,
  largest component, sampled path lengths;
* :mod:`~repro.kernels.clustering` — mask-intersection clustering
  coefficients;
* :mod:`~repro.kernels.assortativity` — vectorized degree assortativity;
* :mod:`~repro.kernels.louvain` — flat-array Louvain local moves;
* :mod:`~repro.kernels.matching` — contingency-count Jaccard matching for
  community tracking.
"""

from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.clustering import (
    average_clustering_csr,
    clustering_coefficients,
    local_clustering_csr,
)
from repro.kernels.csr import CSRGraph, gather_neighbors
from repro.kernels.louvain import louvain_csr
from repro.kernels.matching import match_communities_csr
from repro.kernels.traversal import (
    average_path_length_csr,
    bfs_distance_sum,
    component_labels,
    connected_components_csr,
    largest_component_csr,
)

__all__ = [
    "CSRGraph",
    "average_clustering_csr",
    "average_path_length_csr",
    "bfs_distance_sum",
    "clustering_coefficients",
    "component_labels",
    "connected_components_csr",
    "degree_assortativity_csr",
    "gather_neighbors",
    "largest_component_csr",
    "local_clustering_csr",
    "louvain_csr",
    "match_communities_csr",
]
