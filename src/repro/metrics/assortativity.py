"""Degree assortativity (Figure 1f).

The Pearson correlation coefficient of the degrees at either end of each
edge.  Each undirected edge contributes both orientations, making the
measure symmetric (the standard Newman definition).

The Pearson sums are four vectorized int64 reductions over the CSR arrays
(:func:`repro.kernels.assortativity.degree_assortativity_csr`).
"""

from __future__ import annotations

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.assortativity import degree_assortativity_csr
from repro.kernels.csr import CSRGraph

__all__ = ["degree_assortativity"]


def degree_assortativity(graph: GraphSnapshot, *, csr: CSRGraph | None = None) -> float:
    """Degree correlation over edges; ``nan`` when undefined (e.g. regular graphs).

    Accumulates the Pearson sums in exact integer arithmetic, so the result
    is independent of edge iteration order — a requirement for checkpointed
    parallel replay, whose rebuilt adjacency sets may iterate differently
    than serially grown ones.  ``csr`` optionally reuses a prebuilt
    :class:`CSRGraph` of the same snapshot.
    """
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return degree_assortativity_csr(csr)
