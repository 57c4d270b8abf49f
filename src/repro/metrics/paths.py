"""Sampled average shortest-path length (Figure 1d).

The paper follows "the standard practice of sampling nodes to make path
length computation tractable": 1000 sources from the largest connected
component, once every three days.  We do the same — BFS from each sampled
source, averaging distances to all reachable nodes.

The BFS is the frontier-array kernel
(:func:`repro.kernels.traversal.average_path_length_csr`).  Sources are
drawn from the sorted component, and distances accumulate in exact
integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.kernels.traversal import average_path_length_csr
from repro.util.rng import make_rng

__all__ = ["average_path_length_sampled"]


def average_path_length_sampled(
    graph: GraphSnapshot,
    sample_size: int = 1000,
    rng: int | np.random.Generator | None = None,
    *,
    csr: CSRGraph | None = None,
) -> float:
    """Average hop distance from sampled sources to all reachable nodes.

    Sources are drawn (without replacement) from the largest connected
    component.  Returns ``nan`` when the component has fewer than two
    nodes.  ``csr`` optionally reuses a prebuilt :class:`CSRGraph` of the
    same snapshot (the runtime builds one per snapshot and shares it
    across the metric suite).
    """
    generator = make_rng(rng)
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    return average_path_length_csr(csr, sample_size, generator)
