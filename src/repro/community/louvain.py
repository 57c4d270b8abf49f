"""The Louvain community-detection algorithm [Blondel et al. 2008].

Implemented from scratch: each level holds its weighted graph as flat
CSR arrays, and aggregation turns communities into super-nodes with
self-loops.  Two paper-specific behaviours:

* **δ threshold** — each level's local-move phase stops when a full pass
  improves modularity by less than δ, and the level loop stops when a
  whole level gains less than δ.  The paper tunes δ as the trade-off
  between modularity quality and tracking robustness (§4.1, Fig 4) and
  settles on δ = 0.04.
* **Incremental mode** — the node→community assignment from the previous
  snapshot can seed the initial assignment, giving the "strong explicit
  tie between snapshots" the paper's tracking relies on.

Node visit order is shuffled with a seeded RNG, and modularity-gain ties
resolve to the smallest community label, so results are deterministic for
a given seed — independent of dict/set iteration order.

The level loop is :func:`repro.kernels.louvain.louvain_csr`; the
dict-of-dicts reference in ``tests/oracles/louvain.py`` pins it
bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.community.modularity import modularity, partition_communities
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.kernels.louvain import louvain_csr
from repro.util.rng import make_rng

__all__ = ["louvain", "LouvainResult"]


@dataclass(frozen=True)
class LouvainResult:
    """Partition found by Louvain plus its quality.

    ``partition`` maps every node of the input graph to a community label;
    labels are arbitrary but stable for a given (graph, seed, seed
    partition).
    """

    partition: dict[int, int]
    modularity: float
    levels: int

    def communities(self, min_size: int = 1) -> dict[int, set[int]]:
        """Communities of at least ``min_size`` nodes as ``label → node set``."""
        groups = partition_communities(self.partition)
        return {c: members for c, members in groups.items() if len(members) >= min_size}


def louvain(
    graph: GraphSnapshot,
    delta: float = 0.01,
    seed_partition: Mapping[int, int] | None = None,
    seed: int | np.random.Generator | None = 0,
    *,
    csr: CSRGraph | None = None,
) -> LouvainResult:
    """Run Louvain on ``graph`` with stopping threshold ``delta``.

    ``seed_partition`` (incremental mode) provides initial community
    labels; nodes missing from it start as singletons.  ``csr`` optionally
    reuses a prebuilt :class:`~repro.kernels.csr.CSRGraph` of the same
    snapshot.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    rng = make_rng(seed)
    if csr is None:
        csr = CSRGraph.from_snapshot(graph)
    partition, levels = louvain_csr(csr, delta, seed_partition, rng)
    return LouvainResult(
        partition=partition,
        modularity=modularity(graph, partition, csr=csr),
        levels=levels,
    )
