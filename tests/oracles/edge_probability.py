"""Reference pe(d) replay (oracle for
:meth:`repro.pa.edge_probability.EdgeProbabilityTracker.process`).

Adds the whole per-degree node-count array into the denominator on every
edge, eq. (1) of Leskovec et al. written the obvious way.  The library
keeps each degree bucket's sum lazily and materializes it only at
checkpoints; both are exact integer sums, so every checkpoint is
bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.graph.events import EventStream
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker, PeCheckpoint

__all__ = ["edge_probability_checkpoints"]


def edge_probability_checkpoints(
    tracker: EdgeProbabilityTracker,
    stream: EventStream,
    checkpoint_every: int = 5000,
    min_edges: int = 0,
) -> list[PeCheckpoint]:
    """``tracker.process(stream, ...)`` with an eager per-edge denominator.

    Uses ``tracker``'s rule, mode, degree cap, fit support and RNG.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    cap = tracker.max_degree
    size = cap + 1
    degree = dict.fromkeys((ev.node for ev in stream.nodes), 0)
    degree_count = np.zeros(size, dtype=np.int64)
    numerator = np.zeros(size, dtype=np.float64)
    denominator = np.zeros(size, dtype=np.float64)

    def bump(node: int) -> None:
        d = degree[node]
        degree_count[min(d, cap)] -= 1
        degree[node] = d + 1
        degree_count[min(d + 1, cap)] += 1

    checkpoints: list[PeCheckpoint] = []
    edges_seen = 0
    node_iter = iter(stream.nodes)
    pending_node = next(node_iter, None)
    for ev in stream.edges:
        while pending_node is not None and pending_node.time <= ev.time:
            degree_count[0] += 1
            pending_node = next(node_iter, None)
        du, dv = degree[ev.u], degree[ev.v]
        if tracker.rule is DestinationRule.HIGHER_DEGREE:
            dest_degree = max(du, dv)
        else:
            dest_degree = du if tracker._rng.random() < 0.5 else dv
        numerator[min(dest_degree, cap)] += 1
        denominator += degree_count
        bump(ev.u)
        bump(ev.v)
        edges_seen += 1
        if edges_seen % checkpoint_every == 0 and edges_seen >= min_edges:
            node_count = int(degree_count.sum())
            checkpoints.append(
                tracker._checkpoint(edges_seen, ev.time, numerator, denominator, node_count)
            )
            if tracker.mode == "window":
                numerator[:] = 0
                denominator[:] = 0
    return checkpoints
