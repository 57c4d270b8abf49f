"""The edge probability pe(d) of [Leskovec et al., KDD 2008], eq. (1).

``pe(d)`` is the probability that a new edge picks a destination of degree
``d``, normalized by how many degree-``d`` nodes existed before each step:

    pe(d) = Σt [dest degree = d]  /  Σt |{v : deg(v) = d}|

Renren edges are undirected, so the destination is chosen per rule (§3.2):

* ``higher_degree`` — the higher-degree endpoint (biased toward PA; upper
  bound for α);
* ``random`` — a uniformly random endpoint (lower bound).

The tracker replays the stream once, maintains per-degree node counts, and
produces a checkpoint every ``checkpoint_every`` edges (the paper uses
5000).  The denominator is kept lazily: each degree bucket's sum is folded
forward only when that bucket's node count changes and is materialized at
checkpoints, so an edge costs O(1) rather than O(``max_degree``).  Every
sum is an exact integer, so the checkpoints are bit-identical to adding
the whole count array on every edge (the reference in
``tests/oracles/edge_probability.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.graph.events import EventStream
from repro.obs import get_recorder
from repro.util.rng import make_rng
from repro.util.stats import linear_fit_loglog, mean_squared_error

__all__ = ["DestinationRule", "PeCheckpoint", "EdgeProbabilityTracker"]


class DestinationRule(str, enum.Enum):
    """How to pick the "destination" endpoint of an undirected edge."""

    HIGHER_DEGREE = "higher_degree"
    RANDOM = "random"


@dataclass(frozen=True)
class PeCheckpoint:
    """pe(d) measured at one point of the growth, plus its power-law fit.

    ``degrees``/``pe`` are the measured points (d >= 1, pe > 0);
    ``support`` gives each point's denominator mass (node-steps at that
    degree); ``alpha``/``coefficient`` satisfy ``pe(d) ≈ coefficient *
    d**alpha``; ``mse`` is the linear-space mean squared error of that
    fit; ``node_count`` is the number of nodes when the checkpoint closed.
    """

    edge_count: int
    time: float
    degrees: np.ndarray
    pe: np.ndarray
    support: np.ndarray
    alpha: float
    coefficient: float
    mse: float
    node_count: int


class EdgeProbabilityTracker:
    """Single-pass pe(d) measurement over an event stream.

    ``mode='window'`` resets the numerator/denominator at each checkpoint,
    so each checkpoint reflects the attachment behaviour *since the last
    one* (this is what exposes the decay of α over time); ``'cumulative'``
    keeps the paper's eq. (1) sums from the beginning.
    """

    def __init__(
        self,
        rule: DestinationRule = DestinationRule.HIGHER_DEGREE,
        mode: str = "window",
        max_degree: int = 4096,
        min_support: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if mode not in ("window", "cumulative"):
            raise ValueError(f"mode must be 'window' or 'cumulative', got {mode!r}")
        self.rule = DestinationRule(rule)
        self.mode = mode
        self.max_degree = max_degree
        # Degrees observed in fewer than ``min_support`` node-steps are
        # excluded from the fit: with little support a single hit makes
        # pe(d) ~ 1 and wrecks the linear-space MSE.
        self.min_support = min_support
        self._rng = make_rng(seed)

    def process(
        self,
        stream: EventStream,
        checkpoint_every: int = 5000,
        min_edges: int = 0,
    ) -> list[PeCheckpoint]:
        """Replay ``stream`` and return a checkpoint every ``checkpoint_every`` edges.

        ``min_edges`` suppresses checkpoints before the network reaches a
        reasonable size (the paper starts at 600K edges).
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        with get_recorder().span("pa.edge_probability", rule=self.rule.value, mode=self.mode):
            return self._replay(stream, checkpoint_every, min_edges)

    # -- internals ------------------------------------------------------

    def _replay(
        self, stream: EventStream, checkpoint_every: int, min_edges: int
    ) -> list[PeCheckpoint]:
        # Bucket d's denominator is ``acc[d] + count[d] * (edges - since[d])``:
        # folded into ``acc`` whenever ``count[d]`` changes, materialized at
        # checkpoints (see the module docstring).
        cap = self.max_degree
        size = cap + 1
        higher = self.rule is DestinationRule.HIGHER_DEGREE
        draw = self._rng.random
        degree = dict.fromkeys((ev.node for ev in stream.nodes), 0)
        count = [0] * size
        acc = [0] * size
        since = [0] * size
        numerator = [0] * size
        # Nodes exist from their arrival; replay interleaves arrivals and
        # edges chronologically so degree-0 counts are correct.
        checkpoints: list[PeCheckpoint] = []
        edges = 0
        node_times = [ev.time for ev in stream.nodes]
        next_node = 0
        n_nodes = len(node_times)
        for ev in stream.edges:
            if next_node < n_nodes and node_times[next_node] <= ev.time:
                arrived = next_node
                while next_node < n_nodes and node_times[next_node] <= ev.time:
                    next_node += 1
                acc[0] += count[0] * (edges - since[0])
                since[0] = edges
                count[0] += next_node - arrived
            u, v = ev.u, ev.v
            du, dv = degree[u], degree[v]
            if higher:
                dest = du if du >= dv else dv
            else:
                dest = du if draw() < 0.5 else dv
            numerator[dest if dest < cap else cap] += 1
            edges += 1
            for d in (du, dv):
                if d >= cap:
                    continue  # the capped bucket keeps its count
                acc[d] += count[d] * (edges - since[d])
                since[d] = edges
                count[d] -= 1
                acc[d + 1] += count[d + 1] * (edges - since[d + 1])
                since[d + 1] = edges
                count[d + 1] += 1
            degree[u] = du + 1
            degree[v] = dv + 1
            if edges % checkpoint_every == 0 and edges >= min_edges:
                counts = np.array(count, dtype=np.int64)
                denominator = (
                    np.array(acc, dtype=np.int64)
                    + counts * (edges - np.array(since, dtype=np.int64))
                ).astype(np.float64)
                checkpoints.append(
                    self._checkpoint(
                        edges,
                        ev.time,
                        np.array(numerator, dtype=np.float64),
                        denominator,
                        int(counts.sum()),
                    )
                )
                if self.mode == "window":
                    numerator = [0] * size
                    acc = [0] * size
                    since = [edges] * size
        return checkpoints

    def _checkpoint(
        self,
        edge_count: int,
        time: float,
        numerator: np.ndarray,
        denominator: np.ndarray,
        node_count: int,
    ) -> PeCheckpoint:
        valid = (numerator > 0) & (denominator >= self.min_support)
        valid[0] = False  # degree 0 cannot enter a log-log fit
        degrees = np.nonzero(valid)[0].astype(float)
        pe = numerator[valid] / denominator[valid]
        support = denominator[valid].astype(float)
        if degrees.size >= 2:
            alpha, coeff = linear_fit_loglog(degrees, pe)
            mse = mean_squared_error(pe, coeff * degrees**alpha)
        else:
            alpha, coeff, mse = float("nan"), float("nan"), float("nan")
        return PeCheckpoint(
            edge_count=edge_count,
            time=time,
            degrees=degrees,
            pe=pe,
            support=support,
            alpha=alpha,
            coefficient=coeff,
            mse=mse,
            node_count=node_count,
        )
