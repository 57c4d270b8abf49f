"""Timestamped graph-evolution events and the event stream container.

Times are floats measured in **days** since the network launch (the paper's
"Day 0" is 2005-11-21).  Node identifiers are non-negative integers.  Each
node carries an ``origin`` label so that merge analyses (§5) can distinguish
the two pre-merge populations ("xiaonei", "fivq") from post-merge arrivals
("new"); generators that model a single network leave it as ``"xiaonei"``.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NodeArrival", "EdgeArrival", "EventStream", "ORIGIN_XIAONEI", "ORIGIN_5Q", "ORIGIN_NEW"]

ORIGIN_XIAONEI = "xiaonei"
ORIGIN_5Q = "fivq"
ORIGIN_NEW = "new"


@dataclass(frozen=True, slots=True)
class NodeArrival:
    """Creation of a user account at time ``time`` (days since launch)."""

    time: float
    node: int
    origin: str = ORIGIN_XIAONEI


@dataclass(frozen=True, slots=True)
class EdgeArrival:
    """Creation of an undirected friendship edge ``(u, v)`` at ``time``.

    The dataset does not record which endpoint initiated the friendship
    (§3.2), so the pair is unordered; analyses that need a "destination"
    choose one per their own rule.
    """

    time: float
    u: int
    v: int

    def endpoints(self) -> tuple[int, int]:
        """The edge's endpoints as a (min, max) ordered tuple."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass
class EventStream:
    """A time-ordered sequence of node and edge arrival events.

    Node and edge events are kept in separate, individually time-sorted
    lists; :meth:`merged` interleaves them when a single chronological pass
    is needed.  Invariants (checked by :meth:`validate`):

    * both lists are sorted by time;
    * every edge endpoint was created at or before the edge's time;
    * no duplicate nodes and no duplicate or self-loop edges.

    Derived data (the per-kind time lists and the content digest) is cached
    on first use and invalidated by :meth:`extend`.  Mutating ``nodes`` or
    ``edges`` directly bypasses that invalidation — use :meth:`extend`.
    """

    nodes: list[NodeArrival] = field(default_factory=list)
    edges: list[EdgeArrival] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._node_times: list[float] | None = None
        self._edge_times: list[float] | None = None
        self._digest: str | None = None

    @property
    def num_nodes(self) -> int:
        """Total number of node-arrival events."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Total number of edge-arrival events."""
        return len(self.edges)

    @property
    def end_time(self) -> float:
        """Time of the last event, or 0.0 for an empty stream."""
        last_node = self.nodes[-1].time if self.nodes else 0.0
        last_edge = self.edges[-1].time if self.edges else 0.0
        return max(last_node, last_edge)

    def merged(self) -> Iterator[NodeArrival | EdgeArrival]:
        """Iterate over all events in chronological order.

        Ties are resolved with node arrivals first, so an edge created "at
        the same instant" as its endpoint is always valid.
        """
        ni, ei = 0, 0
        nodes, edges = self.nodes, self.edges
        while ni < len(nodes) and ei < len(edges):
            if nodes[ni].time <= edges[ei].time:
                yield nodes[ni]
                ni += 1
            else:
                yield edges[ei]
                ei += 1
        yield from nodes[ni:]
        yield from edges[ei:]

    def node_arrival_times(self) -> dict[int, float]:
        """Map each node id to its arrival time."""
        return {ev.node: ev.time for ev in self.nodes}

    def node_origins(self) -> dict[int, str]:
        """Map each node id to its origin label."""
        return {ev.node: ev.origin for ev in self.nodes}

    def node_times(self) -> list[float]:
        """The node-arrival times in order (cached until :meth:`extend`)."""
        if self._node_times is None:
            self._node_times = [ev.time for ev in self.nodes]
        return self._node_times

    def edge_times(self) -> list[float]:
        """The edge-arrival times in order (cached until :meth:`extend`)."""
        if self._edge_times is None:
            self._edge_times = [ev.time for ev in self.edges]
        return self._edge_times

    def edges_before(self, time: float) -> list[EdgeArrival]:
        """All edge events with ``event.time <= time``."""
        idx = bisect.bisect_right(self.edge_times(), time)
        return self.edges[:idx]

    def slice(self, start: float, end: float) -> "EventStream":
        """Return the sub-stream of events with ``start <= time <= end``."""
        node_times = self.node_times()
        edge_times = self.edge_times()
        n_lo, n_hi = bisect.bisect_left(node_times, start), bisect.bisect_right(node_times, end)
        e_lo, e_hi = bisect.bisect_left(edge_times, start), bisect.bisect_right(edge_times, end)
        return EventStream(nodes=self.nodes[n_lo:n_hi], edges=self.edges[e_lo:e_hi])

    def slice_events(self, node_lo: int, node_hi: int, edge_lo: int, edge_hi: int) -> "EventStream":
        """The sub-stream of events by index range ``[lo, hi)`` per kind.

        The in-memory twin of
        :meth:`repro.store.reader.EventStore.slice_events`: parallel replay
        workers call it on whichever source they were handed.
        """
        return EventStream(nodes=self.nodes[node_lo:node_hi], edges=self.edges[edge_lo:edge_hi])

    def extend(self, nodes: Iterable[NodeArrival], edges: Iterable[EdgeArrival]) -> None:
        """Append events and restore time order."""
        self.nodes.extend(nodes)
        self.edges.extend(edges)
        self.nodes.sort(key=lambda ev: ev.time)
        self.edges.sort(key=lambda ev: ev.time)
        self._invalidate_caches()

    def content_digest(self) -> str:
        """SHA-256 over the stream's full event content (cached).

        Hashes times, ids, and origin labels of every event in order, so
        any edit to the stream — reordering, relabeling, a single
        timestamp — produces a different digest.  This is the canonical
        content identity used by the result cache and mirrored by
        ``repro.store`` manifests, so a stream and its columnar encoding
        share one digest.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(np.array([ev.time for ev in self.nodes], dtype=np.float64).tobytes())
            h.update(np.array([ev.node for ev in self.nodes], dtype=np.int64).tobytes())
            h.update("\x00".join(ev.origin for ev in self.nodes).encode())
            h.update(np.array([ev.time for ev in self.edges], dtype=np.float64).tobytes())
            h.update(np.array([(ev.u, ev.v) for ev in self.edges], dtype=np.int64).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def validate(self) -> None:
        """Check stream invariants; raise :class:`ValueError` on violation."""
        _check_sorted(self.nodes, "nodes")
        _check_sorted(self.edges, "edges")
        born: dict[int, float] = {}
        for ev in self.nodes:
            if ev.node in born:
                raise ValueError(f"duplicate node arrival for node {ev.node}")
            born[ev.node] = ev.time
        seen: set[tuple[int, int]] = set()
        for ev in self.edges:
            if ev.u == ev.v:
                raise ValueError(f"self-loop edge at time {ev.time}: node {ev.u}")
            key = ev.endpoints()
            if key in seen:
                raise ValueError(f"duplicate edge {key} at time {ev.time}")
            seen.add(key)
            for endpoint in key:
                if endpoint not in born:
                    raise ValueError(f"edge {key} references unknown node {endpoint}")
                if born[endpoint] > ev.time:
                    raise ValueError(
                        f"edge {key} at time {ev.time} predates node {endpoint} "
                        f"(born {born[endpoint]})"
                    )


def _check_sorted(events: Sequence[NodeArrival] | Sequence[EdgeArrival], label: str) -> None:
    for prev, cur in zip(events, events[1:], strict=False):
        if cur.time < prev.time:
            raise ValueError(f"{label} not sorted by time at t={cur.time}")
