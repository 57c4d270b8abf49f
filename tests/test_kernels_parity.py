"""Exact-parity tests: every library graph algorithm against its oracle.

The library runs one implementation of each algorithm, the CSR kernels;
their contract is bit-identical floats for identical RNG draws against the
dict/set references in ``tests/oracles`` (docs/kernels.md).  These tests
sweep ~50 random graphs — an Erdős–Rényi grid over sizes/densities/seeds
plus snapshots of a generated Renren trace — including empty, singleton,
and disconnected graphs, and assert *exact* equality (``==``, never
``pytest.approx``) between the library function and its oracle.
"""

import functools
import math

import numpy as np
import pytest

import repro.community.tracking as tracking
from repro.community.louvain import louvain
from repro.community.modularity import (
    community_edge_stats,
    modularity,
    partition_communities,
)
from repro.community.tracking import CommunityTracker, track_deltas, track_stream
from repro.gen.config import presets
from repro.gen.renren import generate_trace
from repro.graph.components import connected_components, largest_component
from repro.graph.dynamic import DynamicGraph
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.csr import CSRGraph
from repro.kernels.matching import match_communities_csr
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering, local_clustering
from repro.metrics.paths import average_path_length_sampled
from repro.pa.edge_probability import DestinationRule, EdgeProbabilityTracker
from tests import oracles

# -- graph corpus ----------------------------------------------------------

_ER_GRID = [
    (n, p, seed)
    for n in (0, 1, 2, 5, 12, 30, 60)
    for p in (0.0, 0.08, 0.3)
    for seed in (1, 2)
]
_RENREN_TIMES = (10.0, 25.0, 45.0, 60.0)

CASES = [f"er-{n}-{p}-{s}" for n, p, s in _ER_GRID]
CASES += [f"renren-{t}" for t in _RENREN_TIMES]
CASES += ["two-cliques", "path-with-isolates", "star-forest"]


def _erdos_renyi(n: int, p: float, seed: int) -> GraphSnapshot:
    rng = np.random.default_rng((97, seed, n))
    g = GraphSnapshot()
    for u in range(n):
        g.add_node(u)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@functools.lru_cache(maxsize=None)
def _renren_snapshot(time: float) -> GraphSnapshot:
    stream = generate_trace(presets.tiny(), seed=23)
    return DynamicGraph(stream).advance_to(time).graph.copy()


@functools.lru_cache(maxsize=None)
def _build(case: str) -> GraphSnapshot:
    kind, _, rest = case.partition("-")
    if kind == "er":
        n, p, s = rest.split("-")
        return _erdos_renyi(int(n), float(p), int(s))
    if kind == "renren":
        return _renren_snapshot(float(rest))
    if case == "two-cliques":
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(10, 15) for v in range(u + 1, 15)]
        return GraphSnapshot.from_edges(edges, nodes=[99, 42])
    if case == "path-with-isolates":
        return GraphSnapshot.from_edges([(i, i + 1) for i in range(20)], nodes=[100, 200, 300])
    if case == "star-forest":
        edges = [(hub, hub + leaf) for hub in (0, 50, 100) for leaf in (1, 2, 3, 4)]
        return GraphSnapshot.from_edges(edges)
    raise AssertionError(case)


def _identical(a: float, b: float) -> bool:
    """Exact equality, with nan == nan (both undefined is parity too)."""
    return a == b or (math.isnan(a) and math.isnan(b))


# -- per-snapshot kernels --------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_components_parity(case):
    g = _build(case)
    assert connected_components(g) == oracles.connected_components(g)


@pytest.mark.parametrize("case", CASES)
def test_largest_component_parity(case):
    g = _build(case)
    assert largest_component(g) == oracles.largest_component(g)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [4, 10_000])
def test_path_length_parity(case, sample):
    g = _build(case)
    py = oracles.average_path_length_sampled(g, sample, rng=5)
    kr = average_path_length_sampled(g, sample, rng=5)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("sample", [7, None])
def test_average_clustering_parity(case, sample):
    g = _build(case)
    py = oracles.average_clustering(g, sample, rng=9)
    kr = average_clustering(g, sample, rng=9)
    assert _identical(py, kr), (py, kr)


@pytest.mark.parametrize("case", CASES)
def test_local_clustering_parity(case):
    g = _build(case)
    for node in list(g.nodes())[:12]:
        py = oracles.local_clustering(g, node)
        kr = local_clustering(g, node)
        assert py == kr, node


@pytest.mark.parametrize("case", CASES)
def test_assortativity_parity(case):
    g = _build(case)
    py = oracles.degree_assortativity(g)
    kr = degree_assortativity(g)
    assert _identical(py, kr), (py, kr)


# -- Louvain ---------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("delta", [0.0, 0.04])
def test_louvain_parity(case, delta):
    g = _build(case)
    py = oracles.louvain(g, delta=delta, seed=3)
    kr = louvain(g, delta=delta, seed=3)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


@pytest.mark.parametrize("case", CASES)
def test_louvain_seeded_parity(case):
    """Incremental mode: library and oracle must honour a seed partition identically."""
    g = _build(case)
    seed_partition = oracles.louvain(g, delta=0.04, seed=11).partition
    py = oracles.louvain(g, delta=0.04, seed_partition=seed_partition, seed=4)
    kr = louvain(g, delta=0.04, seed_partition=seed_partition, seed=4)
    assert py.partition == kr.partition
    assert py.modularity == kr.modularity
    assert py.levels == kr.levels


# -- modularity and community edge counts ----------------------------------

PARTITIONS = ["louvain", "singletons", "one-block", "random-3", "random-40"]


def _partition(g: GraphSnapshot, kind: str) -> dict[int, int]:
    nodes = list(g.nodes())
    if kind == "louvain":
        return louvain(g, delta=0.04, seed=3).partition
    if kind == "singletons":
        return {node: node for node in nodes}
    if kind == "one-block":
        return dict.fromkeys(nodes, 7)
    # Shuffled, negative and sparse labels, so ascending label order and
    # first-appearance order disagree.
    k = int(kind.split("-")[1])
    rng = np.random.default_rng((41, k, len(nodes)))
    labels = rng.permutation(10 * k)[:k] * 13 - 50
    return {node: int(labels[rng.integers(k)]) for node in nodes}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", PARTITIONS)
def test_modularity_parity(case, kind):
    g = _build(case)
    partition = _partition(g, kind)
    expected = oracles.modularity(g, partition)
    assert modularity(g, partition) == expected
    assert modularity(g, partition, csr=CSRGraph.from_snapshot(g)) == expected


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", PARTITIONS)
def test_community_edge_stats_parity(case, kind):
    g = _build(case)
    partition = _partition(g, kind)
    stats = community_edge_stats(CSRGraph.from_snapshot(g), partition)
    # First-appearance order of the labels in adjacency insertion order.
    assert list(stats) == list(dict.fromkeys(partition[node] for node in g.adjacency))
    for label, members in partition_communities(partition).items():
        assert stats[label] == oracles.community_edge_stats(g, members), label


# -- pe(d) -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pe_stream():
    return generate_trace(presets.tiny(), seed=23)


@pytest.mark.parametrize("rule", list(DestinationRule))
@pytest.mark.parametrize("mode", ["window", "cumulative"])
@pytest.mark.parametrize(
    ("max_degree", "min_support", "every", "min_edges"),
    [(4096, 20, 500, 0), (4, 1, 333, 1000)],
)
def test_edge_probability_parity(rule, mode, max_degree, min_support, every, min_edges):
    stream = _pe_stream()
    assert len(stream.edges) % every != 0  # a trailing partial window

    def tracker():
        return EdgeProbabilityTracker(
            rule=rule, mode=mode, max_degree=max_degree, min_support=min_support, seed=7
        )

    kr = tracker().process(stream, checkpoint_every=every, min_edges=min_edges)
    py = oracles.edge_probability_checkpoints(
        tracker(), stream, checkpoint_every=every, min_edges=min_edges
    )
    assert len(kr) == len(py) > 1
    assert kr[0].edge_count >= min_edges
    for a, b in zip(kr, py, strict=True):
        assert (a.edge_count, a.time, a.node_count) == (b.edge_count, b.time, b.node_count)
        for name in ("degrees", "pe", "support"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        for name in ("alpha", "coefficient", "mse"):
            assert _identical(getattr(a, name), getattr(b, name)), name


# -- community matcher -----------------------------------------------------


def _random_membership(rng, labels, pool, max_size):
    used = set()
    out = {}
    for label in labels:
        size = int(rng.integers(1, max_size))
        members = [int(v) for v in rng.choice(pool, size=size, replace=False)]
        out[label] = frozenset(members) - used
        used |= set(members)
    return {label: m for label, m in out.items() if m}


@pytest.mark.parametrize("seed", range(8))
def test_matcher_parity(seed):
    rng = np.random.default_rng((31, seed))
    pool = np.arange(120)
    raw = _random_membership(rng, [3, 7, 8, 15], pool, 30)
    prev_sets = _random_membership(rng, [0, 1, 2, 5], pool, 30)
    py_parent, py_overlaps = oracles.match_communities(raw, prev_sets)
    kr_parent, kr_overlaps = match_communities_csr(raw, prev_sets)
    assert list(kr_parent) == list(py_parent)
    for label in raw:
        assert kr_parent[label] == py_parent[label], label
        assert kr_overlaps[label] == py_overlaps[label], label


def test_matcher_empty_sides():
    assert match_communities_csr({}, {1: frozenset({1})}) == ({}, {})
    parent, overlaps = match_communities_csr({5: frozenset({1, 2})}, {})
    assert parent == {5: None}
    assert overlaps[5] == {}
    # No shared nodes at all.
    parent, overlaps = match_communities_csr({5: frozenset({1})}, {0: frozenset({9})})
    assert parent == {5: None}
    assert overlaps[5] == {}


# -- end-to-end tracking ---------------------------------------------------


def test_tracking_parity(monkeypatch):
    """The tracker end to end, with Louvain and the matcher swapped for oracles."""
    stream = generate_trace(presets.tiny(), seed=11)
    kr = track_stream(stream, interval=4.0, min_nodes=32, seed=5)
    used: list[str] = []

    def oracle_louvain(*args, csr=None, **kwargs):
        # The tracker hands Louvain the snapshot's CSR; the oracle works on
        # the dict snapshot alone, so it accepts and ignores it.
        used.append("louvain")
        return oracles.louvain(*args, **kwargs)

    def oracle_match(*args, **kwargs):
        used.append("match")
        return oracles.match_communities(*args, **kwargs)

    monkeypatch.setattr(tracking, "louvain", oracle_louvain)
    monkeypatch.setattr(tracking, "match_communities_csr", oracle_match)
    py = track_stream(stream, interval=4.0, min_nodes=32, seed=5)
    assert {"louvain", "match"} <= set(used)
    _assert_same_tracking(py, kr)


def test_track_deltas_matches_separate_runs():
    """One shared replay per δ sweep gives each δ exactly its own run."""
    stream = generate_trace(presets.tiny(), seed=11)
    deltas = (0.0001, 0.01, 0.04, 0.3)
    shared = track_deltas(stream, deltas, interval=4.0, min_nodes=32, seed=5)
    assert list(shared) == list(deltas)
    for delta in deltas:
        alone = track_stream(stream, interval=4.0, delta=delta, min_nodes=32, seed=5)
        _assert_same_tracking(shared[delta], alone)


def _assert_same_tracking(py: CommunityTracker, kr: CommunityTracker) -> None:
    assert len(py.snapshots) == len(kr.snapshots) > 0
    for a, b in zip(py.snapshots, kr.snapshots, strict=True):
        assert a.time == b.time
        assert a.modularity == b.modularity
        assert _identical(a.avg_similarity, b.avg_similarity)
        assert set(a.states) == set(b.states)
        for lin in a.states:
            x, y = a.states[lin], b.states[lin]
            assert x.members == y.members
            assert x.internal_edges == y.internal_edges
            assert x.degree_sum == y.degree_sum
            assert _identical(x.similarity, y.similarity)
    assert len(py.events) == len(kr.events)
    for ea, eb in zip(py.events, kr.events, strict=True):
        assert (ea.kind, ea.time, ea.subject, ea.other, ea.children) == (
            eb.kind,
            eb.time,
            eb.subject,
            eb.other,
            eb.children,
        )
        assert _identical(ea.size_ratio, eb.size_ratio)
        assert ea.strongest_tie == eb.strongest_tie
    assert set(py.lineages) == set(kr.lineages)
    for lin in py.lineages:
        assert py.lineages[lin].death_time == kr.lineages[lin].death_time
        assert py.lineages[lin].death_reason == kr.lineages[lin].death_reason
        assert len(py.lineages[lin].states) == len(kr.lineages[lin].states)
        for x, y in zip(py.lineages[lin].states, kr.lineages[lin].states, strict=True):
            assert (x.time, x.members, x.internal_edges, x.degree_sum) == (
                y.time,
                y.members,
                y.internal_edges,
                y.degree_sum,
            )
            assert _identical(x.similarity, y.similarity)
