"""Windowed, checkpointed, process-parallel metric evaluation.

The snapshot timeline is split into ``workers`` contiguous windows.  A
single cheap structural replay (no metric evaluation) records a
:class:`~repro.graph.checkpoint.ReplayCheckpoint` at each window boundary;
each worker process then restores its checkpoint, replays only its slice
of the stream, and evaluates the metric suite with per-snapshot RNGs
(:meth:`~repro.runtime.spec.MetricSpec.build`).  Stitching the per-window
rows back in grid order yields output bit-identical to a serial run.
"""

from __future__ import annotations

import bisect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.graph.checkpoint import ReplayCheckpoint
from repro.graph.dynamic import DynamicGraph, snapshot_times
from repro.graph.events import EventStream
from repro.kernels.csr import CSRGraph
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import (
    TraceRecorder,
    attach_shards,
    get_recorder,
    peak_rss_bytes,
    perf_counter,
    use_recorder,
)
from repro.runtime.spec import MetricSpec
from repro.store.reader import EventStore

__all__ = ["evaluate_timeseries", "mp_context"]

# One row per non-empty snapshot: (grid index, time, values in spec.names
# order).
Row = tuple[int, float, list[float]]

# What one window sends back: its rows plus, when tracing, the worker's
# recorder shard (a plain dict — no recorder object crosses the process
# boundary).
WindowResult = tuple[list[Row], dict[str, Any] | None]

# One window's payload: the lane, the checkpoint at the window's start,
# the window's half-open event-index ranges [node_lo, node_hi) /
# [edge_lo, edge_hi), and its snapshot times.
Window = tuple[
    int,
    ReplayCheckpoint,
    tuple[int, int],
    tuple[int, int],
    list[tuple[int, float]],
]

# Worker-process state, installed once per process by _init_worker.  The
# source is the parent's EventStream (inherited under fork — initargs are
# never pickled there — and pickled once per process under spawn) or an
# EventStore opened from its path, which costs O(chunks) stat calls and
# leaves the event payload on disk.
_WORKER_SOURCE: EventStream | EventStore | None = None
_WORKER_SPEC: MetricSpec | None = None
_WORKER_TRACING: bool = False


def _init_worker(source: EventStream | str, spec: MetricSpec, tracing: bool) -> None:
    global _WORKER_SOURCE, _WORKER_SPEC, _WORKER_TRACING
    _WORKER_SOURCE = EventStore(source) if isinstance(source, str) else source
    _WORKER_SPEC = spec
    _WORKER_TRACING = tracing


def _evaluate_rows(
    replay: DynamicGraph,
    spec: MetricSpec,
    indexed_times: list[tuple[int, float]],
) -> list[Row]:
    """Advance ``replay`` through ``indexed_times`` and evaluate the suite.

    Empty snapshots are skipped (matching the serial driver); the RNG for
    each snapshot is keyed by its *grid* index, so skipping never shifts
    downstream randomness.

    Each snapshot is converted to CSR once and the one
    :class:`~repro.kernels.csr.CSRGraph` is shared by every metric — the
    conversion cost amortizes across the suite.
    """
    rec = get_recorder()
    rows: list[Row] = []
    for index, time in indexed_times:
        node_before, edge_before = replay.node_cursor, replay.edge_cursor
        stage_began = perf_counter()
        with rec.span("replay.advance", snapshot=index):
            view = replay.advance_to(time)
        if rec.enabled:
            rec.count(
                "replay.events",
                (replay.node_cursor - node_before) + (replay.edge_cursor - edge_before),
            )
            rec.observe("replay.advance_seconds", perf_counter() - stage_began)
        if view.graph.num_nodes == 0:
            continue
        stage_began = perf_counter()
        with rec.span("kernels.csr_build", snapshot=index):
            csr = CSRGraph.from_snapshot(view.graph)
        if rec.enabled:
            rec.observe("kernels.csr_build_seconds", perf_counter() - stage_began)
        fns = spec.build(index)
        values: list[float] = []
        for name in spec.names:
            stage_began = perf_counter()
            with rec.span(f"metric.{name}", snapshot=index):
                values.append(fns[name](view.graph, csr))
            if rec.enabled:
                rec.observe(f"metric.{name}.seconds", perf_counter() - stage_began)
        rows.append((index, time, values))
        if rec.enabled:
            rec.count("runtime.snapshots", 1)
        # Free this snapshot's CSR before the next one is built, so two are
        # never alive at once (it sets peak RSS on large replays).
        del csr
    return rows


def _run_window(payload: Window) -> WindowResult:
    """Evaluate one window from the installed source's events.

    The worker replays only its window's slice of the source.  The
    checkpoint's cursors are rebased to zero against that sub-stream: the
    events it skips are exactly the events the checkpoint graph already
    contains, so replay — and therefore every metric value — is
    bit-identical to a serial run.

    With tracing on, a fresh per-process :class:`TraceRecorder` collects
    the window's shard.  Its lane is the *window index* (1-based; lane 0
    is the parent) — a stable identity independent of which OS process
    picked the window up — so the merged trace is deterministic under any
    scheduling.  The recorder consumes no randomness, so the rows are
    bit-identical with tracing on or off.
    """
    lane, checkpoint, (node_lo, node_hi), (edge_lo, edge_hi), indexed_times = payload
    assert _WORKER_SOURCE is not None and _WORKER_SPEC is not None
    source, spec = _WORKER_SOURCE, _WORKER_SPEC

    def evaluate() -> list[Row]:
        substream = source.slice_events(node_lo, node_hi, edge_lo, edge_hi)
        rebased = ReplayCheckpoint(
            time=checkpoint.time, node_index=0, edge_index=0, csr=checkpoint.csr
        )
        replay = DynamicGraph.from_checkpoint(substream, rebased)
        return _evaluate_rows(replay, spec, indexed_times)

    if not _WORKER_TRACING:
        return evaluate(), None
    recorder = TraceRecorder(lane=lane, label=f"worker-{lane}")
    with use_recorder(recorder):
        rows = evaluate()
        recorder.gauge("worker.peak_rss_bytes", peak_rss_bytes())
    return rows, recorder.shard()


def _window_weights(stream: EventStream, times: list[float]) -> list[float]:
    """Predicted relative cost of evaluating the snapshot at each time.

    Metric cost is dominated by sampled BFS, which is linear in the edge
    count of the snapshot — so the edge count at each grid time (plus a
    constant floor) is a good balance weight.
    """
    edge_times = stream.edge_times()
    return [1.0 + bisect.bisect_right(edge_times, t) for t in times]


def _partition(weights: list[float], parts: int) -> list[list[int]]:
    """Split indices into at most ``parts`` contiguous, weight-balanced chunks.

    Snapshot cost grows with graph size, so equal-*count* windows would
    leave the final worker holding most of the work; cutting at cumulative
    weight quantiles keeps wall-clock close to ``total / parts``.
    """
    count = len(weights)
    parts = max(1, min(parts, count))
    chunks: list[list[int]] = []
    start = 0
    remaining = sum(weights)
    for part in range(parts, 1, -1):
        target = remaining / part
        limit = count - (part - 1)  # leave at least one snapshot per later chunk
        cut = start + 1
        acc = weights[start]
        # Take the next snapshot while its midpoint still fits the target,
        # so over- and under-shoot stay balanced.
        while cut < limit and acc + weights[cut] / 2.0 <= target:
            acc += weights[cut]
            cut += 1
        chunks.append(list(range(start, cut)))
        remaining -= acc
        start = cut
    chunks.append(list(range(start, count)))
    return chunks


def _mp_context() -> multiprocessing.context.BaseContext:
    # fork shares the parent's pages (fast start, no re-import); fall back
    # to spawn where fork is unavailable.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def mp_context() -> multiprocessing.context.BaseContext:
    """The runtime's start-method policy, as a public seam.

    Sibling subsystems that run their own pools (``repro.serve``'s shard
    workers) call this instead of re-deciding fork-vs-spawn, so one
    policy governs every pool in the tree.
    """
    return _mp_context()


def evaluate_timeseries(
    stream: EventStream,
    spec: MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    workers: int = 1,
    store: EventStore | None = None,
) -> MetricTimeseries:
    """Evaluate ``spec`` on snapshots of ``stream`` every ``interval`` days.

    ``workers=1`` runs in-process; ``workers>1`` fans contiguous timeline
    windows out to a process pool.  Both paths produce bit-identical
    results for the same ``(stream, spec, interval, start)``.

    ``store`` (when the stream came from a columnar store) changes only
    *where* parallel workers read their events: each worker opens the
    store and decodes just its own window's chunk rows instead of slicing
    the parent's stream.  It must hold the same events as ``stream``;
    :func:`repro.runtime.api.compute_timeseries` wires this up
    automatically for :class:`~repro.store.reader.EventStore` inputs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    indexed = list(enumerate(snapshot_times(stream.end_time, interval, start)))
    if workers == 1 or len(indexed) < 2:
        rows = _evaluate_rows(DynamicGraph(stream), spec, indexed)
    else:
        rows = _evaluate_parallel(stream, spec, indexed, workers, store)
    series = MetricTimeseries(values={name: [] for name in spec.names})
    for _, time, values in sorted(rows):
        series.times.append(time)
        for name, value in zip(spec.names, values, strict=True):
            series.values[name].append(value)
    return series


def _evaluate_parallel(
    stream: EventStream,
    spec: MetricSpec,
    indexed: list[tuple[int, float]],
    workers: int,
    store: EventStore | None,
) -> list[Row]:
    rec = get_recorder()
    chunks = _partition(_window_weights(stream, [t for _, t in indexed]), workers)
    # One structural replay places a checkpoint at each window boundary
    # and yields each window's event-index range, which is all a worker
    # needs to pull its slice out of the source.  This is O(events) with
    # no metric work, so it is cheap relative to the metric evaluation it
    # unlocks.
    payloads: list[Window] = []
    with rec.span("replay.checkpoints", windows=len(chunks)):
        replay = DynamicGraph(stream)
        for lane0, chunk in enumerate(chunks):
            checkpoint = replay.checkpoint()
            replay.advance_to(indexed[chunk[-1]][1])
            payloads.append(
                (
                    1 + lane0,
                    checkpoint,
                    (checkpoint.node_index, replay.node_cursor),
                    (checkpoint.edge_index, replay.edge_cursor),
                    [indexed[i] for i in chunk],
                )
            )
    source: EventStream | str = stream if store is None else str(store.path)
    rows: list[Row] = []
    shards: list[dict[str, Any]] = []
    with rec.span("runtime.pool", windows=len(payloads)):
        with ProcessPoolExecutor(
            max_workers=len(payloads),
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(source, spec, rec.enabled),
        ) as pool:
            for window_rows, shard in pool.map(_run_window, payloads):
                rows.extend(window_rows)
                if shard is not None:
                    shards.append(shard)
    attach_shards(rec, shards)
    return rows
