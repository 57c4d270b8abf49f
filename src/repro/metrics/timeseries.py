"""Drive metric functions across a snapshot series.

The paper computes cheap metrics daily and expensive ones (path length) at a
3-day cadence on sampled nodes (§2).  :func:`compute_metric_timeseries`
replays a stream once and evaluates a set of named metric callables at a
chosen interval.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pathlib import Path

    from repro.runtime.spec import MetricSpec
    from repro.store.reader import EventStore

from repro.graph.dynamic import DynamicGraph
from repro.graph.events import EventStream
from repro.graph.snapshot import GraphSnapshot
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.degree import average_degree
from repro.metrics.paths import average_path_length_sampled
from repro.util.rng import make_rng

__all__ = ["MetricTimeseries", "compute_metric_timeseries", "standard_metrics"]

MetricFn = Callable[[GraphSnapshot], float]


@dataclass
class MetricTimeseries:
    """Sampled times and one value series per metric name.

    ``profile`` is optional run metadata attached by the runtime layer
    (worker count, per-metric wall-clock seconds per snapshot, cache
    hit/miss counts, and a ``worker_detail`` list attributing snapshots,
    busy seconds, and cache traffic to each worker lane — lane 0 is the
    parent/serial process).  It describes how the numbers were produced,
    never what they are, so it is excluded from equality.
    """

    times: list[float] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)
    profile: dict | None = field(default=None, compare=False, repr=False)

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The series as numpy arrays ``(times, {name: values})``."""
        return (
            np.asarray(self.times),
            {name: np.asarray(vals) for name, vals in self.values.items()},
        )


def standard_metrics(
    path_sample: int = 400,
    clustering_sample: int | None = 1500,
    seed: int = 0,
) -> dict[str, MetricFn]:
    """The paper's four Figure-1 metrics, with sampling knobs.

    The returned callables share one seeded RNG, so a full timeseries run
    is reproducible.
    """
    rng = make_rng(seed)
    return {
        "average_degree": average_degree,
        "average_path_length": lambda g: average_path_length_sampled(g, path_sample, rng),
        "average_clustering": lambda g: average_clustering(g, clustering_sample, rng),
        "assortativity": degree_assortativity,
    }


def compute_metric_timeseries(
    stream: EventStream | EventStore,
    metrics: Mapping[str, MetricFn] | MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    *,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> MetricTimeseries:
    """Evaluate ``metrics`` on snapshots every ``interval`` days.

    ``start`` defaults to the first interval boundary; snapshots with no
    nodes are skipped.

    ``metrics`` is either a mapping of named callables (the original API,
    always evaluated serially in-process) or a declarative
    :class:`repro.runtime.MetricSpec`, which unlocks the runtime layer:
    ``workers > 1`` evaluates contiguous snapshot windows in a process
    pool (bit-identical to serial), and ``cache_dir`` enables the
    content-addressed on-disk result cache.

    ``stream`` may also be an open :class:`~repro.store.reader.EventStore`
    (the columnar on-disk format).  With a :class:`MetricSpec` the store is
    handed to the runtime, which serves cache hits from the manifest digest
    without decoding; with plain callables it is decoded here.
    """
    from repro.runtime.spec import MetricSpec

    if isinstance(metrics, MetricSpec):
        from repro.runtime.api import compute_timeseries

        return compute_timeseries(
            stream, metrics, interval=interval, start=start, workers=workers, cache_dir=cache_dir
        )
    if workers != 1 or cache_dir is not None:
        raise ValueError(
            "workers/cache_dir require a repro.runtime.MetricSpec; ad-hoc metric "
            "callables cannot be re-seeded per snapshot or shipped to worker processes"
        )
    from repro.store.reader import EventStore as _EventStore

    if isinstance(stream, _EventStore):
        stream = stream.to_stream()
    replay = DynamicGraph(stream)
    series = MetricTimeseries(values={name: [] for name in metrics})
    for view in replay.snapshots(interval=interval, start=start):
        if view.graph.num_nodes == 0:
            continue
        series.times.append(view.time)
        for name, fn in metrics.items():
            series.values[name].append(fn(view.graph))
    return series
