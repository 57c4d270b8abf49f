"""Declarative metric suites with per-snapshot seeding.

:class:`MetricSpec` is a picklable description of a metric suite:
metric *names* plus sampling parameters plus a seed.  The callables are
rebuilt per snapshot with an RNG seeded by ``(seed, snapshot_index)``, so
any process evaluating any snapshot draws the same random numbers — the
property that makes windowed parallel replay bit-identical to a serial
run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.metrics.degree import average_degree
from repro.metrics.paths import average_path_length_sampled

if TYPE_CHECKING:
    from repro.kernels.csr import CSRGraph

__all__ = ["MetricSpec", "STANDARD_METRIC_NAMES"]

# Metric callables take the snapshot plus an optional prebuilt CSRGraph of
# the same snapshot; the runtime builds one per snapshot and shares it
# across the whole suite.
MetricFn = Callable[[GraphSnapshot, "CSRGraph | None"], float]

STANDARD_METRIC_NAMES = (
    "average_degree",
    "average_path_length",
    "average_clustering",
    "assortativity",
)

_FACTORIES: dict[str, Callable[["MetricSpec", np.random.Generator], MetricFn]] = {
    "average_degree": lambda spec, rng: (lambda g, csr=None: average_degree(g)),
    "average_path_length": lambda spec, rng: (
        lambda g, csr=None: average_path_length_sampled(g, spec.path_sample, rng, csr=csr)
    ),
    "average_clustering": lambda spec, rng: (
        lambda g, csr=None: average_clustering(g, spec.clustering_sample, rng, csr=csr)
    ),
    "assortativity": lambda spec, rng: (lambda g, csr=None: degree_assortativity(g, csr=csr)),
}


@dataclass(frozen=True)
class MetricSpec:
    """A picklable description of which metrics to run and how to seed them.

    ``names`` selects from the registered metric suite; ``path_sample`` and
    ``clustering_sample`` are the paper's tractability knobs (§2).  The
    spec, not a generator object, crosses process boundaries — workers call
    :meth:`build` locally.
    """

    names: tuple[str, ...] = STANDARD_METRIC_NAMES
    path_sample: int = 400
    clustering_sample: int | None = 1500
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        unknown = [name for name in self.names if name not in _FACTORIES]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; available: {sorted(_FACTORIES)}")

    def build(self, snapshot_index: int) -> dict[str, MetricFn]:
        """Metric callables for the snapshot at ``snapshot_index``.

        All callables share one RNG seeded by ``(seed, snapshot_index)``
        and must be evaluated in ``names`` order, exactly once each, for
        reproducibility across runs and processes.
        """
        rng = np.random.default_rng((self.seed, snapshot_index))
        return {name: _FACTORIES[name](self, rng) for name in self.names}

    def fingerprint(self) -> str:
        """A stable hex digest of the spec, for cache keys."""
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()

