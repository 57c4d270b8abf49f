"""Dict/set reference implementations: the parity oracles of the CSR kernels.

Every graph algorithm in the library runs on the vectorized CSR kernels
(:mod:`repro.kernels`).  Each one has a plain dict/set twin here, written
the obvious way and kept out of the library surface.  The contract is
*bit-identical* output for identical RNG draws:

* ``tests/test_kernels_parity.py`` asserts exact ``==`` between each
  library function and its oracle over a ~50-graph corpus;
* ``benchmarks/test_kernels.py`` times the library against the oracle.

Layout mirrors the library:

* :mod:`~tests.oracles.components` — BFS components and largest component
  (``repro.graph.components``);
* :mod:`~tests.oracles.metrics` — local/average clustering, sampled path
  length, degree assortativity (``repro.metrics``);
* :mod:`~tests.oracles.louvain` — the dict-of-dicts Louvain level loop
  (``repro.community.louvain``);
* :mod:`~tests.oracles.modularity` — modularity and per-community
  internal-edge/degree counts over adjacency sets
  (``repro.community.modularity``);
* :mod:`~tests.oracles.tracking` — the per-pair community matcher
  (``repro.kernels.matching``);
* :mod:`~tests.oracles.edge_probability` — the pe(d) replay with an eager
  per-edge denominator (``repro.pa.edge_probability``).
"""

from tests.oracles.components import connected_components, largest_component
from tests.oracles.edge_probability import edge_probability_checkpoints
from tests.oracles.louvain import louvain
from tests.oracles.metrics import (
    average_clustering,
    average_path_length_sampled,
    degree_assortativity,
    local_clustering,
)
from tests.oracles.modularity import community_edge_stats, modularity
from tests.oracles.tracking import match_communities

__all__ = [
    "average_clustering",
    "average_path_length_sampled",
    "community_edge_stats",
    "connected_components",
    "degree_assortativity",
    "edge_probability_checkpoints",
    "largest_component",
    "local_clustering",
    "louvain",
    "match_communities",
    "modularity",
]
