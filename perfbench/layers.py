"""The layer table of the traced run: which public functions make up each layer.

Each entry names a layer and the functions that are its boundary, as
``"module:qualname"`` strings.  A qualname is either a module-level
function or ``Class.method``.  :mod:`tracer` wraps every one of them from
outside the program; nothing under ``src/`` is edited.

Per-event methods (``DeltaCSRGraph.add_edge``, ``DeltaMetricEngine.apply_edge``
and kin) are left out on purpose: a wrapper on a call made once per edge
would cost more than the work it times.

A target that no longer exists (a later change may delete ``gen.renren``
or a backend path) is reported as absent, never as an error.
"""

from __future__ import annotations

LAYERS: dict[str, tuple[str, ...]] = {
    "kernels.louvain": ("repro.kernels.louvain:louvain_csr",),
    "community.louvain": ("repro.community.louvain:louvain",),
    "community.modularity": ("repro.community.modularity:modularity",),
    "community.track": ("repro.community.tracking:track_stream",),
    "kernels.matching": ("repro.kernels.matching:match_communities_csr",),
    "kernels.csr_build": ("repro.kernels.csr:CSRGraph.from_snapshot",),
    "kernels.path_length": ("repro.kernels.traversal:average_path_length_csr",),
    "kernels.components": (
        "repro.kernels.traversal:component_labels",
        "repro.kernels.traversal:connected_components_csr",
        "repro.kernels.traversal:largest_component_csr",
    ),
    "kernels.clustering": (
        "repro.kernels.clustering:average_clustering_csr",
        "repro.kernels.clustering:local_clustering_csr",
        "repro.kernels.clustering:clustering_coefficients",
    ),
    "kernels.assortativity": ("repro.kernels.assortativity:degree_assortativity_csr",),
    "graph.replay": (
        "repro.graph.dynamic:DynamicGraph.advance_to",
        "repro.graph.dynamic:DynamicGraph.final",
    ),
    "runtime.timeseries": ("repro.runtime.api:compute_timeseries",),
    "kernels.delta": (
        "repro.kernels.delta:DeltaCSRGraph.compact",
        "repro.kernels.delta:DeltaCSRGraph.to_csr",
        "repro.kernels.delta:DeltaMetricEngine.apply_view",
        "repro.kernels.delta:DeltaMetricEngine.average_degree",
        "repro.kernels.delta:DeltaMetricEngine.degree_distribution",
        "repro.kernels.delta:DeltaMetricEngine.average_clustering",
        "repro.kernels.delta:DeltaMetricEngine.assortativity",
        "repro.kernels.delta:DeltaMetricEngine.to_csr",
        "repro.kernels.delta:DeltaMetricEngine.louvain_update",
        "repro.kernels.delta:louvain_warm_csr",
    ),
    "gen.renren": ("repro.gen.renren:generate_trace",),
    "gen.fast": (
        "repro.gen.fast:generate_store_fast",
        "repro.gen.fast:generate_trace_fast",
    ),
    "store.write": (
        "repro.store.writer:StoreWriter.append_arrays",
        "repro.store.writer:StoreWriter.close",
    ),
    "store.verify": ("repro.store.reader:EventStore.verify",),
    "store.decode": (
        "repro.store.reader:EventStore.to_stream",
        "repro.store.reader:EventStore.slice_events",
    ),
    "pa.edge_probability": ("repro.pa.edge_probability:EdgeProbabilityTracker.process",),
    "edges.interarrival": (
        "repro.edges.interarrival:node_edge_times",
        "repro.edges.interarrival:collect_interarrivals_by_age",
        "repro.edges.interarrival:interarrival_pdf_by_bucket",
    ),
    "edges.lifetime": (
        "repro.edges.lifetime:node_lifetimes",
        "repro.edges.lifetime:edge_creation_over_lifetime",
    ),
    "edges.node_age": ("repro.edges.node_age:minimal_age_fractions",),
    "edges.powerlaw": (
        "repro.edges.powerlaw:fit_power_law_binned",
        "repro.edges.powerlaw:fit_power_law_mle",
    ),
    "osnmerge.activity": (
        "repro.osnmerge.activity:activity_threshold",
        "repro.osnmerge.activity:active_users_over_time",
    ),
    "osnmerge.distance": ("repro.osnmerge.distance:cross_network_distance",),
    "osnmerge.edge_rates": (
        "repro.osnmerge.edge_rates:edges_per_day_by_type",
        "repro.osnmerge.edge_rates:internal_external_ratio",
        "repro.osnmerge.edge_rates:new_external_ratio",
    ),
    "ml.predict": ("repro.ml.prediction:predict_merges",),
    # Self time of the figure drivers themselves; inclusive time per
    # experiment id is reported as ``analysis.<ID>.s``.
    "analysis": ("repro.analysis.experiments:run_experiment",),
}

#: The target whose first positional argument names the experiment id.
EXPERIMENT_TARGET = "repro.analysis.experiments:run_experiment"

#: Experiment ids registered when the benchmark was defined.  An id that
#: disappears later reads 0; a new one still counts towards ``analysis``.
EXPERIMENT_IDS: tuple[str, ...] = tuple(
    "F1a F1b F1c F1d F1e F1f F2a F2b F2c F3ab F3c F4a F4b F4c F5a "
    "F5b F5c F6a F6b F6c F7a F7b F7c F8a F8b F8c F9a F9b F9c".split()
)
