"""The runtime front door: cache lookup around parallel evaluation.

:func:`compute_timeseries` is the one way to get a metric timeseries: the
CLI, :class:`~repro.analysis.AnalysisContext` and ``repro serve`` all call
it.  Its timings go to the trace recorder (``--trace``, then ``repro obs
summarize``), never into the result.
"""

from __future__ import annotations

from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.runtime.cache import ResultCache, stream_digest, timeseries_key
from repro.runtime.parallel import evaluate_timeseries
from repro.runtime.spec import MetricSpec
from repro.store.reader import EventStore

__all__ = ["compute_timeseries"]


def compute_timeseries(
    stream: EventStream | EventStore,
    spec: MetricSpec,
    interval: float = 3.0,
    start: float | None = None,
    workers: int = 1,
    cache: ResultCache[MetricTimeseries] | None = None,
) -> MetricTimeseries:
    """Evaluate ``spec`` over ``stream``, with an optional result cache.

    ``cache`` is a :class:`~repro.runtime.cache.ResultCache` with the
    :data:`~repro.runtime.cache.TIMESERIES` codec, or ``None`` to disable
    caching.  The result is keyed by stream content + spec + cadence
    (worker count does not participate: serial and parallel results are
    bit-identical), so a re-run with unchanged inputs is a pure read; the
    caller reads the cache's ``hits``/``misses`` to tell which happened.

    ``stream`` may be an open :class:`~repro.store.reader.EventStore`.  The
    cache key comes straight from the store manifest's content digest, so a
    hit returns without decoding a single event; on a miss the store is
    decoded once in the parent and parallel workers read only their own
    window's chunks from disk instead of receiving the whole stream.
    """
    key = None
    if cache is not None:
        key = timeseries_key(stream_digest(stream), spec, interval, start)
        hit = cache.load(key)
        if hit is not None:
            return hit
    store = stream if isinstance(stream, EventStore) else None
    events = stream.to_stream() if isinstance(stream, EventStore) else stream
    series = evaluate_timeseries(
        events, spec, interval=interval, start=start, workers=workers, store=store
    )
    if cache is not None and key is not None:
        cache.store(key, series)
    return series
