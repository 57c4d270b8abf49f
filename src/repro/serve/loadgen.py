"""A seeded closed-loop load generator for ``repro serve``.

Models the paper's *consumers*: a population of simulated users issuing
queries against the service over real sockets.  Each user is one asyncio
task running a closed loop — think, request, wait for the full response,
think again — so offered load self-regulates with service latency, the
way trace-driven generators (Helix's ``TraceGenerator``, the faasm
makespan traces) model request arrival.

Think times are exponential (per-user Poisson arrivals) with a bursty
modulation: during the burst window of each period every user's think
time shrinks by ``burst_factor``, the synchronized activity bursts of
"On the Bursty Evolution of Online Social Networks" (Gaito et al.).
Every draw comes from ``default_rng((seed, user_id))``, so a load run's
*request sequence* is reproducible even though its timings are not.

The run report (written to ``BENCH_serve.json`` by the benchmark
harness) carries per-endpoint and aggregate p50/p95/p99 latency,
throughput, and 5xx counts — the numbers the CI bench-regression gate
tracks.  Latencies stream into fixed-size log-bucket histograms
(:class:`repro.obs.metrics.LogHistogram`) as they arrive, so a load run
holds O(endpoints) memory however long it runs, and reported quantiles
carry the histogram's documented relative-error bound (5% by default)
instead of being exact over an unbounded sample list.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.obs import LogHistogram, get_recorder, perf_counter
from repro.serve.protocol import http_request, parse_response_head

__all__ = ["LoadConfig", "LoadStats", "PROFILES", "run_loadgen"]

#: Request-mix profiles: name -> ((endpoint, weight), ...).  Weights are
#: normalized at draw time, so they only need to be relative.
PROFILES: dict[str, tuple[tuple[str, float], ...]] = {
    "mixed": (
        ("/metrics", 0.45),
        ("/snapshot", 0.30),
        ("/info", 0.15),
        ("/communities", 0.05),
        ("/health", 0.05),
    ),
    "metrics": (("/metrics", 0.90), ("/health", 0.10)),
    "scan": (("/snapshot", 0.70), ("/info", 0.30)),
}


@dataclass(frozen=True)
class LoadConfig:
    """One load run: who talks to whom, how hard, for how long."""

    host: str = "127.0.0.1"
    port: int = 8787
    users: int = 100
    duration: float = 10.0
    seed: int = 0
    mix: str = "mixed"
    think_mean: float = 2.0
    burst_period: float = 10.0
    burst_duty: float = 0.2
    burst_factor: float = 4.0
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.mix not in PROFILES:
            raise ValueError(f"unknown mix {self.mix!r}; expected {sorted(PROFILES)}")
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.duration <= 0 or self.think_mean <= 0:
            raise ValueError("duration and think_mean must be positive")


def run_loadgen(config: LoadConfig) -> dict[str, Any]:
    """Drive the server with ``config.users`` closed-loop users; report.

    Raises the open-file soft limit toward the hard limit first — each
    simulated user holds one keep-alive socket.
    """
    _raise_nofile_limit(config.users)
    return asyncio.run(_run(config))


def _raise_nofile_limit(users: int) -> None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    need = users + 128
    if soft >= need:
        return
    target = need if hard == resource.RLIM_INFINITY else min(need, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (OSError, ValueError):  # pragma: no cover - locked-down rlimits
        pass


class LoadStats:
    """Streaming accumulation for one load run: bounded, mergeable.

    One :class:`~repro.obs.metrics.LogHistogram` per endpoint replaces
    the historical unbounded ``list`` of every latency sample — the run
    report reads quantiles straight off the buckets, so memory is fixed
    no matter the duration.
    """

    __slots__ = ("errors", "histograms", "requests", "responses_5xx")

    def __init__(self) -> None:
        self.histograms: dict[str, LogHistogram] = {}
        self.requests = 0
        self.responses_5xx: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()

    def record(self, endpoint: str, status: int, latency_s: float) -> None:
        """File one completed request."""
        self.requests += 1
        hist = self.histograms.get(endpoint)
        if hist is None:
            hist = LogHistogram()
            self.histograms[endpoint] = hist
        hist.observe(latency_s)
        if status >= 500:
            self.responses_5xx[endpoint] += 1


async def _run(config: LoadConfig) -> dict[str, Any]:
    end_time = await _discover_end_time(config)
    stats = LoadStats()
    rec = get_recorder()
    epoch = perf_counter()
    with rec.span("loadgen.run", users=config.users, mix=config.mix):
        tasks = [
            asyncio.create_task(_user(config, user_id, epoch, end_time, stats))
            for user_id in range(config.users)
        ]
        await asyncio.gather(*tasks)
    elapsed = perf_counter() - epoch
    return _report(config, stats, elapsed)


async def _discover_end_time(config: LoadConfig) -> float:
    """One ``/info`` round-trip: the trace span bounds /snapshot targets."""
    import json

    reader, writer = await asyncio.open_connection(config.host, config.port)
    try:
        writer.write(http_request("/info", config.host))
        await writer.drain()
        status, body = await asyncio.wait_for(_read_response(reader), config.timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    if status != 200:
        raise RuntimeError(f"server /info answered {status}: {body.decode()!r}")
    return float(json.loads(body)["end_time"])


async def _user(
    config: LoadConfig,
    user_id: int,
    epoch: float,
    end_time: float,
    stats: LoadStats,
) -> None:
    """One simulated user: a closed loop on one keep-alive connection."""
    rng = np.random.default_rng((config.seed, user_id))
    deadline = epoch + config.duration
    # Stagger arrivals over one mean think time so the population does
    # not start phase-locked.
    await asyncio.sleep(float(rng.uniform(0.0, config.think_mean)))
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    while perf_counter() < deadline:
        if writer is None:
            try:
                reader, writer = await asyncio.open_connection(config.host, config.port)
            except OSError:
                stats.errors["connect"] += 1
                await asyncio.sleep(0.05)
                continue
        target = _pick_target(rng, config, end_time)
        endpoint = target.partition("?")[0]
        began = perf_counter()
        try:
            writer.write(http_request(target, config.host))
            await writer.drain()
            assert reader is not None
            status, _body = await asyncio.wait_for(
                _read_response(reader), config.timeout
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            stats.errors["transport"] += 1
            writer.close()
            reader = writer = None
            continue
        stats.record(endpoint, status, perf_counter() - began)
        think = float(rng.exponential(config.think_mean))
        if _in_burst(perf_counter() - epoch, config):
            think /= config.burst_factor
        await asyncio.sleep(min(think, max(0.0, deadline - perf_counter())))
    if writer is not None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def _pick_target(
    rng: np.random.Generator, config: LoadConfig, end_time: float
) -> str:
    """Draw the next request target from the user's mix profile."""
    profile = PROFILES[config.mix]
    total = sum(weight for _, weight in profile)
    draw = float(rng.uniform(0.0, total))
    endpoint = profile[-1][0]
    for name, weight in profile:
        if draw < weight:
            endpoint = name
            break
        draw -= weight
    if endpoint == "/snapshot":
        # A whole number of hundredths bounds the distinct-query cardinality
        # so the worker-side memo stays effective under long runs.  Drawn
        # from [0, floor(end_time * 100)], never past the end of the trace:
        # rounding a uniform draw to two decimals can step past it (159.99986
        # rounds to 160), which the server rightly answers with 404.
        hundredths = int(rng.integers(0, math.floor(end_time * 100) + 1))
        return f"/snapshot?t={hundredths / 100:g}"
    return endpoint


def _in_burst(elapsed: float, config: LoadConfig) -> bool:
    """Whether ``elapsed`` falls in the burst window of its period."""
    if config.burst_factor <= 1.0 or config.burst_period <= 0:
        return False
    phase = elapsed % config.burst_period
    return phase >= config.burst_period * (1.0 - config.burst_duty)


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one framed response; ``(status, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    status, headers = parse_response_head(head)
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, body


# -- reporting --------------------------------------------------------------


def _percentiles(hist: LogHistogram | None) -> dict[str, float]:
    """The report's latency row, read straight off a streaming histogram.

    Quantiles inherit the histogram's documented relative-error bound
    (``config.rel_error``, 5% by default); mean and max come from the
    exact sidecar.
    """
    if hist is None or not hist.count:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": 1000.0 * hist.quantile(0.5),
        "p95_ms": 1000.0 * hist.quantile(0.95),
        "p99_ms": 1000.0 * hist.quantile(0.99),
        "mean_ms": 1000.0 * hist.mean,
        "max_ms": 1000.0 * (hist.maximum or 0.0),
    }


def _report(config: LoadConfig, stats: LoadStats, elapsed: float) -> dict[str, Any]:
    """The run report: aggregate + per-endpoint latency and error counts."""
    endpoints = {
        endpoint: {
            "requests": hist.count,
            "responses_5xx": stats.responses_5xx.get(endpoint, 0),
            **_percentiles(hist),
        }
        for endpoint, hist in sorted(stats.histograms.items())
    }
    merged = LogHistogram()
    for hist in stats.histograms.values():
        merged.merge(hist)
    aggregate = {
        "requests": stats.requests,
        "elapsed_seconds": elapsed,
        "throughput_rps": stats.requests / elapsed if elapsed > 0 else 0.0,
        "responses_5xx": sum(stats.responses_5xx.values()),
        "transport_errors": sum(stats.errors.values()),
        **_percentiles(merged),
    }
    return {
        "config": asdict(config),
        "aggregate": aggregate,
        "endpoints": endpoints,
        "errors": dict(sorted(stats.errors.items())),
    }
