"""Concurrent multi-process access to the on-disk cache.

``repro serve --workers N`` points N shard processes at one
``--cache-dir``, and nothing stops a second server (or a batch
``repro metrics`` run) from sharing the same directory.  The safety
story is the write-rename discipline of the one entry store,
:class:`repro.runtime.cache.ResultCache`: every entry is written to a
``mkstemp`` temp file in the cache directory and published with
``os.replace``, so a reader can only ever observe *no entry* or a
*complete* entry — never a torn one.  These tests audit that discipline
at the source level and then hammer it with real processes, once per
codec (``.npz`` metric timeseries and ``.json`` serve reports).
"""

from __future__ import annotations

import ast
import asyncio
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.metrics.timeseries import MetricTimeseries
from repro.runtime import MetricSpec, mp_context
from repro.runtime.cache import REPORT, TIMESERIES, ResultCache, cache_key, timeseries_key
from repro.serve.protocol import dumps

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

KEYS = [f"key-{i}" for i in range(8)]

CODECS = {"npz": TIMESERIES, "json": REPORT}


def expected_value(codec_name: str, index: int) -> MetricTimeseries | str:
    """The deterministic value every writer stores under ``KEYS[index]``."""
    if codec_name == "json":
        return json.dumps({"key": KEYS[index], "values": list(range(32))}, sort_keys=True)
    times = [float(t) for t in range(6)]
    return MetricTimeseries(
        times=times,
        values={"average_degree": [index + t / 10.0 for t in times]},
    )


def same_value(a: MetricTimeseries | str, b: MetricTimeseries | str) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.times == b.times and a.values == b.values


def cache_worker(args: tuple[str, str, int, int]) -> int:
    """Interleave stores and loads; count observations of torn entries.

    Every load must return either ``None`` (no complete entry yet) or
    exactly the value some writer stored — anything else means a torn
    read escaped the rename discipline.
    """
    root, codec_name, seed, rounds = args
    cache = ResultCache(root, CODECS[codec_name])
    rng = np.random.default_rng(seed)
    torn = 0
    for _ in range(rounds):
        index = int(rng.integers(len(KEYS)))
        key = cache_key(KEYS[index])
        if rng.random() < 0.5:
            cache.store(key, expected_value(codec_name, index))
        else:
            value = cache.load(key)
            if value is not None and not same_value(value, expected_value(codec_name, index)):
                torn += 1
    return torn


class TestWriteRenameAudit:
    """Source-level audit: the one cache writer publishes only via ``os.replace``."""

    def test_store_path_uses_mkstemp_and_replace(self):
        source = (REPO_SRC / "runtime" / "cache.py").read_text(encoding="utf-8")
        tree = ast.parse(source)
        calls = [
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        assert "mkstemp" in calls, "writes must stage via mkstemp"
        assert "replace" in calls, "writes must publish via os.replace"
        # rename() is not atomic-overwrite on all platforms; replace() is.
        assert "rename" not in calls, "use os.replace, not os.rename"

    def test_serve_cache_temp_files_stay_in_cache_dir(self, tmp_path):
        # mkstemp staging in the same directory is what makes os.replace
        # a same-filesystem rename (atomic) rather than a copy; after the
        # publish no temp file is left behind in ``<cache-dir>/serve``.
        cache = ResultCache(tmp_path / "serve", REPORT)
        cache.store(cache_key("k"), "{}")
        assert [p.name for p in (tmp_path / "serve").iterdir()] == [f"{cache_key('k')}.json"]


def run_stress(root: Path, codec_name: str) -> None:
    """Four processes share ``root``; none may observe a torn entry."""
    codec = CODECS[codec_name]
    with ProcessPoolExecutor(max_workers=4, mp_context=mp_context()) as pool:
        torn = list(
            pool.map(
                cache_worker,
                [(str(root), codec_name, seed, 100) for seed in range(4)],
            )
        )
    assert torn == [0, 0, 0, 0]
    # Every published entry is complete and no temp files leaked.
    cache = ResultCache(root, codec)
    for entry in root.iterdir():
        assert entry.suffix == codec.suffix
        assert cache.load(entry.name[: -len(codec.suffix)]) is not None


def check_corrupt_entry_repaired(root: Path, codec_name: str) -> None:
    """A corrupt entry loads as a miss and the next store repairs it."""
    cache = ResultCache(root, CODECS[codec_name])
    key = cache_key("k")
    want = expected_value(codec_name, 0)
    cache.store(key, want)
    # Simulate a torn/foreign entry published by a buggy writer.
    cache.path(key).write_text('{"torn', encoding="utf-8")
    assert cache.load(key) is None
    cache.store(key, want)
    loaded = cache.load(key)
    assert loaded is not None and same_value(loaded, want)
    assert (cache.hits, cache.misses) == (1, 1)


class TestResultCacheConcurrency:
    """The ``.npz`` metric-timeseries codec."""

    def test_multiprocess_stress_no_torn_reads(self, tmp_path):
        run_stress(tmp_path / "shared", "npz")

    def test_corrupt_entry_is_a_miss_then_repaired(self, tmp_path):
        check_corrupt_entry_repaired(tmp_path / "shared", "npz")


class TestServeCacheConcurrency:
    """The ``.json`` report codec the serve layer stores under ``<cache-dir>/serve``."""

    def test_multiprocess_stress_no_torn_reads(self, tmp_path):
        run_stress(tmp_path / "shared", "json")

    def test_truncated_entry_is_a_miss_then_repaired(self, tmp_path):
        check_corrupt_entry_repaired(tmp_path / "shared", "json")


class TestReportCodec:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "serve", REPORT)
        key = cache_key("a", "b")
        assert cache.load(key) is None
        cache.store(key, '{"x":1}')
        assert cache.load(key) == '{"x":1}'
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.path(key) == tmp_path / "serve" / f"{key}.json"

    def test_keys_pinned(self):
        # Digests computed before the serve report cache merged into
        # ResultCache: entries written by earlier versions stay hits only
        # while these literals hold.
        params = {"delta": 0.04, "interval": 20.0, "min_size": 3, "seed": 0}
        assert cache_key("communities", "ab" * 32, dumps(params)) == (
            "1de65131741fabab07d9ee37b7b4ba769638008ca1494444bfd4d368eb2fa8f2"
        )
        assert timeseries_key("ab" * 32, MetricSpec(), 30.0, None) == (
            "d31ea5e46a7df37e9e32eef44980130a225db24714f1f4d2bca03bebeee64617"
        )


class TestTwoServersOneCacheDir:
    def test_shared_cache_dir_servers_agree(self, tmp_path):
        """Two live servers on one ``--cache-dir`` answer identically.

        The second server's ``/communities`` answer must be byte-equal to
        the first's, and (having found the entry the first one published)
        must not recompute it.
        """
        from repro.gen.config import presets
        from repro.gen.renren import generate_trace
        from repro.serve import ReproServer, ServeConfig
        from repro.serve.protocol import http_request, parse_response_head
        from repro.store.convert import write_store

        store = tmp_path / "tiny.store"
        write_store(generate_trace(presets.tiny(), seed=11), store, chunk_events=512)
        cache_dir = str(tmp_path / "shared-cache")

        async def fetch(host, port, target):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(http_request(target, host))
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status, headers = parse_response_head(head)
                body = await reader.readexactly(int(headers["content-length"]))
                return status, body.decode()
            finally:
                writer.close()
                await writer.wait_closed()

        async def main():
            config = ServeConfig(store_path=str(store), cache_dir=cache_dir)
            first = ReproServer(config)
            second = ReproServer(config)
            host_a, port_a = await first.start()
            host_b, port_b = await second.start()
            try:
                a = await fetch(host_a, port_a, "/communities?interval=20")
                b = await fetch(host_b, port_b, "/communities?interval=20")
                stats_b = json.loads((await fetch(host_b, port_b, "/stats"))[1])
            finally:
                await first.stop()
                await second.stop()
            return a, b, stats_b

        a, b, stats_b = asyncio.run(main())
        assert a[0] == b[0] == 200
        assert a[1] == b[1]
        # The second server read the first's entry: a cache hit, no miss.
        assert stats_b["cache"].get("/communities:hit", 0) == 1
        assert stats_b["cache"].get("/communities:miss", 0) == 0
