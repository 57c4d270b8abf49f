"""Content-addressed on-disk cache: one atomic entry store, two codecs.

Entries are keyed by a digest of everything that determines them.  For
metric timeseries (:func:`timeseries_key`) that is the stream's
*content* (not its path or mtime), the metric spec fingerprint (names,
sampling parameters, seed), the snapshot cadence, and a format version;
worker count is deliberately excluded — serial and parallel runs are
bit-identical, so they share entries.  ``repro serve`` keys its reports
by store content digest plus canonical query parameters.  Any change to
an input changes the key, so stale entries are simply never read again.

:class:`ResultCache` writes each entry to a ``mkstemp`` file in the
cache directory and publishes it with ``os.replace``: a crashed writer
never exposes a torn entry, and processes racing on one key all end
with a complete one.  A missing or undecodable entry is a miss.  Its
:class:`Codec` fixes the entry format — :data:`TIMESERIES` (``.npz``
arrays, used by :func:`repro.runtime.compute_timeseries`) or
:data:`REPORT` (validated JSON text, used by ``repro serve`` under
``<cache-dir>/serve``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Generic, TypeVar

import numpy as np

from repro.graph.events import EventStream
from repro.metrics.timeseries import MetricTimeseries
from repro.obs import get_recorder
from repro.runtime.spec import MetricSpec
from repro.store.reader import EventStore

__all__ = [
    "REPORT",
    "TIMESERIES",
    "Codec",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "stream_digest",
    "timeseries_key",
]

# Bump when the cache entry layout or any result-affecting convention
# (RNG derivation, grid semantics) changes.
CACHE_FORMAT_VERSION = 1

T = TypeVar("T")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def stream_digest(stream: EventStream | EventStore) -> str:
    """SHA-256 over the stream's full event content.

    Hashes times, ids, and origin labels of every event in order, so any
    edit to the stream — reordering, relabeling, a single timestamp —
    produces a different digest.  Short-circuits wherever the digest is
    already known: an :class:`~repro.store.reader.EventStore` answers
    straight from its manifest (no events are decoded), and an
    :class:`EventStream` caches the hash after the first computation.
    Store and stream digests are byte-identical for equal content, so the
    two paths share cache entries.
    """
    if isinstance(stream, EventStore):
        return stream.content_digest
    return stream.content_digest()


def cache_key(*parts: str) -> str:
    """A stable hex key: sha256 over the ``"\\x00"``-joined ``parts``."""
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def timeseries_key(
    digest: str, spec: MetricSpec, interval: float, start: float | None
) -> str:
    """Cache key for evaluating ``spec`` over the stream with ``digest``."""
    return cache_key(
        f"v{CACHE_FORMAT_VERSION}",
        digest,
        spec.fingerprint(),
        repr(float(interval)),
        repr(None if start is None else float(start)),
    )


@dataclass(frozen=True)
class Codec(Generic[T]):
    """How one kind of value is written to, and read back from, an entry.

    ``read`` raises (``OSError``, ``ValueError``, ``KeyError`` or
    ``zipfile.BadZipFile``) for a missing or undecodable file.
    """

    suffix: str
    write: Callable[[T, BinaryIO], None]
    read: Callable[[Path], T]


def _write_series(series: MetricTimeseries, handle: BinaryIO) -> None:
    names = list(series.values)
    times = np.asarray(series.times, dtype=np.float64)
    values = np.array(
        [np.asarray(series.values[name], dtype=np.float64) for name in names]
    ).reshape(len(names), times.size)
    np.savez(handle, names=np.array(names), times=times, values=values)


def _read_series(path: Path) -> MetricTimeseries:
    with np.load(path, allow_pickle=False) as data:
        names = [str(name) for name in data["names"]]
        times = data["times"]
        values = data["values"]
    return MetricTimeseries(
        times=times.tolist(),
        values={name: values[i].tolist() for i, name in enumerate(names)},
    )


def _write_report(text: str, handle: BinaryIO) -> None:
    handle.write(text.encode("utf-8"))


def _read_report(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    json.loads(text)  # a truncated or foreign entry is a miss, not a body
    return text


TIMESERIES: Codec[MetricTimeseries] = Codec(".npz", _write_series, _read_series)
REPORT: Codec[str] = Codec(".json", _write_report, _read_report)


class ResultCache(Generic[T]):
    """A directory of ``<key><codec.suffix>`` entries.

    ``hits`` and ``misses`` count :meth:`load` outcomes over the cache
    object's lifetime (``repro serve`` reads ``hits`` to report a
    ``/metrics`` cache hit).
    """

    def __init__(self, root: str | Path, codec: Codec[T]) -> None:
        self.root = Path(root).expanduser()
        self.codec = codec
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.root / f"{key}{self.codec.suffix}"

    def load(self, key: str) -> T | None:
        """The cached value for ``key``, or ``None`` on a miss.

        A file that cannot be decoded (truncated, foreign, or from a
        layout this version cannot read) counts as a miss: the entry is
        recomputed and overwritten, never raised to the caller.
        """
        rec = get_recorder()
        with rec.span("cache.lookup"):
            try:
                value = self.codec.read(self.path(key))
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                self.misses += 1
                if rec.enabled:
                    rec.count("cache.misses", 1)
                return None
            self.hits += 1
            if rec.enabled:
                rec.count("cache.hits", 1)
            return value

    def store(self, key: str, value: T) -> Path:
        """Atomically publish ``value`` under ``key``; returns the entry path."""
        with get_recorder().span("cache.store"):
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=f"{self.codec.suffix}.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    self.codec.write(value, handle)
                os.replace(tmp, self.path(key))
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            return self.path(key)
