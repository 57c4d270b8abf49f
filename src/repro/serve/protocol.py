"""Wire protocol for ``repro serve``: queries, keys, envelopes, framing.

Everything here is pure data transformation — no sockets, no processes —
so both the asyncio front (:mod:`repro.serve.server`) and the load
generator (:mod:`repro.serve.loadgen`) share one definition of what a
request looks like and how a response is framed.

Determinism is the load-bearing property.  :func:`dumps` fixes key order
and separators and rejects NaN/Infinity (invalid JSON anyway — callers
sanitize with :func:`json_safe` first), so a response body is a pure
function of the query and the store content.  :func:`canonical_key`
serializes a validated query with every default filled in, which makes
it both the shard-routing key and the worker-side memo key: two requests
that differ only in parameter order or spelled-out defaults are the same
query everywhere.

Errors are typed envelopes, never bare strings::

    {"error": {"status": 400, "code": "bad-request", "message": "..."}}

``code`` is machine-matchable (``bad-request``, ``not-found``,
``timeout``, ``unavailable``, ``internal``); ``status`` duplicates the
HTTP status so the envelope is self-describing off the wire.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qsl, unquote

from repro.runtime.spec import STANDARD_METRIC_NAMES

__all__ = [
    "ENDPOINTS",
    "LOCAL_ENDPOINTS",
    "TELEMETRY_FORMATS",
    "Query",
    "QueryError",
    "canonical_key",
    "dumps",
    "envelope",
    "error_body",
    "http_request",
    "http_response",
    "json_safe",
    "parse_query",
    "parse_request_head",
    "parse_response_head",
    "shard_for",
]


class QueryError(Exception):
    """A request that cannot be served, carrying its HTTP identity."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Query:
    """A validated request: endpoint path plus fully-defaulted params."""

    endpoint: str
    params: dict[str, Any]


# -- parameter converters ---------------------------------------------------


def _bad(name: str, raw: str, expected: str) -> QueryError:
    return QueryError(
        400, "bad-request", f"parameter {name}={raw!r}: expected {expected}"
    )


def _float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise _bad(name, raw, "a number") from exc
    if not math.isfinite(value):
        raise _bad(name, raw, "a finite number")
    return value


def _pos_float(name: str, raw: str) -> float:
    value = _float(name, raw)
    if value <= 0:
        raise _bad(name, raw, "a positive number")
    return value


def _opt_float(name: str, raw: str) -> float | None:
    if raw in ("", "none"):
        return None
    return _float(name, raw)


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise _bad(name, raw, "an integer") from exc


def _pos_int(name: str, raw: str) -> int:
    value = _int(name, raw)
    if value <= 0:
        raise _bad(name, raw, "a positive integer")
    return value


def _opt_pos_int(name: str, raw: str) -> int | None:
    if raw in ("", "none"):
        return None
    return _pos_int(name, raw)


def _metric_names(name: str, raw: str) -> list[str]:
    names = [part for part in raw.split(",") if part]
    if not names:
        raise _bad(name, raw, "a comma-separated metric list")
    unknown = [n for n in names if n not in STANDARD_METRIC_NAMES]
    if unknown:
        raise _bad(name, raw, f"metrics from {sorted(STANDARD_METRIC_NAMES)}")
    return names


#: Sentinel default marking a parameter the client must supply.
_REQUIRED = object()

_Converter = Callable[[str, str], Any]

#: Data endpoints answered by shard workers: path -> {param: (convert, default)}.
#: Defaults are part of the canonical key, so an omitted parameter and its
#: spelled-out default are the same query.
ENDPOINTS: dict[str, dict[str, tuple[_Converter, Any]]] = {
    "/info": {},
    "/metrics": {
        "names": (_metric_names, list(STANDARD_METRIC_NAMES)),
        "interval": (_pos_float, 10.0),
        "start": (_opt_float, None),
        "seed": (_int, 0),
        "path_sample": (_pos_int, 200),
        "clustering_sample": (_opt_pos_int, 1500),
    },
    "/snapshot": {
        "t": (_float, _REQUIRED),
    },
    "/communities": {
        "interval": (_pos_float, 3.0),
        "delta": (_pos_float, 0.04),
        "min_size": (_pos_int, 10),
        "seed": (_int, 0),
        "at": (_opt_float, None),
    },
    "/merge-impact": {
        "merge_day": (_float, _REQUIRED),
        "seed": (_int, 0),
        "distance_sample": (_pos_int, 150),
    },
}

#: Endpoints the front process answers without a worker round-trip.
LOCAL_ENDPOINTS = ("/health", "/stats", "/telemetry")

#: ``/telemetry`` exposition formats (Prometheus text and its JSON twin).
TELEMETRY_FORMATS = ("prometheus", "json")


def parse_query(target: str) -> Query:
    """Validate request ``target`` (path + query string) into a :class:`Query`.

    Raises :class:`QueryError` with the right HTTP status for unknown
    endpoints (404) and malformed/unknown/missing parameters (400).
    """
    path, _, qs = target.partition("?")
    path = unquote(path)
    if path == "/telemetry":
        raw = dict(parse_qsl(qs, keep_blank_values=True))
        fmt = raw.pop("format", "prometheus")
        if raw:
            raise QueryError(
                400, "bad-request", f"unknown parameter(s) {sorted(raw)}"
            )
        if fmt not in TELEMETRY_FORMATS:
            raise QueryError(
                400,
                "bad-request",
                f"parameter format={fmt!r}: expected one of {list(TELEMETRY_FORMATS)}",
            )
        return Query(path, {"format": fmt})
    if path in LOCAL_ENDPOINTS:
        if qs:
            raise QueryError(400, "bad-request", f"{path} takes no parameters")
        return Query(path, {})
    spec = ENDPOINTS.get(path)
    if spec is None:
        raise QueryError(404, "not-found", f"unknown endpoint {path!r}")
    raw: dict[str, str] = {}
    for key, value in parse_qsl(qs, keep_blank_values=True):
        if key in raw:
            raise QueryError(400, "bad-request", f"duplicate parameter {key!r}")
        raw[key] = value
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise QueryError(400, "bad-request", f"unknown parameter(s) {unknown}")
    params: dict[str, Any] = {}
    for name, (convert, default) in spec.items():
        if name in raw:
            params[name] = convert(name, raw[name])
        elif default is _REQUIRED:
            raise QueryError(400, "bad-request", f"missing required parameter {name!r}")
        else:
            params[name] = default
    return Query(path, params)


# -- canonical encoding -----------------------------------------------------


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN/Infinity."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def json_safe(obj: Any) -> Any:
    """``obj`` with non-finite floats replaced by ``None``, recursively.

    Degenerate snapshots legitimately produce NaN metrics (assortativity
    of a star, similarity at birth); JSON has no NaN, so they serialize
    as ``null`` — deterministically.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(item) for item in obj]
    return obj


def canonical_key(query: Query) -> str:
    """The canonical serialized form of ``query`` (routing + memo key)."""
    return dumps({"endpoint": query.endpoint, "params": query.params})


def shard_for(key: str, shards: int) -> int:
    """Deterministic shard index for ``key`` in ``range(shards)``."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def error_body(status: int, code: str, message: str) -> str:
    """The typed JSON error envelope for a failed request."""
    return dumps({"error": {"status": status, "code": code, "message": message}})


def envelope(status: int, cache: str, body: str, seconds: float | None = None) -> str:
    """The worker -> front response envelope (a JSON string payload).

    ``cache`` records how the worker answered: ``hit``/``miss`` (the
    on-disk result cache), ``memo`` (worker-side response memo), or ``none``
    (no cache involved).  ``seconds`` is the worker-side handling time
    when freshly computed (memoized envelopes omit it) — the front
    subtracts it from the round-trip to observe queue wait.  Neither
    appears in the client-visible body, so responses stay bit-identical
    across cache states.
    """
    payload: dict[str, Any] = {"status": status, "cache": cache, "body": body}
    if seconds is not None:
        payload["seconds"] = seconds
    return dumps(payload)


# -- minimal HTTP/1.1 framing ----------------------------------------------

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def http_response(
    status: int,
    body: str,
    *,
    keep_alive: bool = True,
    content_type: str = "application/json",
) -> bytes:
    """Frame ``body`` as an HTTP/1.1 response with explicit length."""
    payload = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


def http_request(target: str, host: str = "localhost") -> bytes:
    """Frame a GET request for ``target`` on a keep-alive connection."""
    return (
        f"GET {target} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return headers


def parse_request_head(head: bytes) -> tuple[str, str, dict[str, str]]:
    """``(method, target, headers)`` from a request head (through CRLFCRLF)."""
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise QueryError(400, "bad-request", "non-ASCII request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise QueryError(400, "bad-request", f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    return method, target, _parse_headers(lines[1:])


def parse_response_head(head: bytes) -> tuple[int, dict[str, str]]:
    """``(status, headers)`` from a response head (through CRLFCRLF)."""
    lines = head.decode("ascii", errors="replace").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line {lines[0]!r}")
    return int(parts[1]), _parse_headers(lines[1:])
