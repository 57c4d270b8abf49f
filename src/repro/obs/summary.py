"""Human-readable rendering and the one regression engine.

:func:`render_trace` is what ``repro obs summarize`` prints — per-span
timing rollups, counters, histograms, and one row per lane.
:func:`flatten_numeric` / :func:`diff_rows` / :func:`render_diff` power
``repro obs diff``: two telemetry or trace snapshots flattened to dotted
numeric rows and compared with percent deltas.  :func:`regressed` is the
one predicate that calls a row a regression; ``repro obs diff
--fail-above`` and ``scripts/bench_check.py`` both gate on it.
"""

from __future__ import annotations

from typing import Any

from repro.obs.merge import aggregate, lane_summary

__all__ = [
    "diff_rows",
    "flatten_numeric",
    "regressed",
    "render_diff",
    "render_trace",
]


def _format_count(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:.3f}"


def render_trace(payload: dict[str, Any]) -> str:
    """The trace payload as a span/counter/lane summary table."""
    rollup = aggregate(payload)
    lines: list[str] = []
    lines.append(f"{'span':<32}{'count':>8}{'total s':>12}{'mean ms':>12}")
    for name, row in sorted(
        rollup["spans"].items(), key=lambda item: (-item[1]["total_s"], item[0])
    ):
        lines.append(
            f"{name:<32}{int(row['count']):>8d}{row['total_s']:>12.3f}"
            f"{row['mean_ms']:>12.2f}"
        )
    if rollup["counters"]:
        lines.append("")
        lines.append(f"{'counter':<44}{'value':>12}")
        for name, value in rollup["counters"].items():
            lines.append(f"{name:<44}{_format_count(value):>12}")
    if rollup.get("histograms"):
        lines.append("")
        lines.append(
            f"{'histogram':<32}{'count':>8}{'mean ms':>10}{'p50 ms':>10}"
            f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}"
        )
        for name, row in rollup["histograms"].items():
            maximum = row["max"] if row["max"] is not None else 0.0
            lines.append(
                f"{name:<32}{int(row['count']):>8d}{1000.0 * row['mean']:>10.2f}"
                f"{1000.0 * row['p50']:>10.2f}{1000.0 * row['p95']:>10.2f}"
                f"{1000.0 * row['p99']:>10.2f}{1000.0 * maximum:>10.2f}"
            )
    lines.append("")
    lines.append(f"{'lane':>6}  {'label':<14}{'pid':>8}{'spans':>8}{'busy s':>10}{'peak MB':>10}")
    for row in lane_summary(payload):
        peak_mb = row["peak_rss_bytes"] / (1024.0 * 1024.0)
        lines.append(
            f"{row['lane']:>6d}  {row['label']:<14}{row['pid']:>8d}{row['spans']:>8d}"
            f"{row['total_s']:>10.3f}{peak_mb:>10.1f}"
        )
    return "\n".join(lines)


def flatten_numeric(tree: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to ``{"a.b.c": value}`` for numeric leaves.

    The comparison basis for ``repro obs diff``: a ``/telemetry`` JSON
    snapshot and a trace payload's :func:`aggregate` rollup both reduce
    to dotted rows this way.  Lists and non-numeric leaves are skipped
    (booleans included — they are flags, not measurements).
    """
    rows: dict[str, float] = {}
    if isinstance(tree, dict):
        for key in sorted(tree, key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.update(flatten_numeric(tree[key], path))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        rows[prefix] = float(tree)
    return rows


def diff_rows(
    before: dict[str, float], after: dict[str, float]
) -> list[dict[str, Any]]:
    """Row-wise comparison of two flattened snapshots.

    Each row is ``{"metric", "before", "after", "delta"}`` where
    ``delta`` is the signed fractional change ``(after - before) /
    |before|``, or ``None`` when either side is missing or the baseline
    is zero.
    """
    rows: list[dict[str, Any]] = []
    for metric in sorted(set(before) | set(after)):
        a = before.get(metric)
        b = after.get(metric)
        delta = None
        if a is not None and b is not None and a != 0:
            delta = (b - a) / abs(a)
        rows.append({"metric": metric, "before": a, "after": b, "delta": delta})
    return rows


def regressed(
    row: dict[str, Any], threshold: float, direction: str = "lower", slack: float = 0.0
) -> bool:
    """Whether a :func:`diff_rows` row moved the bad way past the gate.

    A ``"lower"``-is-better metric regresses by rising, a ``"higher"`` one
    by falling.  The fractional change in the bad direction must exceed
    ``threshold`` *and* the absolute change be at least ``slack`` (which
    keeps near-zero metrics from failing on relative change alone).  Rows
    without a delta (a side missing, or a zero baseline) never regress.
    """
    delta = row["delta"]
    if delta is None:
        return False
    worse = delta if direction == "lower" else -delta
    return bool(worse > threshold and abs(row["after"] - row["before"]) >= slack)


def render_diff(rows: list[dict[str, Any]], threshold: float | None = None) -> str:
    """The regression table ``repro obs diff`` prints.

    With ``threshold`` set, rows that :func:`regressed` (lower is better,
    zero slack) are flagged with a trailing ``!`` — the CLI exits nonzero
    when any row is flagged.
    """

    def _cell(value: float | None) -> str:
        if value is None:
            return "-"
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.6g}"

    lines = [f"{'metric':<52}{'before':>14}{'after':>14}{'delta':>10}"]
    for row in rows:
        delta = row["delta"]
        if delta is None:
            shown = "-"
        else:
            shown = f"{100.0 * delta:+.1f}%"
            if threshold is not None and regressed(row, threshold):
                shown += " !"
        lines.append(
            f"{row['metric']:<52}{_cell(row['before']):>14}"
            f"{_cell(row['after']):>14}{shown:>10}"
        )
    return "\n".join(lines)
