"""``scripts/bench_check.py``: the benchmark-regression gate.

The script is a table of tracked report paths over the
``repro.obs.flatten_numeric``/``diff_rows``/``regressed`` engine; these
tests drive it on tmp-dir reports through ``check`` and ``main``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "baselines"


def _load_script():
    path = REPO / "scripts" / "bench_check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_check = _load_script()


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    """``(current, baseline)`` dirs gated on one higher and one lower ratio."""
    monkeypatch.setattr(
        bench_check,
        "TRACKED",
        {
            "speed": ("BENCH_speed.json", "aggregate.speedup", "higher", 0.0),
            "overhead": ("BENCH_overhead.json", "overhead_fraction", "lower", 0.005),
        },
    )
    current, baseline = tmp_path / "current", tmp_path / "baseline"
    for root in (current, baseline):
        root.mkdir()
        write(root, "BENCH_speed.json", {"aggregate": {"speedup": 10.0}})
        write(root, "BENCH_overhead.json", {"overhead_fraction": 0.0003})
    return current, baseline


def write(root: Path, name: str, doc: dict) -> None:
    (root / name).write_text(json.dumps(doc), encoding="utf-8")


def statuses(current: Path, baseline: Path) -> tuple[dict[str, str], int]:
    rows, code = bench_check.check(current, baseline, 0.20)
    return {row["suite"]: row["status"] for row in rows}, code


def test_unchanged_reports_pass(dirs):
    assert statuses(*dirs) == ({"speed": "ok", "overhead": "ok"}, 0)


def test_higher_is_better_regression_fails(dirs, capsys):
    current, baseline = dirs
    write(current, "BENCH_speed.json", {"aggregate": {"speedup": 7.0}})
    assert statuses(current, baseline)[0]["speed"] == "REGRESSED > 20%"
    assert bench_check.main(["--current-dir", str(current), "--baseline-dir", str(baseline)]) == 1
    assert "| speed | `aggregate.speedup` | higher | 10.000 | 7.000 | -30.0% |" in (
        capsys.readouterr().out
    )


def test_change_within_threshold_passes(dirs):
    current, baseline = dirs
    write(current, "BENCH_speed.json", {"aggregate": {"speedup": 8.5}})
    assert statuses(current, baseline) == ({"speed": "ok", "overhead": "ok"}, 0)


def test_slack_suppresses_near_zero_flap(dirs):
    current, baseline = dirs
    # +200% relative, but 0.0006 absolute: under the 0.005 slack.
    write(current, "BENCH_overhead.json", {"overhead_fraction": 0.0009})
    assert statuses(current, baseline) == ({"speed": "ok", "overhead": "ok"}, 0)
    # Past the slack the same lower-is-better ratio fails.
    write(current, "BENCH_overhead.json", {"overhead_fraction": 0.0103})
    assert statuses(current, baseline)[0]["overhead"] == "REGRESSED > 20%"


def test_missing_current_report_fails(dirs):
    current, baseline = dirs
    (current / "BENCH_speed.json").unlink()
    assert statuses(current, baseline) == ({"speed": "MISSING CURRENT", "overhead": "ok"}, 1)


def test_missing_baseline_passes(dirs):
    current, baseline = dirs
    (baseline / "BENCH_speed.json").unlink()
    assert statuses(current, baseline) == (
        {"speed": "no baseline (pass)", "overhead": "ok"}, 0
    )


def test_zero_baseline_passes(dirs):
    current, baseline = dirs
    write(baseline, "BENCH_speed.json", {"aggregate": {"speedup": 0.0}})
    assert statuses(current, baseline) == (
        {"speed": "zero baseline (pass)", "overhead": "ok"}, 0
    )


def test_missing_tracked_path_is_a_missing_row(tmp_path, capsys):
    # A current report that lost a tracked number fails with a MISSING
    # row instead of a KeyError traceback.
    current = tmp_path / "current"
    shutil.copytree(BASELINES, current)
    doc = json.loads((current / "BENCH_serve.json").read_text(encoding="utf-8"))
    del doc["aggregate"]["warm_speedup"]
    write(current, "BENCH_serve.json", doc)
    code = bench_check.main(["--current-dir", str(current), "--baseline-dir", str(BASELINES)])
    assert code == 1
    out = capsys.readouterr().out
    assert "| serve | `aggregate.warm_speedup` | higher | - | - | - | MISSING |" in out
    assert "| serve-telemetry |" in out and "| ok |" in out
