"""Run a workload k times with distinct seeds; print end-to-end medians, quartiles, spread.

::

    python3 perfbench/repeat.py --workload paper-small -k 10
    python3 perfbench/repeat.py --workload serve-mixed -k 10 --base ../parent

Run from the root of a checkout.  Seeds are ``--first-seed`` onwards.
Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; a metric
is steady when its spread is below a third of its ``BENCHMARK.json`` bound.
Rows ``raw:<metric>`` give each metric as timed, before ``run.py`` scaled
it to the reference host.

With ``--base DIR`` every seed also runs in the checkout ``DIR`` (the
parent), alternating which side goes first, always with this checkout's
harness so both sides use identical benchmark code.  The table then adds
the base median, the relative change in median, and the pairs the change
won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HARNESS = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((HARNESS.parent.parent / "BENCHMARK.json").read_text())
#: Read from each run's ``info`` line rather than its metrics.
INFO_ROWS = (
    ("host.calib_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("error_rate", "fraction"),
)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, Any]:
    """One ``--trace 0`` harness run in ``checkout``; its result line plus its info line."""
    argv = [sys.executable, str(HARNESS), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def values(results: list[dict[str, Any]], name: str) -> list[float]:
    if name.startswith("raw:"):
        return [r["info"]["raw"][name[4:]] for r in results]
    if name in dict(INFO_ROWS):
        return [r["info"][name] for r in results]
    return [r["metrics"][name]["value"] for r in results]


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``."""
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("-k", type=int, default=10, help="runs per side")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--base", type=Path, default=None, help="parent checkout for A/B")
    args = parser.parse_args(argv)
    if args.k < 2:
        parser.error("-k must be at least 2 (quartiles need two values)")
    change: list[dict[str, Any]] = []
    base: list[dict[str, Any]] = []
    seeds = range(args.first_seed, args.first_seed + args.k)
    sides = [(Path.cwd(), change)]
    if args.base:
        sides.append((args.base, base))
    for i, seed in enumerate(seeds):
        for checkout, sink in sides if i % 2 == 0 else sides[::-1]:
            sink.append(run_once(checkout, args.workload, seed, args.seconds))
            result = sink[-1]
            print(
                f"# run {i + 1}/{args.k} seed {seed} {checkout}: "
                f"failed {result['failed']}/{result['attempted']}",
                file=sys.stderr,
            )
    metrics = SPEC["end_to_end"]
    lower = {m["name"]: m["better"] == "lower" for m in metrics}
    rows = [(m["name"], m["unit"], m["bound"]) for m in metrics]
    rows += [(name, unit, None) for name, unit in INFO_ROWS]
    rows += [(f"raw:{name}", unit, None) for name, unit, _ in rows[: len(metrics)]]
    header = f"{'metric':<34} {'unit':<8} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
    header += f" {'bound':>6} {'steady':>6}"
    if args.base:
        header += f" {'base med':>11} {'change':>8} {'wins':>6}"
    print(f"{args.workload}: {args.k} runs, seeds {seeds.start}..{seeds.stop - 1}")
    print(header)
    for name, unit, bound in rows:
        xs = values(change, name)
        median, q1, q3, spread = summary(xs)
        steady = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        line = f"{name:<34} {unit:<8} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f}"
        line += f" {'' if bound is None else bound:>6} {steady:>6}"
        if args.base:
            bs = values(base, name)
            base_median = statistics.median(bs)
            is_lower = lower.get(name, True)
            wins = sum(c < b if is_lower else c > b for c, b in zip(xs, bs, strict=True))
            delta = median / base_median - 1.0 if base_median else 0.0
            line += f" {base_median:>11.5g} {delta:>+8.3f} {wins:>3}/{args.k}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
