"""Repository benchmark: three user-facing workloads driven through the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-small --seed 7 --seconds 15 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

``paper-small``
    ``repro experiment all --preset small --seed S``, the paper reproduction.
``ingest-replay``
    ``repro generate --preset huge --nodes 100000 --engine fast --seed S``
    into a store, ``repro store verify`` on it, then ``repro metrics`` over
    it at a 30-day cadence with ``--path-sample 50``.
``serve-mixed``
    ``repro serve --workers 2 --warm metrics,communities`` over a
    ``--preset small`` store, driven by an open loop of Poisson arrivals
    at 300 requests/s over 2 keep-alive connections, in four windows
    between the start-ups of four more servers.

Every program run is a fresh child process with ``PYTHONPATH=src``.  With
``--trace 0`` the children run the plain CLI and the last stdout line
carries the end-to-end metrics.  With ``--trace 1`` the batch workloads run
once plain and once under ``perfbench/tracer.py``, which times the layers
of ``perfbench/layers.py`` from outside; the last line then carries the
per-layer metrics.  Earlier stdout lines are a readable table and one
``{"info": ...}`` line (host speed, error rate, tail latency, the times
as measured) that ``perfbench/repeat.py`` reads.

The host's speed drifts by a factor of two over minutes on a shared
machine, so a ``HostSpeed`` child times a fixed loop all through each run,
and the result line gives every time scaled to a reference host on which
that loop takes ``REFERENCE_LOOP_MS``.

A failed operation is counted in the result line, which is still printed;
the harness exits non-zero without a result only when nothing could be
measured.  It reads and writes only under the checkout:
``.perfbench_work/`` holds the serve stores and the output digests used to
check that a seed's results do not change between runs, both per program
version and seed, and a per-run scratch directory.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TypeVar

from layers import EXPERIMENT_IDS, LAYERS

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_work"

# setup_s is the median of several fresh start-ups, half of them before the
# timed work and half after, so that a slow spell of a few seconds on a
# shared host does not decide it alone.
SETUP_PROBES = 9  # fresh CLI start-ups per batch run
SERVE_SETUPS = 5  # fresh servers per serve run; the first is loaded between the others
SERVE_RATE = 300.0  # open-loop arrivals per second, well below saturation
SERVE_CONNECTIONS = 2
REQUEST_TIMEOUT = 30.0
HEALTH_PROBES = 200
CHILD_TIMEOUT = 170.0  # a child still running after this is killed
#: loadgen's ``mixed`` profile: (endpoint, weight).
SERVE_MIX = (
    ("/metrics", 0.45),
    ("/snapshot", 0.30),
    ("/info", 0.15),
    ("/communities", 0.05),
    ("/health", 0.05),
)

Row = dict[str, float]

#: Times in the result line are scaled to a host on which one sample of the
#: ``HostSpeed`` loop takes this many ms of CPU.
REFERENCE_LOOP_MS = 1.0
HOST_BOUND = frozenset(
    {"wall_s", "setup_s", "cpu_ms_per_req", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms"}
)
T = TypeVar("T")


class BenchError(Exception):
    """The workload could not be measured (as opposed to a wrong output)."""


@dataclass
class Outcome:
    """What one workload run produced."""

    e2e: Row
    attempted: int
    failed: int
    layers: Row = field(default_factory=dict)
    #: The end-to-end metrics that scale with the host's speed.
    host_bound: frozenset[str] = HOST_BOUND


@dataclass
class Pass:
    """One pass of a batch workload's command sequence."""

    steps: list[float]  # wall seconds of each step, in order
    cpu_s: list[float]  # CPU seconds of each child, in order
    rss_mb: float  # largest peak RSS among the children
    attempted: int
    failed: int


@dataclass
class Child:
    """A finished child process."""

    code: int
    lines: list[tuple[float, str]]  # (seconds since spawn, stdout line)
    wall_s: float
    cpu_s: float
    rss_mb: float

    @property
    def stdout(self) -> str:
        return "".join(line + "\n" for _, line in self.lines)


# -- child processes ----------------------------------------------------------


def child_env(unbuffered: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Children behave like a default install: bytecode is cached after the
    # first run, and no cache directory or backend is forced from outside.
    for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_CACHE_DIR", "REPRO_BACKEND"):
        env.pop(name, None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_repro(
    args: list[str], log: Path, *, trace_out: Path | None = None, unbuffered: bool = False
) -> Child:
    """Run ``python -m repro ARGS`` (or the tracer) and wait for it."""
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out), *args]
    lines: list[tuple[float, str]] = []
    with open(log, "a", encoding="utf-8") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(unbuffered)
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                lines.append((time.perf_counter() - began, line.rstrip("\n")))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - began
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, lines, wall, cpu, usage.ru_maxrss / 1024.0)


def startup_probe(command: list[str], log: Path) -> float:
    """Seconds for a fresh ``python -m repro COMMAND --help`` to start and exit."""
    child = run_repro([*command, "--help"], log)
    if child.code != 0:
        raise BenchError(f"repro {' '.join(command)} --help exited {child.code}")
    return child.wall_s


def around(probe: Callable[[], float], work: Callable[[], T]) -> tuple[float, T]:
    """Median of ``SETUP_PROBES`` calls of ``probe``, half before ``work``; and its result."""
    samples = [probe() for _ in range(SETUP_PROBES // 2)]
    result = work()
    samples += [probe() for _ in range(SETUP_PROBES - len(samples))]
    return statistics.median(samples), result


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_row(done_s: list[float]) -> Row:
    """p50/p90/p99 in ms of operation latencies given in seconds."""
    return {f"latency_p{q}_ms": 1000.0 * percentile(done_s, q / 100.0) for q in (50, 90, 99)}


class HostSpeed:
    """A child that times a fixed pure-Python loop in CPU time, all through a run.

    It runs the loop about ten times a second (a few percent of one core)
    and writes one sample per line.  Its median is the host's speed during
    the run: on a shared host a busy neighbour slows every instruction, so
    the program's times and the loop's grow together, and CPU time leaves
    out the waits for a core that the benchmark's own processes cause.
    """

    SCRIPT = """
import time

def sample():
    began = time.process_time()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.process_time() - began) * 1000.0

while True:
    print(f"{sample():.5f}", flush=True)
    time.sleep(0.1)
"""

    def __init__(self, path: Path) -> None:
        self.path = path
        with open(path, "w", encoding="ascii") as out:
            self.proc = subprocess.Popen([sys.executable, "-c", self.SCRIPT], stdout=out)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def median_ms(self) -> float:
        """The median sample in ms, once stopped."""
        samples = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            with contextlib.suppress(ValueError):  # the line the kill cut short
                samples.append(float(line))
        if not samples:
            raise BenchError("the host-speed loop recorded no sample")
        return statistics.median(samples)


def source_id() -> str:
    """Short hash of every file under ``src/``: one id per version of the program."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def digest_check(name: str, seed: int, digest: str) -> bool:
    """True unless an earlier run of this program version recorded another digest."""
    path = STATE / "digests" / source_id() / f"{name}-{seed}.txt"
    if path.exists():
        return path.read_text().strip() == digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return True


def repeat_for(seconds: float, once: Callable[[], Pass]) -> list[Pass]:
    """Passes of ``once``, started until ``seconds`` have gone by.

    Always at least one; none after a pass with a failed operation.
    """
    passes: list[Pass] = []
    began = time.perf_counter()
    while not passes or (time.perf_counter() - began < seconds and not passes[-1].failed):
        passes.append(once())
    return passes


def batch_outcome(passes: list[Pass], completions: Callable[[list[float]], list[float]]) -> Outcome:
    """End-to-end metrics from the fastest time of each step and child over ``passes``.

    On a shared host a busy neighbour only ever slows a step down, so the
    fastest of several passes is the time the program needs; a slow spell
    moves it only if it covers that step in every pass.  ``completions``
    turns the step times into the times at which the pass's results were
    done.  Passes that ended early, with fewer steps, are left out.
    """
    like = [p for p in passes if len(p.steps) == len(passes[0].steps)]
    steps = [min(column) for column in zip(*(p.steps for p in like), strict=True)]
    cpu = [min(column) for column in zip(*(p.cpu_s for p in like), strict=True)]
    e2e = {
        "wall_s": sum(steps),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "cpu_ms_per_req": 1000.0 * sum(cpu) / passes[0].attempted,
        **latency_row(completions(steps)),
    }
    return Outcome(e2e, sum(p.attempted for p in passes), sum(p.failed for p in passes))


# -- layer attribution --------------------------------------------------------


def layer_metrics(traces: list[dict[str, Any]], wall_s: float, plain_wall_s: float) -> Row:
    """Per-layer metrics from the tracer reports of one workload's traced children."""
    out: Row = {}
    attributed = 0.0
    for name in LAYERS:
        rows = [trace["layers"].get(name, {}) for trace in traces]
        self_s = sum(row.get("self_s", 0.0) for row in rows)
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = float(sum(row.get("calls", 0) for row in rows))
        attributed += self_s
    for exp_id in EXPERIMENT_IDS:
        out[f"analysis.{exp_id}.s"] = sum(t["experiments"].get(exp_id, 0.0) for t in traces)
    out["unattributed_s"] = wall_s - attributed
    out["attributed_share"] = attributed / wall_s
    out["trace_overhead"] = wall_s / plain_wall_s - 1.0
    out["trace.absent"] = float(len({target for t in traces for target in t["absent"]}))
    return out


# -- paper-small --------------------------------------------------------------

HEADER = re.compile(r"^\[(\w+)\] (.*)$")
FINDING = re.compile(r"^  (\S.*?)\s+=\s+(\S+)")


def check_findings(stdout: str) -> tuple[int, int]:
    """``(experiments, failed)``: each ``[ID]`` block needs finite findings."""
    blocks: dict[str, list[float]] = {}
    skipped = 0
    current: list[float] | None = None
    for line in stdout.splitlines():
        head = HEADER.match(line)
        if head:
            if head.group(2).startswith("skipped:"):
                skipped += 1
                current = None
            else:
                current = blocks.setdefault(head.group(1), [])
            continue
        found = FINDING.match(line)
        if found and current is not None:
            try:
                current.append(float(found.group(2)))
            except ValueError:
                current.append(math.nan)
    bad = sum(1 for values in blocks.values() if not values or not all(map(math.isfinite, values)))
    return len(blocks) + skipped, bad + skipped


def paper_small_once(seed: int, log: Path, trace_out: Path | None = None) -> Pass:
    args = ["experiment", "all", "--preset", "small", "--seed", str(seed)]
    child = run_repro(args, log, trace_out=trace_out, unbuffered=True)
    # Each experiment prints its block when it finishes, so the arrival times
    # of the headers cut the run into one step per experiment (the first also
    # holds the start-up) and a last step from the final block to the exit.
    marks = [t for t, line in child.lines if HEADER.match(line)]
    steps = [end - begin for begin, end in zip([0.0, *marks], [*marks, child.wall_s])]
    attempted, failed = check_findings(child.stdout)
    if child.code != 0:
        # The run ended early: the experiments it never reached failed too.
        unreached = max(len(EXPERIMENT_IDS) - attempted, 1)
        attempted, failed = attempted + unreached, failed + unreached
    elif not digest_check("paper-small", seed, hashlib.sha256(child.stdout.encode()).hexdigest()):
        failed += 1
    return Pass(steps, [child.cpu_s], child.rss_mb, attempted, failed)


def experiments_done(steps: list[float]) -> list[float]:
    """When each experiment was done: all are due at process start.

    A run that printed no block counts its experiments as done at its exit.
    """
    return list(itertools.accumulate(steps))[:-1] or [sum(steps)]


def paper_small(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    log = work / "children.log"
    setup, passes = around(
        lambda: startup_probe(["experiment"], log),
        lambda: repeat_for(seconds, lambda: paper_small_once(seed, log)),
    )
    outcome = batch_outcome(passes, experiments_done)
    outcome.e2e["setup_s"] = setup
    if trace:
        path = work / "trace-paper.json"
        traced = paper_small_once(seed, log, trace_out=path)
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
        if path.exists():
            traces = [json.loads(path.read_text())]
            outcome.layers = layer_metrics(traces, sum(traced.steps), outcome.e2e["wall_s"])
    return outcome


# -- ingest-replay ------------------------------------------------------------

WROTE = re.compile(r"wrote (\d+) nodes / (\d+) edges")
DIGEST = re.compile(r"^digest\s*:\s*(\S+)", re.M)


@dataclass
class Ingest:
    """One pass of the three ingest-replay steps."""

    run: Pass
    events: int  # node + edge events written by the generator
    traces: list[dict[str, Any]]


def ingest_once(seed: int, work: Path, log: Path, trace_dir: Path | None = None) -> Ingest:
    store = work / "ingest.store"
    shutil.rmtree(store, ignore_errors=True)
    generate = "generate --preset huge --nodes 100000 --engine fast".split()
    steps = [
        [*generate, "--seed", str(seed), "--out", str(store)],
        ["store", "verify", str(store)],
        ["metrics", str(store), "--interval", "30", "--path-sample", "50"],
    ]
    children: list[Child] = []
    traces: list[dict[str, Any]] = []
    for index, args in enumerate(steps):
        trace_out = None if trace_dir is None else trace_dir / f"step{index}.json"
        children.append(run_repro(args, log, trace_out=trace_out))
        if trace_out is not None and trace_out.exists():
            traces.append(json.loads(trace_out.read_text()))
    gen, verify, metrics = children
    found = DIGEST.search(run_repro(["store", "info", str(store)], log).stdout)
    shutil.rmtree(store, ignore_errors=True)
    checks = [
        gen.code == 0
        and found is not None
        and digest_check("ingest-replay", seed, found.group(1)),
        ": ok" in verify.stdout,
        metric_rows_ok(metrics.stdout),
    ]
    failed = sum(child.code != 0 or not ok for child, ok in zip(children, checks, strict=True))
    wrote = WROTE.search(gen.stdout)
    events = int(wrote.group(1)) + int(wrote.group(2)) if wrote else 0
    run = Pass(
        [child.wall_s for child in children],
        [child.cpu_s for child in children],
        max(child.rss_mb for child in children),
        len(steps),
        failed,
    )
    return Ingest(run, events, traces)


def table_done(steps: list[float]) -> list[float]:
    """When the one result of a pass, the metrics table, was done: at its end.

    Generate and verify only prepare it, and the table is due when the pass
    starts.  Taking each step as a result would put the median at the end of
    verify, ~3 s in: a window short enough to swing with the host's speed.
    """
    return [sum(steps)]


def metric_rows_ok(stdout: str) -> bool:
    """The ``repro metrics`` table has at least one row and every cell is finite."""
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    try:
        return bool(rows) and all(math.isfinite(float(cell)) for row in rows for cell in row)
    except ValueError:
        return False


def ingest_replay(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    log = work / "children.log"
    setup, passes = around(
        lambda: startup_probe(["generate"], log),
        lambda: repeat_for(seconds, lambda: ingest_once(seed, work, log).run),
    )
    outcome = batch_outcome(passes, table_done)
    outcome.e2e["setup_s"] = setup
    if trace:
        trace_dir = work / "traces"
        trace_dir.mkdir()
        traced = ingest_once(seed, work, log, trace_dir)
        outcome.attempted += traced.run.attempted
        outcome.failed += traced.run.failed
        layers = layer_metrics(traced.traces, sum(traced.run.steps), outcome.e2e["wall_s"])
        gen_s = sum(t["layers"]["gen.fast"]["incl_s"] for t in traced.traces)
        layers["gen.fast.events_per_s"] = traced.events / gen_s if gen_s else 0.0
        outcome.layers = layers
    return outcome


# -- serve-mixed --------------------------------------------------------------

LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` child with its own fresh cache directory."""

    def __init__(self, store: Path, cache_dir: Path, log: Path) -> None:
        argv = [sys.executable, "-m", "repro", "serve", str(store), "--port", "0"]
        argv += ["--workers", "2", "--warm", "metrics,communities", "--cache-dir", str(cache_dir)]
        self._err = open(log, "a", encoding="utf-8")  # closed by stop()
        self.shards: dict[int, str] = {}  # shard pid -> its start time
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._err, text=True, env=child_env()
        )
        watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - began
        found = LISTENING.search(line)
        if found is None:
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))
        # The shard workers are up before the listener opens.  They are
        # remembered with their start times (against pid reuse) so that
        # stop() can end them even if the front dies first and orphans them.
        for entry in os.listdir("/proc"):
            stat = _proc_stat(int(entry)) if entry.isdigit() else None
            if stat is not None and int(stat[1]) == self.proc.pid:
                self.shards[int(entry)] = stat[19]

    @property
    def pids(self) -> list[int]:
        """The front process and its shard workers."""
        return [self.proc.pid, *self.shards]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        for pid, started in self.shards.items():
            for _ in range(250):
                stat = _proc_stat(pid)
                if stat is None or stat[19] != started or stat[0] == "Z":
                    break
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        self._err.close()


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/PID/stat`` after the command name (state is index 0)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    stat = _proc_stat(pid)
    if stat is None:
        return 0.0
    return (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def serve_store(seed: int, log: Path) -> Path:
    """The ``--preset small`` store for ``seed``, generated once per program version."""
    store = STATE / "stores" / source_id() / f"small-{seed}.store"
    if not store.exists():
        partial = store.with_name(f"{store.name}.{os.getpid()}.tmp")
        shutil.rmtree(partial, ignore_errors=True)
        partial.parent.mkdir(parents=True, exist_ok=True)
        args = ["generate", "--preset", "small", "--seed", str(seed)]
        child = run_repro([*args, "--format", "store", "--out", str(partial)], log)
        if child.code != 0:
            raise BenchError(f"repro generate exited {child.code}")
        partial.rename(store)
    return store


async def http_get(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, host: str, target: str
) -> tuple[int, bytes]:
    writer.write(f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


def plan_requests(seed: int, seconds: float, end_time: float) -> list[tuple[float, str]]:
    """Poisson arrival offsets and targets for one load run, from the seed alone."""
    rng = random.Random(seed)
    total = sum(weight for _, weight in SERVE_MIX)
    plan = []
    offset = rng.expovariate(SERVE_RATE)
    while offset < seconds:
        draw = rng.uniform(0.0, total)
        endpoint = SERVE_MIX[-1][0]
        for name, weight in SERVE_MIX:
            if draw < weight:
                endpoint = name
                break
            draw -= weight
        if endpoint == "/snapshot":
            # A whole number of hundredths no later than the end of the trace:
            # rounding a uniform draw to 2 decimals can step past the end,
            # which the server rightly answers with 404.
            hundredths = rng.randint(0, int(end_time * 100))
            endpoint = f"/snapshot?t={hundredths / 100:g}"
        plan.append((offset, endpoint))
        offset += rng.expovariate(SERVE_RATE)
    return plan


@dataclass
class Load:
    """The open-loop load of one run, summed over its windows.

    A request that failed has no latency.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)  # endpoint -> seconds
    done: list[float] = field(default_factory=list)  # every latency, in completion order
    lateness: list[float] = field(default_factory=list)  # seconds handed out after due
    wall_s: float = 0.0
    errors: Counter[str] = field(default_factory=Counter)  # why requests failed
    first_body: dict[str, bytes] = field(default_factory=dict)  # target -> first response


async def open_loop(host: str, port: int, plan: list[tuple[float, str]], load: Load) -> None:
    """Send ``plan`` on schedule over keep-alive connections; time from due.

    A response counts only if it is 200 and byte-identical to the first
    response for the same target in ``load``, to which the window adds.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[tuple[float, str] | None] = asyncio.Queue()
    try:
        conns = [await asyncio.open_connection(host, port) for _ in range(SERVE_CONNECTIONS)]
    except OSError as exc:
        load.errors[f"connect: {type(exc).__name__}"] += len(plan)
        return
    start = loop.time() + 0.05
    last_done = start

    async def produce() -> None:
        for offset, target in plan:
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            load.lateness.append(max(0.0, loop.time() - due))
            queue.put_nowait((due, target))
        for _ in conns:
            queue.put_nowait(None)

    async def consume(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        nonlocal last_done
        while (item := await queue.get()) is not None:
            due, target = item
            try:
                status, body = await asyncio.wait_for(
                    http_get(reader, writer, host, target), REQUEST_TIMEOUT
                )
            except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError) as exc:
                load.errors[f"{target.partition('?')[0]}: {type(exc).__name__}"] += 1
                writer.close()
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                except OSError:
                    break  # the server is gone; the rest of the plan goes unanswered
                continue
            done = loop.time()
            last_done = max(last_done, done)
            endpoint = target.partition("?")[0]
            if status != 200:
                load.errors[f"{endpoint}: status {status}"] += 1
            elif load.first_body.setdefault(target, body) != body:
                load.errors[f"{endpoint}: body differs from the first response"] += 1
            else:
                load.latencies.setdefault(endpoint, []).append(done - due)
                load.done.append(done - due)
        writer.close()

    await asyncio.gather(produce(), *(consume(r, w) for r, w in conns))
    load.wall_s += last_done - start


async def fetch(host: str, port: int, target: str, repeat: int = 1) -> tuple[bytes, list[float]]:
    """GET ``target`` ``repeat`` times on one connection; last body and each latency."""
    reader, writer = await asyncio.open_connection(host, port)
    times = []
    body = b""
    try:
        for _ in range(repeat):
            began = time.perf_counter()
            status, body = await http_get(reader, writer, host, target)
            times.append(time.perf_counter() - began)
            if status != 200:
                raise BenchError(f"{target} answered {status}")
    finally:
        writer.close()
    return body, times


def serve_mixed(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    log = work / "children.log"
    store = serve_store(seed, log)
    caches = (work / f"cache{n}" for n in itertools.count())

    def fresh_setup() -> float:
        server = Server(store, next(caches), log)
        server.stop()
        return server.setup_s

    # The load runs in windows between the start-ups of the other servers,
    # so that it samples the host over the whole run rather than one stretch
    # of it: on a shared host, speed moves in spells that can outlast a
    # 20 s load.  One server takes every window, so its memo still fills.
    server = Server(store, next(caches), log)
    setups = [server.setup_s]
    load = Load()
    try:
        info, _ = asyncio.run(fetch(server.host, server.port, "/info"))
        plan = plan_requests(seed, seconds, float(json.loads(info)["end_time"]))
        pids = server.pids
        cpu = dict.fromkeys(pids, 0.0)
        windows = SERVE_SETUPS - 1
        p50_ms: list[float] = []  # per window
        cpu_ms: list[float] = []  # per window, per completed request
        for k in range(windows):
            if k:
                setups.append(fresh_setup())
            begin, end = k * seconds / windows, (k + 1) * seconds / windows
            window = [(offset - begin, target) for offset, target in plan if begin <= offset < end]
            cpu_before = {pid: cpu_seconds(pid) for pid in pids}
            answered = len(load.done)
            asyncio.run(open_loop(server.host, server.port, window, load))
            spent = 0.0
            for pid in pids:
                used = cpu_seconds(pid) - cpu_before[pid]
                cpu[pid] += used
                spent += used
            if len(load.done) > answered:
                p50_ms.append(1000.0 * percentile(load.done[answered:], 0.5))
                cpu_ms.append(1000.0 * spent / (len(load.done) - answered))
        rss = max(vm_hwm_mb(pid) for pid in pids)
        stats: dict[str, Any] = {}
        health: list[float] = []
        probes_failed = 0
        if trace:
            try:
                stats = json.loads(asyncio.run(fetch(server.host, server.port, "/stats"))[0])
                _, health = asyncio.run(fetch(server.host, server.port, "/health", HEALTH_PROBES))
            except (OSError, BenchError) as exc:
                print(f"error: serve-mixed: probe after the load: {exc}", file=sys.stderr)
                probes_failed = 1
    except OSError as exc:
        raise BenchError(f"cannot reach the server: {exc}") from exc
    finally:
        server.stop()
    setups.append(fresh_setup())
    for reason, count in load.errors.items():
        print(f"error: serve-mixed: {count} request(s) failed: {reason}", file=sys.stderr)
    if not load.done:
        raise BenchError("no request completed")
    # Like the batch passes, the windows sample the host at different times,
    # and the fastest window's median and CPU cost are the program's own.
    e2e = {
        **latency_row(load.done),
        "wall_s": load.wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "cpu_ms_per_req": min(cpu_ms),
        "latency_p50_ms": min(p50_ms),
    }
    failed = len(plan) - len(load.done) + probes_failed
    outcome = Outcome(e2e, len(plan) + probes_failed, failed)
    # The load's length is set by its arrival schedule, not by the host.
    outcome.host_bound = HOST_BOUND - {"wall_s"}
    if trace:
        outcome.layers = serve_layers(load, stats, health, cpu, server.proc.pid)
    return outcome


def serve_layers(
    load: Load, stats: dict[str, Any], health: list[float], cpu: dict[int, float], front: int
) -> Row:
    completed = sum(len(lats) for lats in load.latencies.values())
    out = {
        f"serve.{endpoint.strip('/')}.p50_ms": 1000.0 * percentile(lats, 0.5)
        for endpoint, lats in load.latencies.items()
    }
    out["serve.front.health_p50_ms"] = 1000.0 * statistics.median(health) if health else 0.0
    shard_cpu = sum(seconds for pid, seconds in cpu.items() if pid != front)
    out["serve.front.cpu_ms_per_req"] = 1000.0 * cpu[front] / completed
    out["serve.shards.cpu_ms_per_req"] = 1000.0 * shard_cpu / completed
    shards = [shard.get("cache", {}) for shard in stats.get("shards", [])]
    totals = {
        key: sum(shard.get(key, 0) for shard in shards) for key in ("hit", "miss", "memo", "none")
    }
    lookups = sum(totals.values())
    out["serve.memo_ratio"] = totals["memo"] / lookups if lookups else 0.0
    out["serve.cache_hits"] = float(totals["hit"])
    out["serve.cache_misses"] = float(totals["miss"])
    per_shard = [sum(shard.values()) for shard in shards]
    mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
    out["serve.shard_skew"] = max(per_shard) / mean if mean else 0.0
    out["serve.warm_s"] = float(stats.get("warm_seconds") or 0.0)
    out["loadgen.late_max_ms"] = 1000.0 * max(load.lateness)
    out["loadgen.late_p99_ms"] = 1000.0 * percentile(load.lateness, 0.99)
    return out


# -- entry point --------------------------------------------------------------

WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "paper-small": paper_small,
    "ingest-replay": ingest_replay,
    "serve-mixed": serve_mixed,
}


def spec_units(kind: str) -> dict[str, str]:
    """Every metric name of ``kind`` (``end_to_end`` or ``per_layer``) with its unit."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    work = STATE / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = HostSpeed(work / "host-speed.txt")
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
        speed.stop()
        calib = speed.median_ms()
    except BenchError as exc:
        outcome = None
        print(f"error: {args.workload}: {exc}; no measurement", file=sys.stderr)
    finally:
        speed.stop()
    if outcome is None or outcome.failed:
        print(f"error: {args.workload}: child stderr follows", file=sys.stderr)
        print((work / "children.log").read_text(errors="replace")[-4000:], file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    if outcome is None:
        return 1
    raw = dict(outcome.e2e)
    for name in outcome.host_bound:
        outcome.e2e[name] *= REFERENCE_LOOP_MS / calib
    if args.trace:
        units = spec_units("per_layer")
        values = {
            **outcome.layers,
            "host.calib_ms": calib,
            "latency_p90_ms": outcome.e2e["latency_p90_ms"],
            "latency_p99_ms": outcome.e2e["latency_p99_ms"],
        }
        metrics = {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units}
    else:
        units = spec_units("end_to_end")
        metrics = {name: {"value": outcome.e2e[name], "unit": units[name]} for name in units}
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>14.6g} {entry['unit']}")
    info = {
        "host.calib_ms": calib,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "latency_p90_ms": outcome.e2e["latency_p90_ms"],
        "latency_p99_ms": outcome.e2e["latency_p99_ms"],
        "raw": raw,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
