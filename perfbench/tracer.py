"""Run one ``repro`` CLI command with every layer of :mod:`layers` timed from outside.

::

    python perfbench/tracer.py OUT.json experiment all --preset small --seed 7

The arguments after ``OUT.json`` are passed to ``repro.cli.main`` unchanged.
Before the command starts, each target in :data:`layers.LAYERS` is imported
and every binding of it in the loaded ``repro.*`` modules is replaced by a
timing wrapper: ``from x import f`` copies the reference, so patching only
the defining module would miss those callers.  Modules imported later read
the patched attribute.  A reference kept elsewhere (a registry dict, a
default argument) is not seen.

Each wrapper records calls, inclusive seconds and self seconds (its time
minus the time of the wrapped calls nested in it).  The counters stay in
memory; ``OUT.json`` is written once, when the command ends.  A target that
cannot be found is listed under ``absent`` with a warning on stderr, and
the command runs regardless.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable
from typing import Any

from layers import EXPERIMENT_TARGET, LAYERS


class LayerStats:
    """Counters for one layer; ``depth`` keeps recursion out of ``incl_s``."""

    __slots__ = ("calls", "depth", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.depth = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Owns the wrapped-call stack and the per-layer counters of one process."""

    def __init__(self) -> None:
        self.layers = {name: LayerStats() for name in LAYERS}
        self.experiments: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # time of nested wrapped calls, one slot per open call

    def wrap(self, fn: Callable[..., Any], layer: str, by_experiment: bool) -> Callable[..., Any]:
        stats = self.layers[layer]
        stack = self._stack
        experiments = self.experiments
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            began = clock()
            stack.append(0.0)
            stats.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - began
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stats.depth == 0:
                    stats.incl_s += elapsed
                if stack:
                    stack[-1] += elapsed
                if by_experiment and args:
                    key = str(args[0])
                    experiments[key] = experiments.get(key, 0.0) + elapsed

        return timed

    def install(self) -> None:
        """Import every target, then patch all of its bindings."""
        resolved = []
        for layer, targets in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    print(f"tracer: warning: {target} is absent", file=sys.stderr)
                else:
                    resolved.append((layer, target, *found))
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, target, owner, name, raw in resolved:
            if isinstance(owner, type):
                setattr(owner, name, self._wrap_member(raw, layer))
                continue
            wrapper = self.wrap(raw, layer, target == EXPERIMENT_TARGET)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, attr, wrapper)

    def _wrap_member(self, raw: Any, layer: str) -> Any:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(raw.__func__, layer, False))
        return self.wrap(raw, layer, False)

    def report(self) -> dict[str, Any]:
        return {
            "layers": {
                name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s}
                for name, s in self.layers.items()
            },
            "experiments": self.experiments,
            "absent": self.absent,
        }


def _resolve(target: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, raw value)`` for ``module:qualname``, or None if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json <repro arguments...>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    sys.argv = ["repro", *command]
    code: Any = 1
    try:
        code = cli_main(command)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
