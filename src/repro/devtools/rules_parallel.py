"""Parallel-safety rules (RPL03x): fork/pickle/async contracts.

The runtime ships work to :class:`~concurrent.futures.ProcessPoolExecutor`
pools whose behavior differs between ``fork`` (globals inherited
copy-on-write) and ``spawn`` (everything pickled, module re-imported).
Code that happens to work under fork breaks under spawn — on macOS,
Windows, or any future sandboxed runner — and breaks *in a worker*,
where the traceback is least helpful.  These rules enforce the contracts
statically:

* RPL030 — lambdas/closures/local functions submitted to a pool (they
  cannot be pickled under spawn);
* RPL031 — worker callables missing from the pickle-whitelist manifest
  (:data:`repro.devtools.workers.WORKER_MANIFEST`);
* RPL032 — worker-side reads of mutable module globals that no pool
  initializer installs (a stale/default value under spawn);
* RPL033 — blocking calls inside ``async def`` (landing before
  ``repro serve`` exists, so the service starts with the contract
  enforced).
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Iterator
from dataclasses import dataclass

from repro.devtools.dataflow import (
    module_aliases,
    module_index,
    name_bindings,
    scope_bodies,
    walk_shallow,
)
from repro.devtools.engine import FileRule, ModuleInfo
from repro.devtools.workers import WORKER_EXEMPT, WORKER_MANIFEST

__all__ = [
    "BlockingAsyncRule",
    "PoolCallableRule",
    "WorkerGlobalsRule",
    "WorkerManifestRule",
    "parallel_rules",
]


def _executor_names(tree: ast.Module) -> set[str]:
    """Local names bound to ``ProcessPoolExecutor`` by imports."""
    return {
        local
        for local, original in module_index(tree).from_imports.get("concurrent.futures", ())
        if original == "ProcessPoolExecutor"
    }


def _is_executor_call(node: ast.expr, executor_names: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in executor_names
    # concurrent.futures.ProcessPoolExecutor(...)
    return isinstance(func, ast.Attribute) and func.attr == "ProcessPoolExecutor"


@dataclass(frozen=True)
class Submission:
    """One callable reaching a pool: a submit/map target or initializer."""

    callable: ast.expr
    line: int
    col: int
    role: str  # "submit", "map", or "initializer"


def _scope_submissions(
    body: list[ast.stmt], executor_names: set[str]
) -> Iterator[Submission]:
    """Callables shipped to a pool within one scope.

    Pools are recognized as direct ``ProcessPoolExecutor(...)`` calls,
    names assigned from one, and ``with ProcessPoolExecutor(...) as p``.
    ``initializer=`` is also recognized inside dict literals that carry a
    literal ``"initializer"`` key (the ``**pool_kwargs`` idiom).
    """
    bindings = name_bindings(body)
    pool_names = {
        name
        for name, values in bindings.items()
        if any(_is_executor_call(v, executor_names) for v in values)
    }
    for node in walk_shallow(body):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("submit", "map")
                and node.args
            ):
                receiver = func.value
                is_pool = (
                    isinstance(receiver, ast.Name) and receiver.id in pool_names
                ) or _is_executor_call(receiver, executor_names)
                if is_pool:
                    target = node.args[0]
                    yield Submission(target, target.lineno, target.col_offset, func.attr)
            if _is_executor_call(node, executor_names):
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        yield Submission(
                            kw.value, kw.value.lineno, kw.value.col_offset, "initializer"
                        )
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "initializer"
                    and value is not None
                ):
                    yield Submission(value, value.lineno, value.col_offset, "initializer")


# RPL030-RPL032 each ask for the same module's submissions in turn.
@functools.lru_cache(maxsize=1)
def _module_submissions(tree: ast.Module) -> tuple[tuple[list[ast.stmt], Submission], ...]:
    executor_names = _executor_names(tree)
    uses_executor = bool(executor_names) or (
        "ProcessPoolExecutor" in module_index(tree).attributes
    )
    if not uses_executor:
        return ()
    return tuple(
        (body, sub)
        for _scope, body in scope_bodies(tree)
        for sub in _scope_submissions(body, executor_names)
    )


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _local_defs(body: list[ast.stmt]) -> set[str]:
    """Functions defined *inside* this scope (not at module level)."""
    return {
        node.name
        for node in walk_shallow(body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _resolve_callable(
    sub: Submission,
    body: list[ast.stmt],
    module_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
) -> list[str] | None:
    """Module-level function names ``sub`` can refer to, or ``None``.

    Resolution follows one level of local name bindings (the
    ``run = _run_window`` idiom); anything else — attributes, calls,
    imported names — is unresolvable and left to RPL031's conservative
    finding.
    """
    node = sub.callable
    if isinstance(node, ast.Name):
        if node.id in module_fns:
            return [node.id]
        values = name_bindings(body).get(node.id)
        if values and all(
            isinstance(v, ast.Name) and v.id in module_fns for v in values
        ):
            return [v.id for v in values if isinstance(v, ast.Name)]
    return None


class PoolCallableRule(FileRule):
    """RPL030: lambdas and local functions cannot cross a spawn boundary."""

    code = "RPL030"
    name = "pool-callable"
    summary = (
        "lambda/closure/local function submitted to a process pool; only "
        "module-level functions pickle under the spawn start method"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        for body, sub in _module_submissions(module.tree):
            node = sub.callable
            if isinstance(node, ast.Lambda):
                yield (
                    sub.line,
                    sub.col,
                    f"lambda passed as a pool {sub.role} target cannot be "
                    "pickled under spawn; hoist it to a module-level function",
                )
            elif isinstance(node, ast.Name):
                local = _local_defs(body) - set(_module_functions(module.tree))
                if node.id in local:
                    yield (
                        sub.line,
                        sub.col,
                        f"local function {node.id!r} passed as a pool "
                        f"{sub.role} target closes over its defining frame "
                        "and cannot be pickled under spawn; move it to "
                        "module level",
                    )
                else:
                    bindings = name_bindings(body).get(node.id, [])
                    if any(isinstance(v, ast.Lambda) for v in bindings):
                        yield (
                            sub.line,
                            sub.col,
                            f"{node.id!r} is bound to a lambda before being "
                            f"passed as a pool {sub.role} target; lambdas "
                            "cannot be pickled under spawn",
                        )


class WorkerManifestRule(FileRule):
    """RPL031: worker callables must be in the pickle-whitelist manifest."""

    code = "RPL031"
    name = "worker-manifest"
    summary = (
        "process-pool worker callable missing from "
        "repro.devtools.workers.WORKER_MANIFEST (the pickle whitelist)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        module_fns = _module_functions(module.tree)
        for body, sub in _module_submissions(module.tree):
            node = sub.callable
            if isinstance(node, ast.Lambda):
                continue  # RPL030 already rejects it
            resolved = _resolve_callable(sub, body, module_fns)
            if resolved is None:
                if isinstance(node, ast.Name) and node.id in _local_defs(body):
                    continue  # RPL030 already rejects local defs
                yield (
                    sub.line,
                    sub.col,
                    f"cannot statically resolve the pool {sub.role} target; "
                    "submit a module-level function registered in "
                    "repro.devtools.workers.WORKER_MANIFEST",
                )
                continue
            for name in resolved:
                qualname = f"{module.module}.{name}"
                if qualname in WORKER_MANIFEST or qualname in WORKER_EXEMPT:
                    continue
                yield (
                    sub.line,
                    sub.col,
                    f"worker callable {qualname} is not registered in "
                    "repro.devtools.workers.WORKER_MANIFEST; declare its "
                    "payload types (or add a justified WORKER_EXEMPT entry)",
                )


def _global_statement_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    return {
        name
        for node in ast.walk(fn)
        if isinstance(node, ast.Global)
        for name in node.names
    }


class WorkerGlobalsRule(FileRule):
    """RPL032: worker-side reads of globals no initializer installs."""

    code = "RPL032"
    name = "worker-globals"
    summary = (
        "worker-side function reads a mutable module global that no pool "
        "initializer installs; under spawn the worker sees a stale default"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        tree = module.tree
        module_fns = _module_functions(tree)
        worker_fns: set[str] = set()
        initializer_fns: set[str] = set()
        for body, sub in _module_submissions(tree):
            resolved = _resolve_callable(sub, body, module_fns) or []
            if sub.role == "initializer":
                initializer_fns.update(resolved)
            else:
                worker_fns.update(resolved)
        if not worker_fns:
            return
        module_globals = {
            target.id
            for node in tree.body
            for target in (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, ast.AnnAssign)
                else []
            )
            if isinstance(target, ast.Name)
        }
        mutated = {
            name
            for fn in module_fns.values()
            for name in _global_statement_names(fn)
        }
        installed = {
            name
            for fn_name in initializer_fns
            for name in _global_statement_names(module_fns[fn_name])
        }
        hazardous = (module_globals & mutated) - installed
        if not hazardous:
            return
        for fn_name in sorted(worker_fns):
            fn = module_fns[fn_name]
            local = {
                arg.arg
                for arg in [
                    *fn.args.posonlyargs,
                    *fn.args.args,
                    *fn.args.kwonlyargs,
                ]
            } | {
                t.id
                for node in walk_shallow(fn.body)
                if isinstance(node, ast.Assign)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in walk_shallow(fn.body):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in hazardous
                    and node.id not in local
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"worker function {fn_name!r} reads module global "
                        f"{node.id!r}, which is reassigned at runtime but "
                        "installed by no pool initializer; under spawn the "
                        "worker sees the import-time default",
                    )


class BlockingAsyncRule(FileRule):
    """RPL033: blocking calls stall the event loop inside ``async def``."""

    code = "RPL033"
    name = "blocking-in-async"
    summary = (
        "blocking call inside 'async def'; use the asyncio equivalent or "
        "run_in_executor"
    )

    #: module -> attribute names that block the calling thread.
    _BLOCKING_ATTRS = {
        "time": {"sleep"},
        "os": {"system", "popen"},
        "subprocess": {"run", "call", "check_call", "check_output", "Popen"},
        "socket": {"socket", "create_connection"},
        "urllib.request": {"urlopen"},
    }
    _BLOCKING_BUILTINS = frozenset({"open", "input"})

    def check_module(self, module: ModuleInfo) -> Iterator[tuple[int, int, str]]:
        tree = module.tree
        aliases: dict[str, set[str]] = {}
        for target, attrs in self._BLOCKING_ATTRS.items():
            for alias in module_aliases(tree, target):
                aliases.setdefault(alias, set()).update(attrs)
        index = module_index(tree)
        from_imports = {
            local
            for source, blocked in self._BLOCKING_ATTRS.items()
            for local, original in index.from_imports.get(source, ())
            if original in blocked
        }
        for scope in index.functions:
            if not isinstance(scope, ast.AsyncFunctionDef):
                continue
            for node in walk_shallow(scope.body):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = None
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    if func.attr in aliases.get(func.value.id, ()):
                        name = f"{func.value.id}.{func.attr}"
                elif isinstance(func, ast.Name):
                    if func.id in self._BLOCKING_BUILTINS or func.id in from_imports:
                        name = func.id
                if name is not None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"blocking call {name}() inside 'async def' stalls "
                        "the event loop; await the asyncio equivalent or "
                        "push it through run_in_executor",
                    )


def parallel_rules() -> list[FileRule]:
    """The RPL03x family in code order."""
    return [
        PoolCallableRule(),
        WorkerManifestRule(),
        WorkerGlobalsRule(),
        BlockingAsyncRule(),
    ]
