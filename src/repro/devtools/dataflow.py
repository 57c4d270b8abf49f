"""Lightweight intraprocedural dataflow shared by the RPL02x/RPL03x rules.

Two analyses live here:

* **dtype flow** (:class:`DtypeEnv`) — a per-scope fixpoint that tracks
  the numpy dtype of local names through assignments, ``np.*``
  constructors, ``astype`` casts, arithmetic promotion, and calls to
  sibling functions whose return annotation uses the
  ``repro.util.arrays`` aliases (:func:`alias_summaries`).  The model is
  deliberately conservative: a name with conflicting or unanalyzable
  bindings infers to ``None`` (unknown), and rules must treat unknown as
  "cannot prove safe" or "cannot prove unsafe" depending on their
  polarity.
* **binding flow** (:func:`name_bindings`) — the shallow map from local
  names to the expressions assigned to them, used by the parallel-safety
  rules to resolve what actually reaches a process pool.

Module-wide facts every rule family asks for — import aliases, function
scopes, attribute names — come from one :class:`ModuleIndex` per tree,
built in a single ``ast.walk`` and memoized (:func:`module_index`).

Dtypes are canonical numpy names (``"uint16"``, ``"int64"``, ...) plus
the pseudo-dtypes ``"pyint"``/``"pyfloat"``/``"pybool"`` for plain Python
scalars, which have arbitrary precision and therefore never overflow.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "DtypeEnv",
    "Guard",
    "ModuleIndex",
    "alias_summaries",
    "collect_guards",
    "dtype_from_node",
    "from_imports",
    "guarded",
    "is_64bit",
    "is_narrow_int",
    "is_numpy_int",
    "itemsize",
    "module_aliases",
    "module_index",
    "name_bindings",
    "names_in",
    "numpy_aliases",
    "scope_bodies",
    "walk_shallow",
]

# -- dtype lattice ------------------------------------------------------

_INT_SIZES = {
    "int8": 1, "int16": 2, "int32": 4, "int64": 8,
    "uint8": 1, "uint16": 2, "uint32": 4, "uint64": 8,
}
_FLOAT_SIZES = {"float32": 4, "float64": 8}
_PY_SCALARS = {"pyint", "pyfloat", "pybool"}

#: Integer dtypes narrower than 8 bytes — the overflow hazard class.
NARROW_INTS = frozenset(d for d, size in _INT_SIZES.items() if size < 8)

# One-letter numpy kind codes -> canonical names, for "<u2"-style strings.
_KIND_SIZES = {"i": "int", "u": "uint", "f": "float"}

# Spelled-out dtype tokens accepted in string literals and np attributes.
_DTYPE_TOKENS = {
    **{name: name for name in _INT_SIZES},
    **{name: name for name in _FLOAT_SIZES},
    "bool": "bool", "bool_": "bool",
    "intp": "int64", "int_": "int64", "longlong": "int64",
    "single": "float32", "double": "float64", "float_": "float64",
    "byte": "int8", "short": "int16", "ubyte": "uint8", "ushort": "uint16",
}


def is_narrow_int(dtype: str | None) -> bool:
    """An integer dtype that can silently wrap at paper scale."""
    return dtype in NARROW_INTS


def is_numpy_int(dtype: str | None) -> bool:
    return dtype in _INT_SIZES


def is_64bit(dtype: str | None) -> bool:
    """A dtype wide enough that accumulation cannot lose width."""
    return dtype in {"int64", "uint64", "float64"}


def itemsize(dtype: str | None) -> int | None:
    if dtype in _INT_SIZES:
        return _INT_SIZES[dtype]
    if dtype in _FLOAT_SIZES:
        return _FLOAT_SIZES[dtype]
    return None


def _parse_dtype_string(text: str) -> str | None:
    """Canonicalize a dtype string literal (``"uint16"``, ``"<u2"``, ``"i8"``)."""
    token = text.strip().lstrip("<>=|")
    if token in _DTYPE_TOKENS:
        return _DTYPE_TOKENS[token]
    if len(token) == 2 and token[0] in _KIND_SIZES and token[1].isdigit():
        return f"{_KIND_SIZES[token[0]]}{8 * int(token[1])}"
    return None


# -- module-level context ----------------------------------------------


@dataclass(frozen=True)
class ModuleIndex:
    """Module-wide facts from one ``ast.walk`` of a module tree.

    ``imports`` maps each plainly imported module to the local names it is
    bound to; ``from_imports`` maps each ``from M import ...`` source to
    its ``(local, original)`` pairs in walk order; ``functions`` lists
    every function definition in walk order; ``attributes`` holds every
    attribute name accessed anywhere.
    """

    imports: dict[str, frozenset[str]]
    from_imports: dict[str, tuple[tuple[str, str], ...]]
    functions: tuple[ast.FunctionDef | ast.AsyncFunctionDef, ...]
    attributes: frozenset[str]


# The engine runs every file rule on one module before the next, so a
# one-entry cache gives each module one index shared by all rule families.
@functools.lru_cache(maxsize=1)
def module_index(tree: ast.Module) -> ModuleIndex:
    """The :class:`ModuleIndex` of ``tree`` (memoized for the last tree)."""
    imports: dict[str, set[str]] = {}
    froms: dict[str, list[tuple[str, str]]] = {}
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        elif isinstance(node, ast.Import):
            for item in node.names:
                imports.setdefault(item.name, set()).add(
                    item.asname or item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            froms.setdefault(node.module, []).extend(
                (item.asname or item.name, item.name) for item in node.names
            )
    return ModuleIndex(
        imports={name: frozenset(local) for name, local in imports.items()},
        from_imports={name: tuple(pairs) for name, pairs in froms.items()},
        functions=tuple(functions),
        attributes=frozenset(attributes),
    )


def module_aliases(tree: ast.Module, target: str) -> set[str]:
    """Local names bound to module ``target`` by plain imports."""
    return set(module_index(tree).imports.get(target, ()))


def from_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """``{local_name: original_name}`` for ``from module import ...``."""
    return dict(module_index(tree).from_imports.get(module, ()))


def numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the module uses for numpy itself (typically ``{"np"}``)."""
    return module_aliases(tree, "numpy")


def _array_alias_names(tree: ast.Module) -> dict[str, str]:
    """Local names for the ``repro.util.arrays`` dtype aliases.

    Maps each imported alias (``IntArray``, ``arrays.IntArray`` is not
    resolved — attribute access is out of model) to its element dtype.
    """
    element = {
        "IntArray": "int64",
        "FloatArray": "float64",
        "BoolArray": "bool",
        "UIntArray": "uint64",
        "UInt16Array": "uint16",
    }
    return {
        local: element[original]
        for local, original in module_index(tree).from_imports.get("repro.util.arrays", ())
        if original in element
    }


def alias_summaries(tree: ast.Module) -> dict[str, str]:
    """Per-function dtype summaries from ``repro.util.arrays`` annotations.

    A module-level (or method) ``def f(...) -> IntArray`` contributes
    ``{"f": "int64"}``; calls to ``f`` then carry a known dtype without
    interprocedural analysis.  Methods are summarized by bare name, which
    is deliberately coarse: two same-named methods with different alias
    returns would collide, so only agreeing summaries are kept.
    """
    aliases = _array_alias_names(tree)
    summaries: dict[str, str] = {}
    dropped: set[str] = set()
    for node in module_index(tree).functions:
        returns = node.returns
        if isinstance(returns, ast.Name) and returns.id in aliases:
            dtype = aliases[returns.id]
            if summaries.get(node.name, dtype) != dtype:
                dropped.add(node.name)
            summaries[node.name] = dtype
    for name in dropped:
        del summaries[name]
    return summaries


def dtype_from_node(node: ast.expr | None, np_names: set[str]) -> str | None:
    """Parse a dtype *expression* (the value of a ``dtype=`` argument)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _parse_dtype_string(node.value)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in np_names:
            return _DTYPE_TOKENS.get(node.attr)
        return None
    if isinstance(node, ast.Name):
        return {"int": "int64", "float": "float64", "bool": "bool"}.get(node.id)
    if isinstance(node, ast.Call):
        # np.dtype("<u2") and np.dtype(np.uint16)
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "dtype"
            and isinstance(func.value, ast.Name)
            and func.value.id in np_names
            and node.args
        ):
            return dtype_from_node(node.args[0], np_names)
    return None


# -- scope walking ------------------------------------------------------


def walk_shallow(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: analyzed separately
        stack.extend(ast.iter_child_nodes(node))


def scope_bodies(
    tree: ast.Module,
) -> Iterator[tuple[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function."""
    yield tree, tree.body
    for node in module_index(tree).functions:
        yield node, node.body


def names_in(node: ast.AST) -> frozenset[str]:
    """Every ``Name`` identifier occurring anywhere under ``node``."""
    return frozenset(
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    )


def name_bindings(body: list[ast.stmt]) -> dict[str, list[ast.expr]]:
    """Shallow map of local name -> every expression assigned to it.

    Covers plain assignments and ``with ... as name`` (the expression is
    the context manager).  Tuple-unpacking targets are not resolved —
    callers treat unpacked names as unknown.
    """
    bindings: dict[str, list[ast.expr]] = {}
    for node in walk_shallow(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bindings.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                bindings.setdefault(node.optional_vars.id, []).append(
                    node.context_expr
                )
    return bindings


# -- bounds guards ------------------------------------------------------


Guard = tuple[int, frozenset[str]]


def collect_guards(body: list[ast.stmt]) -> list[Guard]:
    """``(line, names-under-test)`` for every ``if``/``assert`` in the scope.

    The dtype rules treat a preceding conditional that mentions one of
    the flagged statement's names as an explicit bounds guard.  This is a
    *syntactic* contract — the analysis does not prove the predicate is
    the right one, only that the author wrote a range check at all.
    """
    guards: list[Guard] = []
    for node in walk_shallow(body):
        if isinstance(node, (ast.If, ast.Assert)):
            guards.append((node.lineno, names_in(node.test)))
    return guards


def guarded(stmt: ast.stmt, guards: list[Guard]) -> bool:
    """Is ``stmt`` preceded by a guard naming any of its operands?"""
    stmt_names = names_in(stmt)
    return any(
        line < stmt.lineno and names & stmt_names for line, names in guards
    )


# -- dtype environment --------------------------------------------------

# np.* constructors whose result dtype is the dtype= argument (or a
# well-known default).
_FLOAT_DEFAULT_CTORS = frozenset({"zeros", "ones", "empty", "linspace"})
_DTYPE_CTORS = _FLOAT_DEFAULT_CTORS | frozenset(
    {"full", "arange", "asarray", "array", "fromiter", "asanyarray"}
)
# np.* element-wise functions that follow binary promotion.
_PROMOTING_FUNCS = frozenset({"minimum", "maximum", "add", "multiply", "subtract"})
# np.* reductions whose dtype= argument fixes the accumulator.
_REDUCTIONS = frozenset({"cumsum", "cumprod", "prod", "sum"})
# Constructors like np.int64(x) — scalar casts.
_SCALAR_CASTS = frozenset(_DTYPE_TOKENS)


def promote(left: str | None, right: str | None) -> str | None:
    """Binary dtype promotion, conservative: ``None`` when unsure."""
    if left is None or right is None:
        return None
    if left == right:
        return left
    if left in _PY_SCALARS and right in _PY_SCALARS:
        order = ["pybool", "pyint", "pyfloat"]
        return max(left, right, key=order.index)
    # NEP 50: a python scalar adopts the array operand's dtype.
    if left in _PY_SCALARS:
        return right if right not in _PY_SCALARS else None
    if right in _PY_SCALARS:
        return left
    if left in _FLOAT_SIZES or right in _FLOAT_SIZES:
        lf, rf = _FLOAT_SIZES.get(left), _FLOAT_SIZES.get(right)
        if lf is not None and rf is not None:
            return left if lf >= rf else right
        return None  # int/float mix: result width depends on the int
    if left in _INT_SIZES and right in _INT_SIZES:
        if left.startswith("u") != right.startswith("u"):
            return None  # signed/unsigned mix promotes unpredictably
        return left if _INT_SIZES[left] >= _INT_SIZES[right] else right
    return None


class DtypeEnv:
    """Dtypes of local names in one scope, inferred to a fixpoint.

    A name assigned expressions with conflicting dtypes — or any
    expression the model cannot type — infers to unknown (``None``),
    never to a guess.
    """

    def __init__(
        self,
        body: list[ast.stmt],
        np_names: set[str],
        summaries: dict[str, str] | None = None,
        params: dict[str, str] | None = None,
    ) -> None:
        self.body = body
        self.np_names = np_names
        self.summaries = summaries or {}
        self._env: dict[str, str | None] = dict(params or {})
        self._infer()

    @classmethod
    def for_scope(
        cls,
        scope: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef,
        body: list[ast.stmt],
        np_names: set[str],
        summaries: dict[str, str],
        alias_params: dict[str, str],
    ) -> DtypeEnv:
        """Build an env, seeding parameter dtypes from alias annotations."""
        params: dict[str, str] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotation = arg.annotation
                if isinstance(annotation, ast.Name) and annotation.id in alias_params:
                    params[arg.arg] = alias_params[annotation.id]
        return cls(body, np_names, summaries, params)

    def _infer(self) -> None:
        for _ in range(4):  # few rounds reach fixpoint on real code
            changed = False
            for node in walk_shallow(self.body):
                target: ast.Name | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    if isinstance(node.targets[0], ast.Name):
                        target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        target, value = node.target, node.value
                if target is None or value is None:
                    continue
                dtype = self.dtype_of(value)
                name = target.id
                if name in self._env and self._env[name] != dtype:
                    # Conflicting bindings: degrade to unknown, once.
                    if self._env[name] is not None:
                        self._env[name] = None
                        changed = True
                elif name not in self._env:
                    self._env[name] = dtype
                    changed = True
            if not changed:
                return

    def lookup(self, name: str) -> str | None:
        return self._env.get(name)

    def dtype_of(self, node: ast.expr) -> str | None:
        """The inferred dtype of an expression, or ``None`` (unknown)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "pybool"
            if isinstance(node.value, int):
                return "pyint"
            if isinstance(node.value, float):
                return "pyfloat"
            return None
        if isinstance(node, ast.Name):
            return self._env.get(node.id)
        if isinstance(node, ast.BinOp):
            return promote(self.dtype_of(node.left), self.dtype_of(node.right))
        if isinstance(node, ast.UnaryOp):
            inner = self.dtype_of(node.operand)
            return "pybool" if isinstance(node.op, ast.Not) else inner
        if isinstance(node, ast.Compare):
            return "bool"
        if isinstance(node, ast.IfExp):
            return promote(self.dtype_of(node.body), self.dtype_of(node.orelse))
        if isinstance(node, ast.Subscript):
            # Slicing/indexing an array preserves its element dtype;
            # python containers fall out as None via their own dtype.
            base = self.dtype_of(node.value)
            return base if base not in _PY_SCALARS else None
        if isinstance(node, ast.Call):
            return self._dtype_of_call(node)
        return None

    def _dtype_of_call(self, node: ast.Call) -> str | None:
        func = node.func
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if isinstance(func, ast.Attribute):
            # x.astype(D) — an explicit cast fixes the dtype.
            if func.attr == "astype" and node.args:
                return dtype_from_node(node.args[0], self.np_names)
            if func.attr in _REDUCTIONS and "dtype" in kwargs:
                return dtype_from_node(kwargs["dtype"], self.np_names)
            if func.attr == "copy" and not node.args:
                return self.dtype_of(func.value)
            if isinstance(func.value, ast.Name) and func.value.id in self.np_names:
                return self._dtype_of_np_call(func.attr, node, kwargs)
            return None
        if isinstance(func, ast.Name):
            if func.id in ("int", "len", "round"):
                return "pyint"
            if func.id == "float":
                return "pyfloat"
            if func.id == "bool":
                return "pybool"
            return self.summaries.get(func.id)
        return None

    def _dtype_of_np_call(
        self, attr: str, node: ast.Call, kwargs: dict[str, ast.expr]
    ) -> str | None:
        if attr in _SCALAR_CASTS:
            return _DTYPE_TOKENS[attr]
        if "dtype" in kwargs and (attr in _DTYPE_CTORS or attr in _REDUCTIONS):
            return dtype_from_node(kwargs["dtype"], self.np_names)
        if attr in _FLOAT_DEFAULT_CTORS:
            return "float64"
        if attr in _PROMOTING_FUNCS and len(node.args) >= 2:
            return promote(self.dtype_of(node.args[0]), self.dtype_of(node.args[1]))
        if attr == "where" and len(node.args) == 3:
            return promote(self.dtype_of(node.args[1]), self.dtype_of(node.args[2]))
        if attr in ("sort", "concatenate", "ascontiguousarray", "abs", "copy"):
            inner = node.args[0] if node.args else None
            if isinstance(inner, (ast.Tuple, ast.List)) and inner.elts:
                first = self.dtype_of(inner.elts[0])
                if all(self.dtype_of(e) == first for e in inner.elts):
                    return first
                return None
            return self.dtype_of(inner) if inner is not None else None
        if attr in ("repeat", "cumsum") and node.args and "dtype" not in kwargs:
            # Without dtype= the accumulator is platform-defined for
            # narrow ints; only a 64-bit input is width-stable.
            inner = self.dtype_of(node.args[0])
            return inner if is_64bit(inner) else None
        return None
