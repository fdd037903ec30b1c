"""Determinism checkers: no unordered iteration or unseeded randomness.

The repo's headline guarantee is bit-identical pair output across serial,
thread, and every process transport.  Three rules defend it statically:

``unsorted-iteration``
    Iterating a ``set``/``frozenset`` (or ``dict.keys()``) in hash order is
    fine for membership work, but the moment the visit order flows into a
    returned or yielded structure the output depends on ``PYTHONHASHSEED``.
    Flagged: ``for``-loops over a definite set expression whose body yields
    or appends/inserts into a returned container, and comprehensions over a
    definite set expression whose result is returned/yielded (directly or
    via a local name).  Wrapping the iterable in ``sorted(...)`` clears it.

``unseeded-random``
    Module-level ``random.*`` calls share interpreter-global state seeded
    from OS entropy, and ``random.Random()`` with no arguments is the same
    hazard behind an instance.  All randomness in ``src/`` must flow from an
    explicitly seeded ``random.Random(seed)``.

``id-keyed-container``
    ``id()`` values are allocation addresses: containers keyed by them make
    lookup results (and any iteration order derived from them) run-specific.
    Flagged: ``id(...)`` inside a subscript key, inside the first argument
    of ``.get``/``.setdefault``/``.pop``, or as a dict-comprehension key.
    A key bound to a local name first (``key = (id(x), ...)`` then
    ``cache.get(key)``) is followed when the function assigns that name
    once; the finding lands on the assignment.  Identity-checked memo
    caches that hold a strong reference to the keyed object are
    legitimate — suppress those sites with a comment explaining the guard.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..engine import Checker, Finding
from ..model import ModuleInfo, Project

__all__ = [
    "IdKeyedContainerChecker",
    "UnseededRandomChecker",
    "UnsortedIterationChecker",
]


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class UnsortedIterationChecker(Checker):
    rule = "unsorted-iteration"
    version = 1
    description = (
        "set/dict-keys iteration order must not flow into returned or "
        "yielded structures"
    )
    hint = "wrap the iterable in sorted(...) before building output from it"

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        for function in _functions(module.tree):
            yield from self._check_function(module, function)

    def _check_function(
        self, module: ModuleInfo, function: ast.AST
    ) -> Iterator[Finding]:
        set_names = _set_valued_names(function)
        returned = _returned_names(function)

        def is_set_expr(node: ast.AST) -> bool:
            return _is_definite_set(node, set_names)

        for node in ast.walk(function):
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                sink = _loop_sink(node, returned)
                if sink is not None:
                    yield self.finding(
                        module,
                        node.lineno,
                        "iteration over an unordered set/dict-keys "
                        f"expression {sink}",
                        col=node.col_offset,
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if not any(is_set_expr(gen.iter) for gen in node.generators):
                    continue
                sink = _comprehension_sink(node, function, returned)
                if sink is not None:
                    yield self.finding(
                        module,
                        node.lineno,
                        "comprehension over an unordered set/dict-keys "
                        f"expression {sink}",
                        col=node.col_offset,
                    )


def _set_valued_names(function: ast.AST) -> Set[str]:
    """Local names definitely holding a set (single consistent assignment)."""
    assigned: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigned.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if node.value is not None:
                assigned.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            # |=, &=, -= keep a set a set; anything else poisons the name.
            if not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
                assigned.setdefault(node.target.id, []).append(node)
    names: Set[str] = set()
    for name, values in assigned.items():
        if all(_is_definite_set(value, set()) for value in values):
            names.add(name)
    return names


def _is_definite_set(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
        if isinstance(func, ast.Attribute) and func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return _is_definite_set(func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_definite_set(node.left, set_names) or _is_definite_set(
            node.right, set_names
        )
    return False


def _returned_names(function: ast.AST) -> Set[str]:
    """Names whose contents escape through return/yield statements."""
    names: Set[str] = set()
    for node in ast.walk(function):
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Return):
            value = node.value
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
        if value is None:
            continue
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


def _loop_sink(loop: ast.For, returned: Set[str]) -> Optional[str]:
    for node in ast.walk(loop):
        if node is loop:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return "yields in hash order"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            owner = node.func.value
            if (
                method in {"append", "extend", "insert"}
                and isinstance(owner, ast.Name)
                and owner.id in returned
            ):
                return f"feeds returned container '{owner.id}'"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in returned
                ):
                    return f"feeds returned container '{target.value.id}'"
    return None


def _comprehension_sink(
    comp: ast.AST, function: ast.AST, returned: Set[str]
) -> Optional[str]:
    """Is this comprehension's result returned/yielded (maybe via a name)?"""
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and node.value is not None:
            if any(sub is comp for sub in ast.walk(node.value)):
                return "is returned"
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if any(sub is comp for sub in ast.walk(node.value)):
                return "is yielded"
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id in returned
                and any(sub is comp for sub in ast.walk(node.value))
            ):
                return f"is returned via '{target.id}'"
    return None


class UnseededRandomChecker(Checker):
    rule = "unseeded-random"
    version = 1
    description = (
        "src/ must not use module-level random functions or an unseeded "
        "random.Random()"
    )
    hint = "thread an explicitly seeded random.Random(seed) instance through"

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        aliases: Set[str] = set()
        from_imports: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in {"Random", "SystemRandom"}:
                        from_imports.add(alias.asname or alias.name)
        if not aliases and not from_imports:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                if func.value.id not in aliases:
                    continue
                if func.attr in {"Random", "SystemRandom"}:
                    if func.attr == "Random" and not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node.lineno,
                            "random.Random() without a seed is "
                            "entropy-seeded and run-specific",
                            col=node.col_offset,
                        )
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    f"module-level random.{func.attr}() uses shared, "
                    "entropy-seeded global state",
                    col=node.col_offset,
                )
            elif isinstance(func, ast.Name) and func.id in from_imports:
                yield self.finding(
                    module,
                    node.lineno,
                    f"'{func.id}' imported from random uses shared, "
                    "entropy-seeded global state",
                    col=node.col_offset,
                )


class IdKeyedContainerChecker(Checker):
    rule = "id-keyed-container"
    version = 2
    description = "containers keyed by id(...) make results run-specific"
    hint = (
        "key by stable content (or suppress with a comment when the cache "
        "identity-checks and strongly references the keyed object)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        # The offending id() calls by position: a nested function's key is
        # reached from its enclosing function's walk too.
        calls: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            for key_expr in _key_exprs(node):
                call = _find_id_call(key_expr)
                if call is not None:
                    calls.add((call.lineno, call.col_offset))
        for function in _functions(module.tree):
            bound = _names_bound_to_id(function)
            for node in ast.walk(function):
                for key_expr in _key_exprs(node):
                    if isinstance(key_expr, ast.Name) and key_expr.id in bound:
                        call = bound[key_expr.id]
                        calls.add((call.lineno, call.col_offset))
        for line, col in sorted(calls):
            yield self.finding(
                module,
                line,
                "container keyed by id(...) — identity keys do not "
                "survive across runs or processes",
                col=col,
            )


def _key_exprs(node: ast.AST) -> List[ast.AST]:
    """The key expressions a container access ``node`` looks up, if any."""
    if isinstance(node, ast.Subscript):
        return [node.slice]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"get", "setdefault", "pop"}
        and node.args
    ):
        return [node.args[0]]
    if isinstance(node, ast.DictComp):
        return [node.key]
    return []


def _names_bound_to_id(function: ast.AST) -> Dict[str, ast.Call]:
    """Names the function assigns once, to a value containing ``id(...)``."""
    stores: Dict[str, int] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = stores.get(node.id, 0) + 1
    bound: Dict[str, ast.Call] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and stores.get(target.id) == 1:
            call = _find_id_call(value)
            if call is not None:
                bound[target.id] = call
    return bound


def _find_id_call(node: ast.AST) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None
