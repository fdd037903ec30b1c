"""Pickle-boundary checker: worker-shipped classes must stay picklable.

The warm pool pickles a ``ShardPlan`` into its shared-memory segment (only
the fork pool inherits it unpickled, and non-fork platforms take the warm
route), so every class reachable from the plan's attributes is a pickle
boundary.  This checker seeds the
reachability walk at the classes named in :attr:`PickleBoundaryChecker.seeds`
(``ShardPlan`` — the single object shipped to workers by ``parallel.py`` /
``flat.py`` / ``pool.py``), follows attribute annotations, base classes, and
``self.x = ClassName(...)`` assignments across the whole project, and flags
any reachable class that stores a known pickle-hostile value — a weakref, a
lock/synchronization primitive, a lambda, an open file handle, or a function
defined in a local scope — without declaring ``__getstate__`` (or
``__reduce__``), i.e. without taking responsibility for its own wire state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import Checker, Finding
from ..model import ClassInfo, Project

__all__ = ["PickleBoundaryChecker"]

_WEAKREF_NAMES = frozenset(
    {"ref", "proxy", "WeakKeyDictionary", "WeakValueDictionary", "WeakSet"}
)
_LOCK_NAMES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore", "Barrier"}
)
_LOCK_MODULES = frozenset({"threading", "multiprocessing", "_thread"})


class PickleBoundaryChecker(Checker):
    rule = "pickle-boundary"
    version = 1
    description = (
        "classes reachable from worker-shipped state (ShardPlan) must not "
        "acquire weakrefs, locks, lambdas, open handles, or local functions "
        "without __getstate__"
    )
    hint = (
        "define __getstate__/__setstate__ dropping the unpicklable member, "
        "or keep it out of worker-shipped classes"
    )
    #: Root classes of the worker payload; everything annotation-reachable
    #: from these is treated as crossing the process boundary.
    seeds: Tuple[str, ...] = ("ShardPlan",)

    def run(self, project: Project) -> Iterator[Finding]:
        reachable = self._reachable_classes(project)
        for info, seed in reachable:
            if info.has_state_hook:
                continue
            yield from self._check_class(info, seed)

    def _reachable_classes(
        self, project: Project
    ) -> List[Tuple[ClassInfo, str]]:
        """Closure over referenced type names, remembering the seed root."""
        def key(info: ClassInfo) -> Tuple[str, int, str]:
            return (str(info.module.path), info.line, info.name)

        seen: Dict[Tuple[str, int, str], Tuple[ClassInfo, str]] = {}
        worklist: List[Tuple[ClassInfo, str]] = []
        for seed in self.seeds:
            for info in project.classes_named(seed):
                worklist.append((info, seed))
        while worklist:
            info, seed = worklist.pop()
            if key(info) in seen:
                continue
            seen[key(info)] = (info, seed)
            for name in sorted(info.referenced_types):
                for child in project.classes_named(name):
                    if key(child) not in seen:
                        worklist.append((child, seed))
        return sorted(
            seen.values(), key=lambda pair: (str(pair[0].module.path), pair[0].line)
        )

    def _check_class(self, info: ClassInfo, seed: str) -> Iterator[Finding]:
        for method in info.node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_functions = {
                item.name
                for item in ast.walk(method)
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item is not method
            }
            for node in ast.walk(method):
                target_attr: Optional[str] = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        target_attr = _self_attribute(target)
                        if target_attr is not None:
                            break
                    value = node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    target_attr = _self_attribute(node.target)
                    value = node.value
                elif isinstance(node, ast.Call):
                    target_attr, value = _setattr_call(node)
                if target_attr is None or value is None:
                    continue
                kind = _hostile_kind(value, local_functions)
                if kind is None:
                    continue
                yield self.finding(
                    info.module,
                    node.lineno,
                    f"class '{info.name}' (worker-shipped via {seed}) stores "
                    f"{kind} in '{target_attr}' without __getstate__",
                    col=node.col_offset,
                )


def _self_attribute(target: ast.AST) -> Optional[str]:
    """``self.x`` or ``self.x[...]`` target -> the attribute name."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _setattr_call(node: ast.Call) -> Tuple[Optional[str], Optional[ast.AST]]:
    """``object.__setattr__(self, 'x', value)`` -> ('x', value)."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and len(node.args) == 3
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value, node.args[2]
    return None, None


def _hostile_kind(value: ast.AST, local_functions: Set[str]) -> Optional[str]:
    """The pickle-hostile kind stored by ``value``, if any."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Lambda):
            return "a lambda"
        if isinstance(sub, ast.Name) and sub.id in local_functions:
            return "a locally defined function"
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "an open file handle"
            if func.id in _WEAKREF_NAMES - {"ref", "proxy"}:
                return "a weak reference"
            if func.id in _LOCK_NAMES:
                return "a synchronization primitive"
        elif isinstance(func, ast.Attribute):
            owner = func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else None
            if owner_name == "weakref" and func.attr in _WEAKREF_NAMES:
                return "a weak reference"
            if owner_name in _LOCK_MODULES and func.attr in _LOCK_NAMES:
                return "a synchronization primitive"
    return None
