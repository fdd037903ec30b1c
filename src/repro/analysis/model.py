"""Source model shared by every checker: parsed modules and a class index.

The engine parses each ``.py`` file exactly once into a :class:`ModuleInfo`
(AST, raw lines, and the pre-extracted suppression table), then folds all
modules into a :class:`Project` whose class index lets whole-project passes
(the pickle-boundary reachability walk) resolve type names across files.

Suppressions are ordinary comments::

    risky_call()  # repro: ignore[rule-id]
    # repro: ignore[rule-a, rule-b]   <- on the line above also works
    anything()    # repro: ignore[*]  <- wildcard: every rule

A suppression silences findings anchored on its own line or on the line
directly below it (so a comment-only line can annotate the statement it
precedes).  Suppressed findings are counted, not dropped silently — the
report's ``summary.suppressed`` field keeps them auditable.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

__all__ = [
    "ClassInfo",
    "ModuleInfo",
    "Project",
    "SUPPRESS_RE",
    "annotation_names",
    "build_project",
    "iter_python_files",
    "parse_module",
]

#: ``# repro: ignore[rule-a, rule-b]`` — rule list or ``*`` for all rules.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")

#: Methods whose presence means a class controls its own pickled state.
STATE_HOOKS = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    source: str
    tree: ast.Module
    lines: List[str]
    #: line number (1-based) -> set of suppressed rule ids ('*' = all)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return self.path.name

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line`` (or the line above)."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and ("*" in rules or rule in rules):
                return True
        return False


@dataclass
class ClassInfo:
    """A class definition plus the type names its attributes reference."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    #: names referenced by base classes, class-level annotations, and
    #: ``self.x = Name(...)`` / ``self.x: Name`` inside methods — the edges
    #: the pickle-boundary reachability walk follows.
    referenced_types: Set[str] = field(default_factory=set)
    has_state_hook: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno


class Project:
    """All parsed modules plus a name -> definitions class index."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: List[ModuleInfo] = list(modules)
        self.classes: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for info in _index_classes(module):
                self.classes.setdefault(info.name, []).append(info)

    def classes_named(self, name: str) -> List[ClassInfo]:
        return self.classes.get(name, [])


def annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every identifier mentioned in an annotation expression.

    ``Optional[Sequence["SignedRecord"]]`` yields ``Optional``,
    ``Sequence``, and ``SignedRecord`` — string annotations are parsed
    recursively so forward references resolve like real names.
    """
    names: Set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= annotation_names(parsed.body)
    return names


def _referenced_types(node: ast.ClassDef) -> Set[str]:
    """Type names a class's pickled payload could reach (see ClassInfo)."""
    names: Set[str] = set()
    for base in node.bases:
        names |= annotation_names(base)
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign):
            names |= annotation_names(statement.annotation)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            if isinstance(sub, ast.AnnAssign) and _targets_self(sub.target):
                names |= annotation_names(sub.annotation)
            elif isinstance(sub, ast.Assign):
                if any(_targets_self(target) for target in sub.targets):
                    value = sub.value
                    if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Name
                    ):
                        names.add(value.func.id)
    return names


def _targets_self(target: ast.AST) -> bool:
    return (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


def _index_classes(module: ModuleInfo) -> Iterable[ClassInfo]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        hooks = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        yield ClassInfo(
            name=node.name,
            module=module,
            node=node,
            referenced_types=_referenced_types(node),
            has_state_hook=bool(hooks & STATE_HOOKS),
        )


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if rules:
            table.setdefault(lineno, set()).update(rules)
    return table


def parse_module(path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(lines),
    )


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(
                candidate
                for candidate in path.rglob("*.py")
                if not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            found.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(found)


def build_project(paths: Iterable[Path]) -> Project:
    return Project([parse_module(path) for path in iter_python_files(paths)])
