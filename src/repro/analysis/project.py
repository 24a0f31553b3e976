"""Whole-program index for cross-file FlexLint rules.

The per-file pass indexes each tree it has already parsed into a
:class:`ProjectIndex`: per module, every enum definition with member
line numbers and every dotted attribute reference.  Cross-file rules
(FXL009 exhaustive ``MsgType`` dispatch) query the index instead of
re-walking trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = ["EnumDef", "ModuleIndex", "ProjectIndex", "index_tree"]

_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "IntFlag", "Flag"}


@dataclass(frozen=True)
class EnumDef:
    """An enum class and the source line of each member."""

    name: str
    path: str
    lineno: int
    members: Tuple[Tuple[str, int], ...]  # (member name, lineno)


@dataclass
class ModuleIndex:
    """Searchable summary of one module."""

    path: str
    enums: Tuple[EnumDef, ...] = ()
    attr_refs: FrozenSet[Tuple[str, str]] = frozenset()


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> Optional[str]:
    """Best-effort dotted name for an attribute's base expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return None


def index_tree(tree: ast.Module, path: str) -> ModuleIndex:
    enums: List[EnumDef] = []
    attr_refs = set()

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            base_names = {_base_name(b) for b in node.bases}
            if base_names & _ENUM_BASES:
                members: List[Tuple[str, int]] = []
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name) and not target.id.startswith(
                                "_"
                            ):
                                members.append((target.id, stmt.lineno))
                enums.append(
                    EnumDef(
                        name=node.name,
                        path=path,
                        lineno=node.lineno,
                        members=tuple(members),
                    )
                )
        elif isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            if base is not None:
                attr_refs.add((base, node.attr))

    return ModuleIndex(
        path=path, enums=tuple(enums), attr_refs=frozenset(attr_refs)
    )


class ProjectIndex:
    """The whole-program index: one :class:`ModuleIndex` per file."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleIndex] = {}

    def add(self, index: ModuleIndex) -> None:
        self.modules[_norm(index.path)] = index

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectIndex":
        """Build an index from ``{path: source}`` (tests use this to
        simulate cross-file scenarios without touching disk)."""
        project = cls()
        for path, source in sources.items():
            try:
                project.add(index_tree(ast.parse(source), path))
            except SyntaxError:
                continue  # the per-file pass reports FXL000
        return project

    # -- queries -------------------------------------------------------
    def module_for_suffix(self, suffix: str) -> Optional[ModuleIndex]:
        """The module whose normalized path ends with ``suffix``."""
        suffix = suffix.replace("\\", "/")
        for path, index in self.modules.items():
            if path == suffix or path.endswith("/" + suffix) or path.endswith(suffix):
                return index
        return None

    def find_enum(self, path_suffix: str, enum_name: str) -> Optional[EnumDef]:
        module = self.module_for_suffix(path_suffix)
        if module is None:
            return None
        for enum in module.enums:
            if enum.name == enum_name:
                return enum
        return None


def _norm(path: str) -> str:
    return path.replace("\\", "/")
