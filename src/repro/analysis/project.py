"""Whole-program index for cross-file FlexLint rules.

One parse pass over the analyzed file set produces a
:class:`ProjectIndex`: per module, the top-level symbols, every enum
definition with member line numbers, every dotted attribute reference,
and every call site.  Cross-file rules (FXL009 exhaustive ``MsgType``
dispatch) query the index instead of re-walking trees.

The per-module summary (:class:`ModuleIndex`) is deliberately built
from plain strings/ints so the incremental cache can persist it as JSON
(:meth:`ModuleIndex.to_dict` / :meth:`ModuleIndex.from_dict`) — a file
whose content hash is unchanged contributes its index entry without
being re-parsed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = ["EnumDef", "CallSite", "ModuleIndex", "ProjectIndex", "index_source"]

_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "IntFlag", "Flag"}


@dataclass(frozen=True)
class EnumDef:
    """An enum class and the source line of each member."""

    name: str
    path: str
    lineno: int
    members: Tuple[Tuple[str, int], ...]  # (member name, lineno)


@dataclass(frozen=True)
class CallSite:
    """One call expression: best-effort dotted callee name + location."""

    callee: str
    lineno: int
    col: int


@dataclass
class ModuleIndex:
    """Searchable summary of one module."""

    path: str
    symbols: FrozenSet[str] = frozenset()
    enums: Tuple[EnumDef, ...] = ()
    attr_refs: FrozenSet[Tuple[str, str]] = frozenset()
    call_sites: Tuple[CallSite, ...] = ()

    def to_dict(self) -> dict:
        return {
            "symbols": sorted(self.symbols),
            "enums": [
                {
                    "name": e.name,
                    "lineno": e.lineno,
                    "members": [[n, ln] for n, ln in e.members],
                }
                for e in self.enums
            ],
            "attr_refs": sorted([base, attr] for base, attr in self.attr_refs),
            "call_sites": [[c.callee, c.lineno, c.col] for c in self.call_sites],
        }

    @classmethod
    def from_dict(cls, path: str, data: Mapping) -> "ModuleIndex":
        return cls(
            path=path,
            symbols=frozenset(data.get("symbols", ())),
            enums=tuple(
                EnumDef(
                    name=e["name"],
                    path=path,
                    lineno=int(e["lineno"]),
                    members=tuple((n, int(ln)) for n, ln in e["members"]),
                )
                for e in data.get("enums", ())
            ),
            attr_refs=frozenset(
                (base, attr) for base, attr in data.get("attr_refs", ())
            ),
            call_sites=tuple(
                CallSite(callee, int(ln), int(col))
                for callee, ln, col in data.get("call_sites", ())
            ),
        )


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> Optional[str]:
    """Best-effort dotted name for a callee expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return None


def index_source(source: str, path: str) -> ModuleIndex:
    """Parse ``source`` and build its :class:`ModuleIndex`.  Raises
    ``SyntaxError`` like ``ast.parse`` — callers report FXL000."""
    tree = ast.parse(source)
    return index_tree(tree, path)


def index_tree(tree: ast.Module, path: str) -> ModuleIndex:
    symbols = set()
    enums: List[EnumDef] = []
    attr_refs = set()
    call_sites: List[CallSite] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            symbols.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            symbols.add(node.target.id)

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
        elif isinstance(node, ast.Call):
            callee = _dotted(node.func)
            if callee is not None:
                call_sites.append(CallSite(callee, node.lineno, node.col_offset))

    return ModuleIndex(
        path=path,
        symbols=frozenset(symbols),
        enums=tuple(enums),
        attr_refs=frozenset(attr_refs),
        call_sites=tuple(call_sites),
    )


class ProjectIndex:
    """The whole-program index: one :class:`ModuleIndex` per file."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleIndex] = {}

    def add(self, index: ModuleIndex) -> None:
        self.modules[_norm(index.path)] = index

    def add_source(self, source: str, path: str) -> ModuleIndex:
        index = index_source(source, path)
        self.add(index)
        return index

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectIndex":
        """Build an index from ``{path: source}`` (tests use this to
        simulate cross-file scenarios without touching disk)."""
        project = cls()
        for path, source in sources.items():
            try:
                project.add_source(source, path)
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
