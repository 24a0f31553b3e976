"""The prose docs cite the tree as it is.

DESIGN.md, README.md and EXPERIMENTS.md name classes, methods, modules
and source files in inline code spans.  A change that deletes or renames
one of those strands the sentence that cites it; this test resolves every
such citation against the tree so the stale sentence fails tier-1:

* ``Class.member`` whose class is defined under ``src/`` must resolve on
  that class or its bases (class attributes, dataclass fields, and
  attributes the class's own methods assign on ``self``);
* any other ``CamelCase.member`` must be a file at the repo root or be
  listed in :data:`FOREIGN_MEMBERS`;
* every ``repro.…`` dotted name must import;
* every ``src/…py`` or ``<package>/…py`` path must exist, and so must
  a ``benchmarks/``, ``tests/`` or ``examples/`` one.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
#: Top-level directories whose paths the docs cite from the repo root.
ROOT_DIRS = {"src", "benchmarks", "tests", "examples"}

#: ``CamelCase.member`` citations of classes that live outside this
#: repository (the standard library), each with where it comes from.
FOREIGN_MEMBERS = {
    "Server.wait_closed": "asyncio.Server",
}

_FENCE = re.compile(r"^(```|~~~).*?^\1", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_MEMBER = re.compile(r"(?<![\w])(_?[A-Z][A-Za-z0-9_]*)\.([A-Za-z_]\w*)")
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"(?<![\w./-])((?:[\w-]+/)+[\w-]+\.py)\b")


def _camel(name: str) -> bool:
    bare = name.lstrip("_")
    return bare[:1].isupper() and any(c.islower() for c in bare)


def code_spans(text: str) -> list[str]:
    """Inline code spans of a Markdown text, fenced blocks excluded."""
    return _SPAN.findall(_FENCE.sub("", text))


@cache
def _src_classes() -> dict[str, list[tuple[str, str]]]:
    """Class name → ``(module, qualname)`` for every class under ``src/``."""
    found: dict[str, list[tuple[str, str]]] = {}
    for path in sorted(PKG.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    qual = prefix + child.name
                    found.setdefault(child.name, []).append((module, qual))
                    walk(child, qual + ".")

        walk(tree, "")
    return found


def _self_attrs(cls: type) -> set[str]:
    """Attributes a class's own methods assign on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            for sub in ast.walk(t):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    names.add(sub.attr)
    return names


def has_member(cls: type, member: str) -> bool:
    """``member`` resolves on ``cls`` or one of its bases."""
    for klass in inspect.getmro(cls):
        if member in vars(klass) or member in getattr(klass, "__annotations__", {}):
            return True
        if dataclasses.is_dataclass(klass) and member in {
            f.name for f in dataclasses.fields(klass)
        }:
            return True
        if klass.__module__.startswith("repro") and member in _self_attrs(klass):
            return True
    return False


def _load_class(module: str, qualname: str) -> type:
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def stale_members(spans: list[str]) -> list[str]:
    """``Class.member`` citations that do not resolve."""
    bad = []
    for span in spans:
        for cls_name, member in _MEMBER.findall(span):
            if not _camel(cls_name):
                continue
            cited = f"{cls_name}.{member}"
            homes = _src_classes().get(cls_name)
            if homes:
                if not any(has_member(_load_class(m, q), member) for m, q in homes):
                    bad.append(cited)
            elif cited not in FOREIGN_MEMBERS and not (ROOT / cited).is_file():
                bad.append(cited)
    return bad


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for j, attr in enumerate(parts[i:], start=i):
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            elif inspect.isclass(obj) and j == len(parts) - 1:
                return has_member(obj, attr)
            else:
                return False
        return True
    return False


def stale_dotted(spans: list[str]) -> list[str]:
    """``repro.…`` names that do not import."""
    return [d for span in spans for d in _DOTTED.findall(span) if not _resolves(d)]


def stale_paths(spans: list[str]) -> list[str]:
    """``src/…py``, ``<package>/…py`` and other repo-rooted paths that
    do not exist."""
    packages = {p.name for p in PKG.iterdir() if p.is_dir()} | {"repro"}
    bad = []
    for span in spans:
        for path in _PATH.findall(span):
            head = path.split("/", 1)[0]
            if head in ROOT_DIRS:
                candidates = [ROOT / path]
            elif head in packages:
                candidates = [PKG / path, SRC / path]
            else:
                continue
            if not any(c.is_file() for c in candidates):
                bad.append(path)
    return bad


CHECKS = {
    "member": stale_members,
    "dotted": stale_dotted,
    "path": stale_paths,
}


@pytest.mark.parametrize("kind", sorted(CHECKS))
@pytest.mark.parametrize("doc", DOCS)
def test_doc_citations_resolve(doc: str, kind: str) -> None:
    spans = code_spans((ROOT / doc).read_text(encoding="utf-8"))
    assert CHECKS[kind](spans) == []


def test_a_planted_stale_name_is_caught() -> None:
    text = (
        "Codelets run through `DCPlugin.apply_twice`, see "
        "`repro.core.plugins.NoSuchThing` in `core/no_such_module.py`; "
        "`Server.wait_closed()`, `DCPlugin.apply`, `PerfMonitor.metrics`, "
        "`CoupledOptions.scheduler_max_concurrent` and `BENCHMARK.json` "
        "are fine.\n"
        "```\nMadeUp.member inside a fence is not a citation\n```\n"
    )
    spans = code_spans(text)
    assert stale_members(spans) == ["DCPlugin.apply_twice"]
    assert stale_dotted(spans) == ["repro.core.plugins.NoSuchThing"]
    assert stale_paths(spans) == ["core/no_such_module.py"]


def test_design_layer_table_is_the_lint_table() -> None:
    """DESIGN.md §6 draws the FXL016 layer table, row for row."""
    from repro.analysis.tables import LAYERS

    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 6. Layering\n")[1].split("\n## 7.")[0]
    drawn = [
        (row[0], ("*",) if row[1] == "any" else tuple(re.findall(r"`(\w+)`", row[1])))
        for row in re.findall(r"^\| `(\w+)`[^|]* \| ([^|]+) \|$", section, re.M)
    ]
    assert drawn == list(LAYERS.items())
