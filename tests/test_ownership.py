"""One owner each: state with a single writer in the tree stays that way.

* A run's writer ranks — a ``StepBarrier``'s ``joined`` / ``closed`` /
  ``ended`` sets — are written by ``StepBarrier`` alone
  (``adios/api.py``); every run calls its ``join`` / ``end`` / ``close``
  / ``fail`` / ``restore``.
* Readers' pushdown predicates combine in one place, the reader-predicate
  set (``core/plugins.py:ReaderPredicates``), so both planes prune by
  the same rule.

Walks ``src/`` with ``ast``; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

BARRIER_SETS = {"joined", "closed", "ended"}
SET_WRITES = {"add", "discard", "clear", "update", "remove", "pop"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _barrier_set(node: ast.AST) -> bool:
    """``<…barrier>.joined`` and the like: an attribute of something
    named a barrier."""
    if not (isinstance(node, ast.Attribute) and node.attr in BARRIER_SETS):
        return False
    owner = node.value
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
    return "barrier" in name


def barrier_set_writes(rel: str, tree: ast.AST) -> list[str]:
    bad = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t for top in targets for t in ast.walk(top)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in SET_WRITES:
                targets = [node.func.value]
        bad += [f"{rel}:{t.lineno}" for t in targets if _barrier_set(t)]
    return bad


def combine_calls_outside_the_set(rel: str, tree: ast.AST) -> list[str]:
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ReaderPredicates":
            allowed |= {id(n) for n in ast.walk(node)}
    return [
        f"{rel}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in allowed
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        == "combine_predicates"
    ]


def test_only_step_barrier_writes_its_rank_sets():
    bad = [
        where for rel, tree in _trees() if rel != "adios/api.py"
        for where in barrier_set_writes(rel, tree)
    ]
    assert bad == [], f"rank sets written outside StepBarrier: {bad}"


def test_only_the_reader_predicate_set_combines_predicates():
    bad = [where for rel, tree in _trees() for where in combine_calls_outside_the_set(rel, tree)]
    assert bad == [], f"combine_predicates called outside ReaderPredicates: {bad}"


def test_the_checks_see_what_they_forbid():
    """The patterns the parent tree spelled, each caught."""
    planted = ast.parse(
        "stream.barrier.joined = set(owners)\n"
        "self.barrier.ended.clear()\n"
        "barrier.closed.add(rank)\n"
        "self._prune = combine_predicates(preds)\n"
        "store.ended = 3\n"  # a step store's, not a barrier's
    )
    assert barrier_set_writes("x.py", planted) == ["x.py:1", "x.py:2", "x.py:3"]
    assert combine_calls_outside_the_set("x.py", planted) == ["x.py:4"]
