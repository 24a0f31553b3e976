"""FlexLint: AST-based static analysis enforcing FlexIO project invariants.

General-purpose linters cannot know that a broad ``except`` in the drain
path once silently swallowed lost steps, or that a misspelled stream
hint is silently ignored by the XML config layer.  FlexLint encodes the
bug classes this repo has actually hit (and fixed) as rules, so they
cannot be reintroduced.  :data:`RULES` lists them (``python -m
repro.tools.flexlint --list-rules`` prints it; DESIGN.md §10, §15).

Most claims are data: an owner ("X only in Y"), a registry ("the name a
call passes is registered") or a layer ("package P imports only Q") is a
row of :mod:`repro.analysis.tables`, and :func:`_check_tables` checks
every row in one walk.  The flow- and project-aware rules are in
:mod:`repro.analysis.flowrules`.

**Waivers**: append ``# flexlint: ok(FXL001) <reason>`` to the flagged
line (or put it on the line directly above).  The reason is mandatory —
a bare waiver does not waive.  Multiple rules: ``ok(FXL001, FXL003)``.

Programmatic entry points: :func:`lint_source` for one text,
:func:`lint_paths` for a tree (per-file rules, then the cross-file
pass); ``python -m repro.tools.flexlint src/`` is a thin CLI over
:func:`lint_paths`.
"""

from __future__ import annotations

import ast
import difflib
import fnmatch
import importlib.util
import os
import re
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.analysis.project import ProjectIndex, index_tree
from repro.analysis.tables import LAYERS, OWNERS, REGISTRIES, Registry

_WAIVER_RE = re.compile(
    r"#\s*flexlint:\s*ok\(\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\s*\)\s*(.*)$"
)

_BROAD_NAMES = ("Exception", "BaseException")
_SPAN_METHODS = ("span", "begin_span")
_SPAN_CLOSERS = ("finish", "__exit__")
#: Paths (dir prefixes ending in "/" or file suffixes) where FXL001 applies.
_BROAD_EXCEPT_PATHS = (
    "repro/transport/",
    "repro/core/stream.py",
    "repro/core/drain.py",
    "repro/core/reader.py",
    "repro/core/directory.py",
    "repro/coupled/",
    "repro/net/",
)
#: Paths where FXL006 (copy discipline) applies.
_COPY_DISCIPLINE_PATHS = (
    "repro/transport/",
    "repro/core/stream.py",
    "repro/core/drain.py",
    "repro/core/reader.py",
)


@dataclass(frozen=True)
class Rule:
    """One lint rule's identity and documentation."""

    id: str
    title: str
    description: str


RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule("FXL001", "broad except on a fault-critical path",
             "except handlers in transport/, net/, coupled/, "
             "core/directory.py and core/{stream,drain,reader}.py must catch "
             "typed fault classes, not Exception/BaseException/bare except."),
        Rule("FXL002", "unregistered stream-hint key",
             "hint-key names passed to param*() or as stream_params() "
             "keywords must exist in the central repro.core.hints registry "
             "(REGISTRIES rows)."),
        Rule("FXL003", "tracer span never closed",
             "span()/begin_span() results must be entered as a context "
             "manager or explicitly finish()ed in the same function."),
        Rule("FXL004", "commit outside the retry/2PC path",
             "commit()/_commit() may only be called from "
             "_drain_one() in core/drain.py (an OWNERS row)."),
        Rule("FXL005", "undeclared drain-path shared state",
             "attributes assigned inside drain-path methods (on self "
             "or self._state), which run on the drainer thread and, for "
             "a step's first attempt, on the writer's, must be declared "
             "in repro.core.drain.DRAINER_SHARED_STATE."),
        Rule("FXL006", "copy-discipline breach on the zero-copy plane",
             ".tobytes()/bytes()/bytearray() under transport/ and "
             "core/{stream,drain,reader}.py materialize copies; carry "
             "WireBuffer/memoryview spans instead (or waive with a reason)."),
        Rule("FXL007", "unregistered event code in record() call",
             "the event code record() is passed must be a literal "
             "registered in repro.obs.events or a reference to one; no "
             "f-strings or computed names (a REGISTRIES row)."),
        Rule("FXL008", "removed/legacy step-API spelling",
             ".advance() no longer exists (use end_step(), or "
             "begin_step()/end_step() loops on readers; an OWNERS row "
             "allowed nowhere) and read()/read_into()/read_all() take "
             "selections only as selection=/start=/count= keywords."),
        Rule("FXL009", "non-exhaustive MsgType dispatch",
             "every member of the wire enum (net/protocol.py MsgType) "
             "must be referenced by each dispatch surface "
             "(net/server.py and net/client.py); cross-file rule."),
        Rule("FXL010", "blocking call inside an async body",
             "time.sleep/file I/O/os.fsync/blocking socket ops/"
             "lock.acquire inside async def on the network plane stall "
             "the event loop — directly or through a sync helper, as do "
             "they in a protocol callback or a handler it reaches; use "
             "async equivalents or run_in_executor."),
        Rule("FXL011", "sync lock held across await",
             "a threading lock held at an await suspends every other "
             "coroutine on the loop; release before awaiting or use an "
             "asyncio lock (static complement of runtime lockdep)."),
        Rule("FXL012", "lease may leak on some path",
             "a lease()/acquire()/connect() result must reach "
             "release()/close() or an ownership transfer on every CFG "
             "path to the function exit, including exception edges."),
        Rule("FXL013", "unregistered metric name",
             "counter()/gauge()/histogram() names must be registered in "
             "repro.obs.names (or extend a registered family); dynamic "
             "names go through metric_name() (a REGISTRIES row)."),
        Rule("FXL014", "plug-in kernel invoked outside the executor",
             ".fn()/.mask_fn()/._func() calls are reserved to "
             "core/plugins.py and the compiled-plan executor in "
             "core/redistribution.py; everything else goes through "
             "apply()/apply_side() or a chain cursor (an OWNERS row)."),
        Rule("FXL015", "single-owner state or resource used by another",
             "a run's rank sets, predicate combination, shared-memory "
             "mapping and socket reads each have one owner; the OWNERS "
             "rows of repro.analysis.tables name it."),
        Rule("FXL016", "import against the layer table",
             "a package imports only the packages its LAYERS row lists "
             "(module-level, function-local and TYPE_CHECKING imports "
             "alike); DESIGN.md section 6 draws the table."),
    )
}


@dataclass(frozen=True)
class Finding:
    """One lint finding, possibly waived."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""

    @property
    def active(self) -> bool:
        """True when this finding should fail the lint."""
        return not self.waived

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.waived:
            text += f"  [waived: {self.waiver_reason}]"
        return text

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LintConfig:
    """What a fixture overrides: the drainer registries and the registry rows."""

    #: File FXL005 applies to.
    drainer_path: str = "repro/core/drain.py"
    #: Overrides for the drainer registries; None = read them from
    #: repro.core.drain (DRAINER_METHODS / DRAINER_SHARED_STATE).
    drainer_methods: Optional[frozenset[str]] = None
    drainer_shared_state: Optional[frozenset[str]] = None
    #: The REGISTRIES rows; a fixture swaps in a row with its own vocabulary.
    registries: tuple[Registry, ...] = REGISTRIES


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _in_scope(path: str, patterns: Iterable[str]) -> bool:
    norm = _norm(path)
    for pat in patterns:
        if pat.endswith("/"):
            if pat in norm:
                return True
        elif norm.endswith(pat):
            return True
    return False


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parent: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
    return parent


def _enclosing(node: ast.AST, parent: dict, kinds) -> Optional[ast.AST]:
    cur = parent.get(node)
    while cur is not None:
        if isinstance(cur, kinds):
            return cur
        cur = parent.get(cur)
    return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _check_broad_except(tree: ast.AST, path: str, cfg: LintConfig):
    if not _in_scope(path, _BROAD_EXCEPT_PATHS):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = None
        if node.type is None:
            broad = "bare except"
        else:
            names = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for expr in names:
                if isinstance(expr, ast.Name) and expr.id in _BROAD_NAMES:
                    broad = f"except {expr.id}"
                    break
        if broad:
            yield Finding(
                "FXL001", path, node.lineno, node.col_offset,
                f"{broad} on a fault-critical path; catch typed "
                f"TransportFault/AdiosError/DirectoryError subclasses "
                f"(or waive with a reason)",
            )


def _check_spans(tree: ast.AST, path: str, cfg: LintConfig):
    parent = _parents(tree)
    with_exprs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                with_exprs.add(id(item.context_expr))

    def closed_later(target: str, call: ast.Call) -> bool:
        scope = _enclosing(
            call, parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        )
        if scope is None:
            return False
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr in _SPAN_CLOSERS \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == target:
                return True
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Name) \
                            and item.context_expr.id == target:
                        return True
        return False

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _SPAN_METHODS):
            continue
        if id(node) in with_exprs:
            continue
        stmt = _enclosing(node, parent, (ast.stmt,))
        if isinstance(stmt, ast.Expr):
            yield Finding(
                "FXL003", path, node.lineno, node.col_offset,
                f"{func.attr}() result discarded: the span is never "
                f"entered or finished",
            )
            continue
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            if not closed_later(target, node):
                yield Finding(
                    "FXL003", path, node.lineno, node.col_offset,
                    f"span assigned to {target!r} but never entered via "
                    f"'with' or closed with finish()/__exit__()",
                )
        # Returned / passed-through spans are the callee's responsibility.


def _self_attr_targets(stmt: ast.stmt):
    """(owner, target) of each ``self.x`` / ``self._state.x`` target."""
    if isinstance(stmt, ast.Assign):
        targets = []
        for t in stmt.targets:
            targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return
    for t in targets:
        if isinstance(t, ast.Attribute):
            owner = ast.unparse(t.value)
            if owner in ("self", "self._state"):
                yield owner, t


def _check_drainer_state(tree: ast.AST, path: str, cfg: LintConfig):
    if not _in_scope(path, (cfg.drainer_path,)):
        return
    from repro.core.drain import DRAINER_METHODS, DRAINER_SHARED_STATE

    methods = DRAINER_METHODS if cfg.drainer_methods is None else cfg.drainer_methods
    shared = (DRAINER_SHARED_STATE if cfg.drainer_shared_state is None
              else cfg.drainer_shared_state)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in methods:
            continue
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.stmt):
                continue
            for owner, attr in _self_attr_targets(stmt):
                if attr.attr not in shared:
                    yield Finding(
                        "FXL005", path, stmt.lineno, stmt.col_offset,
                        f"{owner}.{attr.attr} mutated in drain-path method "
                        f"{node.name}() but not declared in "
                        f"DRAINER_SHARED_STATE",
                    )


def _check_copy_discipline(tree: ast.AST, path: str, cfg: LintConfig):
    if not _in_scope(path, _COPY_DISCIPLINE_PATHS):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("bytes", "bytearray"):
            # bytes()/bytearray() with no payload argument (or a size
            # int) allocate, not copy — only calls fed an existing
            # buffer are a breach.
            if not node.args:
                continue
            if len(node.args) == 1 and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, int):
                continue
            what = f"{func.id}(...)"
        elif isinstance(func, ast.Attribute) and func.attr == "tobytes":
            what = ".tobytes()"
        else:
            continue
        yield Finding(
            "FXL006", path, node.lineno, node.col_offset,
            f"{what} materializes a copy on the zero-copy plane; carry "
            f"WireBuffer/memoryview spans end to end (or waive with a "
            f"reason)",
        )


#: Step-API read methods and how many positional arguments each accepts
#: (the variable name; plus the output array for ``read_into``).  More
#: than that means a positional selection — a removed spelling.
_READ_POSITIONAL_LIMITS = {"read": 1, "read_all": 1, "read_into": 2}


def _check_positional_reads(tree: ast.AST, path: str, cfg: LintConfig):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if len(node.args) > _READ_POSITIONAL_LIMITS.get(name, len(node.args)):
            yield Finding(
                "FXL008", path, node.lineno, node.col_offset,
                f"positional selection in {name}(); pass the "
                f"selection= keyword (or start=/count=) instead",
            )


# ---------------------------------------------------------------------------
# The table-driven rule: OWNERS, REGISTRIES and LAYERS in one walk
# ---------------------------------------------------------------------------

#: Methods that change the container they are called on.
_MUTATORS = frozenset({
    "add", "append", "clear", "difference_update", "discard", "extend",
    "insert", "intersection_update", "pop", "popitem", "remove",
    "setdefault", "symmetric_difference_update", "update",
})
_OWNED = [(pat, row) for row in OWNERS for pat in row.patterns]


def _text(node: ast.AST) -> str:
    """Dotted text of a callee or a written target (``self._state.x``,
    ``get().fn``); what is neither a name nor an attribute is ``?``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_text(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return _text(node.func) + "()"
    return "?"


def _written(node: ast.AST):
    """The expressions ``node`` writes: assignment and ``del`` targets
    (a subscript writes its container), or a mutator call's receiver."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _MUTATORS:
        todo = [node.func.value]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, (ast.Subscript, ast.Starred)):
            todo.append(t.value)
        else:
            yield t


def _in_owner_scope(scopes: tuple[str, ...], path: str, qual: str) -> bool:
    for scope in scopes:
        module, _, name = scope.partition(":")
        if _in_scope(path, (module,)) and (not name or f".{name}." in f".{qual}."):
            return True
    return False


def _owner_findings(text: str, node: ast.AST, path: str, qual: str):
    for pat, row in _OWNED:
        if fnmatch.fnmatchcase(text, pat) and not _in_owner_scope(row.scopes, path, qual):
            where = ", ".join(row.scopes) or "nowhere"
            yield Finding(row.rule, path, node.lineno, node.col_offset,
                          f"{text} {row.why} (allowed: {where})")


def _load(ref):
    """A vocabulary: a fixture's own set, or a ``module:attribute`` one."""
    if not isinstance(ref, str):
        return ref
    module, _, attr = ref.partition(":")
    value = getattr(importlib.import_module(module), attr)
    return value() if callable(value) else value


def vocabulary(row: Registry) -> tuple[frozenset[str], tuple[str, ...]]:
    """A registry row's registered names and family roots."""
    return frozenset(_load(row.vocab)), tuple(_load(row.families))


def _name_args(call: ast.Call, row: Registry):
    """The expressions that carry ``call``'s name under ``row``; with
    ``**`` each keyword's own name, as a literal at the keyword."""
    if row.keywords == ("**",):
        for kw in call.keywords:
            if kw.arg is not None and not kw.arg.startswith("_"):
                yield ast.copy_location(ast.Constant(kw.arg), kw)
        return
    if row.position is not None and len(call.args) > row.position:
        yield call.args[row.position]
    for kw in call.keywords:
        if kw.arg in row.keywords:
            yield kw.value


def _branches(expr: ast.expr):
    """A conditional's branches, each on its own; else the expression."""
    if isinstance(expr, ast.IfExp):
        yield from _branches(expr.body)
        yield from _branches(expr.orelse)
    else:
        yield expr


def _built_string(expr: ast.expr) -> Optional[str]:
    """``"f-string"`` or ``"computed"`` for a string made on the spot."""
    if isinstance(expr, ast.JoinedStr):
        return "f-string"
    if isinstance(expr, ast.BinOp) and any(
        isinstance(n, ast.Constant) and isinstance(n.value, str) for n in ast.walk(expr)
    ):
        return "computed"
    return None


def _registry_findings(call: ast.Call, callee: str, row: Registry, vocab, path: str):
    names, roots = vocab
    where = row.vocab.partition(":")[0] if isinstance(row.vocab, str) else "the registry"
    for arg in _name_args(call, row):
        for expr in _branches(arg):
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                value = expr.value
                if value in names or any(
                    value == root or value.startswith(root + ".") for root in roots
                ):
                    continue
                hint = difflib.get_close_matches(value, sorted(names.union(roots)), n=1)
                extra = f"; did you mean {hint[0]!r}?" if hint else ""
                yield Finding(row.rule, path, expr.lineno, expr.col_offset,
                              f"{row.what} {value!r} in {callee}() is not "
                              f"registered in {where}{extra}")
            elif row.dynamic and (kind := _built_string(expr)):
                yield Finding(row.rule, path, expr.lineno, expr.col_offset,
                              f"{kind} {row.what} in {callee}(); pass a name "
                              f"registered in {where} (a family goes through "
                              f"its builder, variable parts as attributes)")


def _package(path: str) -> Optional[str]:
    """The ``repro`` package a file is in: ``repro`` for the façade,
    ``util`` for ``util.py``; None outside the package."""
    norm = "/" + _norm(path)
    at = norm.rfind("/repro/")
    if at < 0:
        return None
    parts = norm[at + 7:].split("/")
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else parts[0][:-3]


def _imported(node: ast.AST):
    """The ``repro`` packages an import statement names (anything else
    ``from repro import`` names is the façade, ``repro``)."""
    if isinstance(node, ast.Import):
        modules = [a.name for a in node.names]
    elif node.module == "repro":
        modules = [f"repro.{a.name}" for a in node.names]
    else:
        modules = [node.module or ""]
    for module in modules:
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            yield parts[1] if parts[1] in LAYERS else "repro"


def _layer_findings(node: ast.AST, package: str, path: str):
    allowed = LAYERS.get(package, ())
    if "*" in allowed:
        return
    for target in _imported(node):
        if target not in (package, "util", *allowed):
            name = "repro" if target == "repro" else f"repro.{target}"
            yield Finding("FXL016", path, node.lineno, node.col_offset,
                          f"{package} imports {name}, but its LAYERS row "
                          f"allows only {', '.join(('util', *allowed))}")


def _check_tables(tree: ast.AST, path: str, cfg: LintConfig):
    """Every OWNERS, REGISTRIES and LAYERS row, in one walk of ``tree``."""
    package = _package(path)
    by_callee: dict[str, list[Registry]] = {}
    for row in cfg.registries:
        for callee in row.callees:
            by_callee.setdefault(callee, []).append(row)
    vocabs: dict[Registry, tuple] = {}
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, qual = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
        stack.extend((child, qual) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            yield from _owner_findings(_text(node.func) + "()", node, path, qual)
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            for row in by_callee.get(callee, ()):
                if row not in vocabs:
                    vocabs[row] = vocabulary(row)
                yield from _registry_findings(node, callee, row, vocabs[row], path)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and package is not None:
            yield from _layer_findings(node, package, path)
        for target in _written(node):
            yield from _owner_findings(_text(target), target, path, qual)


_CHECKS = (
    _check_broad_except,
    _check_spans,
    _check_drainer_state,
    _check_copy_discipline,
    _check_positional_reads,
    _check_tables,
)


# ---------------------------------------------------------------------------
# Waivers + entry points
# ---------------------------------------------------------------------------

def _waivers(source: str) -> dict[int, tuple[frozenset[str], str]]:
    out: dict[int, tuple[frozenset[str], str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _WAIVER_RE.search(line)
        if m:
            rules = frozenset(r.strip() for r in m.group(1).split(","))
            out[lineno] = (rules, m.group(2).strip())
    return out


def _apply_waivers(findings: list[Finding], source: str) -> list[Finding]:
    waivers = _waivers(source)
    if not waivers:
        return findings
    out = []
    for f in findings:
        waiver = None
        for line in (f.line, f.line - 1):
            w = waivers.get(line)
            if w and f.rule in w[0]:
                waiver = w
                break
        if waiver is None:
            out.append(f)
        elif waiver[1]:
            out.append(replace(f, waived=True, waiver_reason=waiver[1]))
        else:
            out.append(replace(
                f, message=f.message + " (waiver present but missing a reason)"
            ))
    return out


def _syntax_error(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        "FXL000", path, exc.lineno or 0, exc.offset or 0,
        f"syntax error: {exc.msg}",
    )


def _lint_tree(
    tree: ast.Module, source: str, path: str, cfg: LintConfig
) -> list[Finding]:
    findings: list[Finding] = []
    for check in _CHECKS + _flow_checks():
        findings.extend(check(tree, path, cfg))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return _apply_waivers(findings, source)


def lint_source(
    source: str, path: str = "<string>", config: Optional[LintConfig] = None
) -> list[Finding]:
    """Lint one source text; returns every finding (waived ones marked)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    return _lint_tree(tree, source, path, config or LintConfig())


def _flow_checks():
    # Imported lazily: flowrules imports Finding/LintConfig from here.
    from repro.analysis.flowrules import FILE_CHECKS

    return FILE_CHECKS


def iter_py_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git", ".venv")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            out.append(path)
    return out


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``, then run the cross-file
    pass (FXL009); findings come back in ``(path, line, col, rule)``
    order.  Each file is parsed once, from its bytes — so a file Python
    could not import (bad encoding, bad syntax) is an FXL000 finding,
    as is one that cannot be read."""
    cfg = config or LintConfig()
    findings: list[Finding] = []
    sources: dict[str, str] = {}
    project = ProjectIndex()
    for path in iter_py_files(paths):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            tree = ast.parse(raw, filename=path)
        except OSError as exc:
            findings.append(
                Finding("FXL000", path, 0, 0, f"unreadable file: {exc}")
            )
            continue
        except SyntaxError as exc:
            findings.append(_syntax_error(path, exc))
            continue
        source = importlib.util.decode_source(raw)
        sources[path] = source
        findings.extend(_lint_tree(tree, source, path, cfg))
        project.add(index_tree(tree, path))
    findings.extend(_cross_file_findings(project, sources))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def project_findings(sources: dict[str, str]) -> list[Finding]:
    """Run the cross-file rules over an in-memory ``{path: source}``
    project; waivers in the *defining* file apply as usual."""
    return _cross_file_findings(ProjectIndex.from_sources(sources), sources)


def _cross_file_findings(
    project: ProjectIndex, sources: dict[str, str]
) -> list[Finding]:
    from repro.analysis.flowrules import check_dispatch

    raw = sorted(check_dispatch(project), key=lambda f: (f.path, f.line))
    out: list[Finding] = []
    by_path: dict[str, list[Finding]] = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)
    for path, group in by_path.items():
        out.extend(_apply_waivers(group, sources.get(path, "")))
    return out
