"""FlexLint: AST-based static analysis enforcing FlexIO project invariants.

General-purpose linters cannot know that a broad ``except`` in the drain
path once silently swallowed lost steps, or that a misspelled stream
hint is silently ignored by the XML config layer.  FlexLint encodes the
bug classes this repo has actually hit (and fixed) as rules, so they
cannot be reintroduced:

========  ==============================================================
FXL001    Broad/bare ``except`` on a fault-critical path (``transport/``,
          ``core/stream.py`` / ``drain.py`` / ``reader.py``,
          ``core/directory.py``, ``coupled/``, ``net/``):
          handlers there must catch typed ``TransportFault`` /
          ``AdiosError`` / ``DirectoryError`` subclasses so real faults
          keep their taxonomy.
FXL002    Stream-hint key literal not declared in the central registry
          (:mod:`repro.core.hints`) — the stringly-typed-typo guard.
FXL003    Tracer span created but never closed: ``monitor.span(...)`` /
          ``begin_span(...)`` must be used as a context manager or have
          an explicit ``finish()`` / ``__exit__`` in the same function.
FXL004    Direct ``commit()`` call outside the retry/2PC path
          (``_drain_one`` in ``core/drain.py``) — step visibility must
          go through the reliable-delivery path.
FXL005    Attribute mutated from a drainer-thread method — on the
          drainer (``self.x``) or across the thread boundary on the
          stream state (``self._state.x``) — without being declared in
          the shared-state registry
          (``repro.core.drain.DRAINER_SHARED_STATE``).
FXL006    Copy-discipline breach on the zero-copy plane (``transport/``,
          ``core/stream.py`` / ``drain.py`` / ``reader.py``):
          ``.tobytes()`` / ``bytes(...)`` / ``bytearray(...)``
          materialize a copy of data that should travel as
          :class:`~repro.transport.buffers.WireBuffer` views.
FXL007    Unregistered event code in a hot-path ``record()`` call: the
          first argument must be a constant from the central event
          table (:mod:`repro.obs.events`) or a ``Name``/``Attribute``
          reference to one — ad-hoc f-strings and computed event names
          defeat the flight recorder's fixed vocabulary.
FXL008    Removed/legacy step-API spelling: ``.advance()`` is gone
          (writers call ``end_step()``, readers drive
          ``begin_step()``/``end_step()``), and selections must go
          through keywords — ``read(name, selection=...)`` /
          ``read(name, start=..., count=...)`` — never positionally.
FXL009    Non-exhaustive ``MsgType`` dispatch (cross-file): every
          member of the wire enum must be referenced by both the
          daemon's dispatch and the client's typed-response paths.
FXL010    Blocking call (``time.sleep``, file I/O, ``os.fsync``,
          blocking socket ops, ``lock.acquire``) inside an ``async
          def`` on the network plane — directly or transitively
          through a sync helper — or in a loop-thread callback (an
          asyncio protocol method and the handlers it reaches).
FXL011    Synchronous (threading) lock held across an ``await``; the
          static complement of sanitize.py's runtime lockdep.
FXL012    ``lease()``/``acquire()``/``connect()`` result that may
          reach the function exit without ``release()``/``close()``
          or an ownership transfer on some CFG path.
FXL013    Metric-name literal not registered in the central
          :mod:`repro.obs.names` table (counters/gauges/histograms);
          dynamic names must go through ``metric_name()``.
FXL014    Direct plug-in kernel invocation (``.fn(...)``,
          ``.mask_fn(...)``, ``._func(...)``) outside the plug-in
          runtime (``core/plugins.py``) and the compiled-plan executor
          (``core/redistribution.py``) — ad-hoc kernel calls bypass
          per-kernel accounting, fused/interpreted equivalence, and
          the chain-hash plan-cache keying.
========  ==============================================================

Rules FXL009-FXL013 are flow/project aware: they run on the per-function
control-flow graphs of :mod:`repro.analysis.cfg` and the whole-program
index of :mod:`repro.analysis.project` (see
:mod:`repro.analysis.flowrules`).

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
import importlib.util
import os
import re
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.analysis.project import ProjectIndex, index_tree

_WAIVER_RE = re.compile(
    r"#\s*flexlint:\s*ok\(\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\s*\)\s*(.*)$"
)

_BROAD_NAMES = ("Exception", "BaseException")
_SPAN_METHODS = ("span", "begin_span")
_SPAN_CLOSERS = ("finish", "__exit__")
_PARAM_METHODS = ("param", "param_bool", "param_int", "param_float")
_HINT_BUILDERS = ("stream_params",)
_COMMIT_NAMES = ("commit", "_commit")


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
             "hint-key string literals must exist in the central "
             "repro.core.hints registry."),
        Rule("FXL003", "tracer span never closed",
             "span()/begin_span() results must be entered as a context "
             "manager or explicitly finish()ed in the same function."),
        Rule("FXL004", "commit outside the retry/2PC path",
             "commit()/_commit() may only be called from "
             "_drain_one() in core/drain.py."),
        Rule("FXL005", "undeclared drainer-thread shared state",
             "attributes assigned inside drainer-path methods (on self "
             "or self._state) must be declared in "
             "repro.core.drain.DRAINER_SHARED_STATE."),
        Rule("FXL006", "copy-discipline breach on the zero-copy plane",
             ".tobytes()/bytes()/bytearray() under transport/ and "
             "core/{stream,drain,reader}.py materialize copies; carry "
             "WireBuffer/memoryview spans instead (or waive with a reason)."),
        Rule("FXL007", "unregistered event code in record() call",
             "the first argument of record() must be a string literal "
             "registered in repro.obs.events (or a Name/Attribute "
             "constant reference); no f-strings or computed names."),
        Rule("FXL008", "removed/legacy step-API spelling",
             ".advance() no longer exists (use end_step(), or "
             "begin_step()/end_step() loops on readers) and "
             "read()/read_into()/read_all() take selections only as "
             "selection=/start=/count= keywords."),
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
             "counter()/gauge()/histogram() name literals must be "
             "registered in repro.obs.names (or extend a registered "
             "family); dynamic names go through metric_name()."),
        Rule("FXL014", "plug-in kernel invoked outside the executor",
             ".fn()/.mask_fn()/._func() calls are reserved to "
             "core/plugins.py and the compiled-plan executor in "
             "core/redistribution.py; everything else goes through "
             "apply()/apply_side() or a chain cursor."),
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
    """Scope and registry knobs (overridable for tests/fixtures)."""

    #: Paths (dir prefixes ending in "/" or file suffixes) where FXL001
    #: applies.
    broad_except_paths: tuple[str, ...] = (
        "repro/transport/",
        "repro/core/stream.py",
        "repro/core/drain.py",
        "repro/core/reader.py",
        "repro/core/directory.py",
        "repro/coupled/",
        "repro/net/",
    )
    #: (path pattern, allowed function names or None for "anywhere in
    #: the file") pairs where commit() calls are legitimate.
    commit_allowed: tuple[tuple[str, Optional[tuple[str, ...]]], ...] = (
        ("repro/core/drain.py", ("_drain_one",)),
    )
    #: File FXL005 applies to.
    drainer_path: str = "repro/core/drain.py"
    #: Overrides for the drainer registries; None = read them from
    #: repro.core.drain (DRAINER_METHODS / DRAINER_SHARED_STATE).
    drainer_methods: Optional[frozenset[str]] = None
    drainer_shared_state: Optional[frozenset[str]] = None
    #: Override for the known hint keys; None = repro.core.hints registry.
    hint_keys: Optional[frozenset[str]] = None
    #: Paths where FXL006 (copy discipline) applies.
    copy_discipline_paths: tuple[str, ...] = (
        "repro/transport/",
        "repro/core/stream.py",
        "repro/core/drain.py",
        "repro/core/reader.py",
    )
    #: Override for the registered event codes (FXL007); None = the
    #: repro.obs.events central table (flight events + trace categories).
    event_codes: Optional[frozenset[str]] = None
    #: Paths where FXL010 (no blocking calls in async bodies) applies.
    blocking_async_paths: tuple[str, ...] = ("repro/net/",)
    #: Dotted call names FXL010 treats as blocking the event loop.
    blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "os.fsync",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "shutil.copyfileobj",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "select.select",
    )
    #: Paths where FXL012 (must-release dataflow) applies.
    lease_scope_paths: tuple[str, ...] = (
        "repro/transport/",
        "repro/net/",
    )
    #: Methods whose assigned result FXL012 tracks as an owned resource.
    lease_acquire_methods: tuple[str, ...] = (
        "lease",
        "acquire",
        "connect",
        "create_connection",
    )
    #: Methods that end the release obligation.
    lease_release_methods: tuple[str, ...] = (
        "release",
        "close",
        "shutdown",
    )
    #: (path suffix, enum name) of the wire enum FXL009 checks.
    dispatch_enum: tuple[str, str] = ("repro/net/protocol.py", "MsgType")
    #: Path suffixes of the dispatch surfaces that must reference every
    #: enum member.
    dispatch_surfaces: tuple[str, ...] = (
        "repro/net/server.py",
        "repro/net/client.py",
    )
    #: Override for the registered metric names (FXL013); None = the
    #: repro.obs.names central table.
    metric_names: Optional[frozenset[str]] = None
    #: Override for the registered metric family roots; None = the
    #: repro.obs.names FAMILY_ROOTS.
    metric_families: Optional[tuple[str, ...]] = None
    #: Paths allowed to invoke plug-in kernels directly (FXL014).
    kernel_call_paths: tuple[str, ...] = (
        "repro/core/plugins.py",
        "repro/core/redistribution.py",
    )
    #: Attribute names FXL014 treats as kernel entry points.
    kernel_call_attrs: tuple[str, ...] = ("fn", "mask_fn", "_func")


def _default_hint_keys() -> frozenset[str]:
    from repro.core.hints import known_keys

    return known_keys()


def _default_drainer_registry() -> tuple[frozenset[str], frozenset[str]]:
    from repro.core.drain import DRAINER_METHODS, DRAINER_SHARED_STATE

    return frozenset(DRAINER_METHODS), frozenset(DRAINER_SHARED_STATE)


def _default_event_codes() -> frozenset[str]:
    from repro.obs.events import EVENT_CODES

    return EVENT_CODES


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
    if not _in_scope(path, cfg.broad_except_paths):
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


def _check_hint_keys(tree: ast.AST, path: str, cfg: LintConfig):
    keys = cfg.hint_keys if cfg.hint_keys is not None else _default_hint_keys()

    def unknown(key: str, node: ast.AST, how: str):
        hint = difflib.get_close_matches(key, sorted(keys), n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        return Finding(
            "FXL002", path, node.lineno, node.col_offset,
            f"hint key {key!r} ({how}) is not in the "
            f"repro.core.hints registry{extra}",
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _PARAM_METHODS:
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                key = node.args[0].value
                if key not in keys:
                    yield unknown(key, node, f"{func.attr}() call")
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in _HINT_BUILDERS:
            for kw in node.keywords:
                if kw.arg is not None and not kw.arg.startswith("_") \
                        and kw.arg not in keys:
                    yield unknown(kw.arg, node, f"{name}() keyword")


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


def _check_commit(tree: ast.AST, path: str, cfg: LintConfig):
    allowed_funcs: Optional[tuple[str, ...]] = ()
    for pat, funcs in cfg.commit_allowed:
        if _in_scope(path, (pat,)):
            allowed_funcs = funcs  # None means the whole file is fine
            break
    if allowed_funcs is None:
        return
    parent = _parents(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in _COMMIT_NAMES:
            continue
        scope = _enclosing(node, parent, (ast.FunctionDef, ast.AsyncFunctionDef))
        fname = scope.name if scope is not None else "<module>"
        if fname in allowed_funcs:
            continue
        yield Finding(
            "FXL004", path, node.lineno, node.col_offset,
            f"direct {name}() call in {fname}() outside the retry/2PC "
            f"path; route step visibility through the drain pipeline",
        )


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
    if cfg.drainer_path and not _in_scope(path, (cfg.drainer_path,)):
        return
    if cfg.drainer_methods is not None and cfg.drainer_shared_state is not None:
        methods, shared = cfg.drainer_methods, cfg.drainer_shared_state
    else:
        methods, shared = _default_drainer_registry()
        if cfg.drainer_methods is not None:
            methods = cfg.drainer_methods
        if cfg.drainer_shared_state is not None:
            shared = cfg.drainer_shared_state
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
                        f"{owner}.{attr.attr} mutated in drainer-path method "
                        f"{node.name}() but not declared in "
                        f"DRAINER_SHARED_STATE",
                    )


def _check_copy_discipline(tree: ast.AST, path: str, cfg: LintConfig):
    if not _in_scope(path, cfg.copy_discipline_paths):
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


def _check_event_codes(tree: ast.AST, path: str, cfg: LintConfig):
    codes = (
        cfg.event_codes if cfg.event_codes is not None
        else _default_event_codes()
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name != "record" or not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.Name, ast.Attribute)):
            # A reference to a registered constant (EV_*, span.category,
            # self._category) — resolved at runtime by the recorder.
            continue
        if isinstance(arg, ast.JoinedStr):
            yield Finding(
                "FXL007", path, arg.lineno, arg.col_offset,
                "f-string event name in record(); use a registered "
                "constant from repro.obs.events and carry the variable "
                "parts as attrs",
            )
        elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in codes:
                hint = difflib.get_close_matches(arg.value, sorted(codes), n=1)
                extra = f"; did you mean {hint[0]!r}?" if hint else ""
                yield Finding(
                    "FXL007", path, arg.lineno, arg.col_offset,
                    f"event code {arg.value!r} is not registered in the "
                    f"repro.obs.events table{extra}",
                )
        elif not isinstance(arg, ast.Constant):
            yield Finding(
                "FXL007", path, arg.lineno, arg.col_offset,
                "computed event name in record(); event codes must be "
                "registered constants from repro.obs.events",
            )


#: Step-API read methods and how many positional arguments each accepts
#: (the variable name; plus the output array for ``read_into``).  More
#: than that means a positional selection — a removed spelling.
_READ_POSITIONAL_LIMITS = {"read": 1, "read_all": 1, "read_into": 2}


def _check_legacy_api(tree: ast.AST, path: str, cfg: LintConfig):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        if name == "advance":
            yield Finding(
                "FXL008", path, node.lineno, node.col_offset,
                ".advance() was removed; writers call end_step(), "
                "readers drive begin_step()/end_step()",
            )
        elif name in _READ_POSITIONAL_LIMITS:
            limit = _READ_POSITIONAL_LIMITS[name]
            if len(node.args) > limit:
                yield Finding(
                    "FXL008", path, node.lineno, node.col_offset,
                    f"positional selection in {name}(); pass the "
                    f"selection= keyword (or start=/count=) instead",
                )


def _check_kernel_calls(tree: ast.AST, path: str, cfg: LintConfig):
    if _in_scope(path, cfg.kernel_call_paths):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in cfg.kernel_call_attrs:
            yield Finding(
                "FXL014", path, node.lineno, node.col_offset,
                f".{func.attr}() invokes a plug-in kernel outside the "
                f"executor; go through apply()/apply_side() or a chain "
                f"cursor so accounting and fusion equivalence hold",
            )


_CHECKS = (
    _check_broad_except,
    _check_hint_keys,
    _check_spans,
    _check_commit,
    _check_drainer_state,
    _check_copy_discipline,
    _check_event_codes,
    _check_legacy_api,
    _check_kernel_calls,
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
    findings.extend(_cross_file_findings(project, sources, cfg))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def project_findings(sources: dict[str, str], cfg: LintConfig) -> list[Finding]:
    """Run the cross-file rules over an in-memory ``{path: source}``
    project; waivers in the *defining* file apply as usual."""
    return _cross_file_findings(ProjectIndex.from_sources(sources), sources, cfg)


def _cross_file_findings(
    project: ProjectIndex, sources: dict[str, str], cfg: LintConfig
) -> list[Finding]:
    from repro.analysis.flowrules import check_dispatch

    raw = sorted(check_dispatch(project, cfg), key=lambda f: (f.path, f.line))
    out: list[Finding] = []
    by_path: dict[str, list[Finding]] = {}
    for f in raw:
        by_path.setdefault(f.path, []).append(f)
    for path, group in by_path.items():
        out.extend(_apply_waivers(group, sources.get(path, "")))
    return out
