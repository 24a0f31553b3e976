"""Flow- and project-aware FlexLint rules (FXL009-FXL012).

The original rule set pattern-matches single statements; these rules
consume the :mod:`repro.analysis.cfg` control-flow graphs and the
:mod:`repro.analysis.project` whole-program index:

FXL009  exhaustive ``MsgType`` dispatch — every member of the wire
        enum must be referenced by each dispatch surface
        (``net/server.py`` and ``net/client.py``); a member added to
        ``protocol.py`` without handling fails the lint at the
        member's definition line.
FXL010  no blocking calls inside ``async def`` bodies on the network
        plane — ``time.sleep``, file I/O, ``os.fsync``/``os.replace``,
        blocking socket ops, ``lock.acquire`` — including *transitive*
        blocking through sync helpers called from the coroutine, nor in
        the sync callbacks the loop runs (protocol methods and the
        handlers they reach by call or stored reference).
FXL011  a synchronous (threading) lock held across an ``await``: the
        static complement of sanitize.py's runtime lockdep.
        ``async with`` on an asyncio lock is fine.
FXL012  must-release: a ``lease()``/``acquire()``/``connect()`` result
        must reach ``release()``/``close()`` or an ownership transfer
        (returned, stored, passed on) on **every** CFG path to the
        function exit, including exception edges.

Per-file checks share the ``(tree, path, cfg)`` signature of the
original rules and are exported via :data:`FILE_CHECKS`;
:func:`check_dispatch` is the cross-file pass run once per project.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis import cfg as cfgmod
from repro.analysis.cfg import (
    CFG,
    WithEnter,
    WithExit,
    block_states,
    build_cfg,
    contains_await,
    run_forward,
)
from repro.analysis.flexlint import Finding, LintConfig, _in_scope
from repro.analysis.project import ProjectIndex

__all__ = [
    "FILE_CHECKS",
    "check_blocking_async",
    "check_lock_across_await",
    "check_must_release",
    "check_dispatch",
]

#: Where FXL010 (no blocking calls on the event loop) applies.
_BLOCKING_ASYNC_PATHS = ("repro/net/",)
#: Dotted call names FXL010 treats as blocking the event loop.
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.fsync", "os.replace", "os.rename", "os.remove",
    "os.unlink", "shutil.copyfileobj", "socket.create_connection",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "select.select",
})
#: Where FXL012 (must-release dataflow) applies.
_LEASE_SCOPE_PATHS = ("repro/transport/", "repro/net/")
#: Methods whose assigned result FXL012 tracks, and those that release it.
_LEASE_ACQUIRE = ("lease", "acquire", "connect", "create_connection")
_LEASE_RELEASE = ("release", "close", "shutdown")
#: (path suffix, enum name) of the wire enum FXL009 checks, and the
#: dispatch surfaces that must reference every member.
_DISPATCH_ENUM = ("repro/net/protocol.py", "MsgType")
_DISPATCH_SURFACES = ("repro/net/server.py", "repro/net/client.py")

_LOCKY_MARKERS = ("lock", "mutex", "sem")
_SOCKET_BLOCKING_ATTRS = frozenset(
    {"accept", "recv", "recv_into", "recvfrom", "sendall", "sendmsg"}
)


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _is_locky(expr: Optional[ast.expr]) -> bool:
    """Heuristic: does this expression name a mutex-like object?"""
    name = _dotted(expr) if expr is not None else None
    if not name:
        return False
    last = name.rsplit(".", 1)[-1].lower()
    return any(marker in last for marker in _LOCKY_MARKERS)


def _walk_shallow(node: ast.AST):
    return cfgmod._walk_shallow(node)


def _iter_functions(tree: ast.AST):
    """Yield ``(class name or None, function node)`` for every def."""
    stack: List[Tuple[Optional[str], ast.AST]] = [(None, tree)]
    while stack:
        cls, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child.name, child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                stack.append((cls, child))
            else:
                stack.append((cls, child))


# ---------------------------------------------------------------------------
# FXL010 — blocking calls on the event loop (with transitive propagation)
# ---------------------------------------------------------------------------

def _direct_blocking(call: ast.Call) -> Optional[str]:
    """Why this single call blocks, or None."""
    func = call.func
    dotted = _dotted(func)
    if dotted in _BLOCKING_CALLS:
        return f"{dotted}()"
    if isinstance(func, ast.Name) and func.id in ("open", "input"):
        return f"{func.id}()"
    if isinstance(func, ast.Attribute):
        if func.attr == "acquire" and _is_locky(func.value):
            return f"{_dotted(func) or 'lock.acquire'}() (blocking lock)"
        if func.attr in _SOCKET_BLOCKING_ATTRS:
            base = _dotted(func.value) or ""
            if "sock" in base.rsplit(".", 1)[-1].lower():
                return f"{base}.{func.attr}() (blocking socket op)"
    return None


#: Calls whose function arguments run off the event loop.
_HANDOFFS = frozenset({"run_in_executor", "submit", "to_thread", "Thread"})


def _names_used(fn: ast.AST):
    """``(name, how)`` for every function ``fn`` calls (``how`` "call":
    ``obj.X()`` / ``X()``) or refers to without calling (``"self"`` for
    ``self.X``, ``"name"`` for a bare ``X``), lambdas included — a lambda
    is a callback of the frame that builds it — but nothing handed to an
    executor or a thread, and no nested def (it is a table entry)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(cur, ast.Call):
            if (_dotted(cur.func) or "").rsplit(".", 1)[-1] in _HANDOFFS:
                continue
            func = cur.func
            if isinstance(func, ast.Attribute):
                yield func.attr, "call"
                stack.append(func.value)
            elif isinstance(func, ast.Name):
                yield func.id, "call"
            else:
                stack.append(func)
            stack.extend(cur.args)
            stack.extend(k.value for k in cur.keywords)
            continue
        if isinstance(cur, ast.Attribute) and isinstance(cur.ctx, ast.Load) \
                and isinstance(cur.value, ast.Name) and cur.value.id == "self":
            yield cur.attr, "self"
        elif isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            yield cur.id, "name"
        stack.extend(ast.iter_child_nodes(cur))


def _on_loop(tree: ast.AST) -> Dict[tuple, Tuple[ast.AST, str]]:
    """Every function of this file that runs on the event loop thread,
    keyed ``(class, name)``, with its node and the name it is reached
    from: each coroutine, each method of an asyncio protocol class (a
    ``*Protocol`` base), and every sync function those call or refer to,
    transitively — a call matched by name whatever its receiver
    (``self._daemon.X()``), a reference as ``self.X`` or a bare name (a
    connection's state handler, a timer or done callback)."""
    fns = {(cls, node.name): node for cls, node in _iter_functions(tree)}
    protocols = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any((_dotted(b) or "").endswith("Protocol") for b in node.bases)
    }
    methods = {
        (node.name, fn.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    by_name: Dict[str, List[tuple]] = {}
    for key in fns:
        by_name.setdefault(key[1], []).append(key)

    def targets(cls: Optional[str], name: str, how: str):
        keys = by_name.get(name, ())
        if how == "self":
            return [k for k in keys if k[0] == cls]
        return keys if how == "call" else [k for k in keys if k not in methods]

    reached = {key: key[1] for key, node in fns.items()
               if isinstance(node, ast.AsyncFunctionDef) or key[0] in protocols}
    todo = list(reached)
    while todo:
        key = todo.pop()
        for name, how in _names_used(fns[key]):
            for target in targets(key[0], name, how):
                if target not in reached:
                    reached[target] = reached[key]
                    todo.append(target)
    return {key: (fns[key], root) for key, root in reached.items()}


def check_blocking_async(tree: ast.AST, path: str, cfg: LintConfig):
    """FXL010: blocking calls on the event loop — in a coroutine, in a
    protocol callback, or in a sync function either of them reaches."""
    if not _in_scope(path, _BLOCKING_ASYNC_PATHS):
        return
    for (_cls, name), (node, root) in _on_loop(tree).items():
        for sub in _walk_shallow(node):
            reason = _direct_blocking(sub) if isinstance(sub, ast.Call) else None
            if reason is None:
                continue
            if isinstance(node, ast.AsyncFunctionDef):
                why = (f"inside async {name}(); it stalls the daemon event loop "
                       f"— use the async equivalent or run_in_executor")
            else:
                why = (f"in {name}(), which runs on the event loop (reached "
                       f"from {root}()); move it behind run_in_executor")
            yield Finding("FXL010", path, sub.lineno, sub.col_offset,
                          f"blocking call {reason} {why}")


# ---------------------------------------------------------------------------
# FXL011 — sync lock held across await
# ---------------------------------------------------------------------------

class _LockHeld(cfgmod.Analysis):
    """Facts: ``(key, acquire lineno)`` for every sync lock now held."""

    def transfer(self, stmt, state):
        if isinstance(stmt, WithEnter):
            if not stmt.is_async and _is_locky(_with_lock_expr(stmt.item)):
                key = _dotted(_with_lock_expr(stmt.item)) or "<lock>"
                return state | {(key, stmt.lineno)}
            return state
        if isinstance(stmt, WithExit):
            if not stmt.is_async and _is_locky(_with_lock_expr(stmt.item)):
                key = _dotted(_with_lock_expr(stmt.item)) or "<lock>"
                return frozenset(f for f in state if f[0] != key)
            return state
        if isinstance(stmt, ast.AST):
            state = self._calls(stmt, state)
        return state

    @staticmethod
    def _calls(stmt: ast.AST, state):
        for node in _walk_shallow(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if not _is_locky(node.func.value):
                    continue
                key = _dotted(node.func.value) or "<lock>"
                if node.func.attr == "acquire":
                    state = state | {(key, node.lineno)}
                elif node.func.attr == "release":
                    state = frozenset(f for f in state if f[0] != key)
        return state


def _with_lock_expr(item: ast.withitem) -> ast.expr:
    # `with self._lock:` or `with self._lock.acquire_timeout(...)`-style;
    # unwrap a call so the receiver is what gets the locky test.
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return expr.func.value
    return expr


def check_lock_across_await(tree: ast.AST, path: str, cfg: LintConfig):
    """FXL011: an await reached while a threading lock is held."""
    for _cls, node in _iter_functions(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        graph = build_cfg(node)
        analysis = _LockHeld()
        in_states = run_forward(graph, analysis)
        seen = set()
        for block in graph.blocks:
            if block.id not in in_states:
                continue
            for stmt, state in block_states(
                block, in_states[block.id], analysis.transfer
            ):
                if not state or not contains_await(stmt):
                    continue
                lineno = getattr(stmt, "lineno", node.lineno)
                for key, acq_line in sorted(state):
                    mark = (lineno, key)
                    if mark in seen:
                        continue
                    seen.add(mark)
                    yield Finding(
                        "FXL011", path, lineno,
                        getattr(stmt, "col_offset", 0),
                        f"await while holding sync lock {key!r} (acquired "
                        f"line {acq_line}); every other coroutine on the "
                        f"loop stalls behind it — release first or use an "
                        f"asyncio lock",
                    )


# ---------------------------------------------------------------------------
# FXL012 — must-release on every CFG exit path
# ---------------------------------------------------------------------------

def _bare_loads(root: ast.AST, name: str) -> bool:
    """``name`` used as a value (not merely as an attribute/receiver
    base) somewhere under ``root``."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in _walk_shallow(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in _walk_shallow(root):
        if isinstance(node, ast.Name) and node.id == name \
                and isinstance(node.ctx, ast.Load):
            p = parents.get(node)
            if isinstance(p, (ast.Attribute, ast.Subscript)) and p.value is node:
                continue  # lease.data / lease[...] — a use, not a transfer
            if isinstance(p, ast.Call) and p.func is node:
                continue
            return True
    return False


def _stmt_escapes(stmt: ast.AST, name: str) -> bool:
    """The resource escapes this frame: returned/yielded, passed as a
    call argument, or stored into an attribute/subscript."""
    for node in _walk_shallow(stmt):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _bare_loads(node.value, name):
                return True
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                if _bare_loads(arg, name):
                    return True
        elif isinstance(node, ast.Assign):
            stored = any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            )
            aliased = any(isinstance(t, ast.Name) for t in node.targets)
            if (stored or aliased) and _bare_loads(node.value, name):
                return True
    return False


class _MustRelease(cfgmod.Analysis):
    """Facts: ``(name, method, lineno, col)`` for leases still owned."""

    # -- gen -----------------------------------------------------------
    def _acquire_of(self, stmt) -> Optional[tuple]:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return None
        value = stmt.value
        if isinstance(value, ast.Await):
            value = value.value
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            return None
        method = value.func.attr
        if method not in _LEASE_ACQUIRE:
            return None
        if method == "acquire" and _is_locky(value.func.value):
            return None  # lock.acquire() is FXL010/011 territory
        return (target.id, method, stmt.lineno, stmt.col_offset)

    # -- kills ---------------------------------------------------------
    def _kills(self, stmt, state):
        if not state:
            return state
        out = set(state)
        for fact in state:
            name = fact[0]
            if self._releases(stmt, name) or (
                isinstance(stmt, ast.AST) and _stmt_escapes(stmt, name)
            ):
                out.discard(fact)
            elif isinstance(stmt, WithEnter):
                expr = stmt.item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    out.discard(fact)  # managed by the with block now
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets
            ):
                out.discard(fact)  # rebound
        return frozenset(out)

    def _releases(self, stmt, name: str) -> bool:
        if not isinstance(stmt, ast.AST):
            return False
        for node in _walk_shallow(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _LEASE_RELEASE \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == name:
                return True
        return False

    # -- engine hooks --------------------------------------------------
    def transfer(self, stmt, state):
        state = self._kills(stmt, state)
        acquired = self._acquire_of(stmt)
        if acquired is not None:
            state = state | {acquired}
        return state

    def exc_out(self, block, in_state):
        # On the exception edge the acquire may not have happened, so
        # gens are skipped; releases are applied optimistically so the
        # canonical try/finally-release shape is not reported.
        state = in_state
        for stmt in block.stmts:
            state = self._kills(stmt, state)
        return state


def check_must_release(tree: ast.AST, path: str, cfg: LintConfig):
    """FXL012: acquire() must reach release()/transfer on every path."""
    if not _in_scope(path, _LEASE_SCOPE_PATHS):
        return
    for _cls, node in _iter_functions(tree):
        analysis = _MustRelease()
        if not any(
            analysis._acquire_of(s) is not None
            for s in _walk_shallow(node) if isinstance(s, ast.Assign)
        ):
            continue
        graph = build_cfg(node)
        in_states = run_forward(graph, analysis)
        leaked = in_states.get(graph.exit.id, frozenset())
        for name, method, lineno, col in sorted(leaked, key=lambda f: f[2]):
            yield Finding(
                "FXL012", path, lineno, col,
                f"{name!r} acquired via .{method}() may leak: a path "
                f"through {node.name}() reaches the exit without "
                f"release()/close() or an ownership transfer — release "
                f"in a finally, use 'with', or hand the lease off",
            )


# ---------------------------------------------------------------------------
# FXL009 — exhaustive enum dispatch (cross-file)
# ---------------------------------------------------------------------------

def check_dispatch(project: ProjectIndex) -> Iterator[Finding]:
    """Every enum member must be referenced by each dispatch surface."""
    path_suffix, enum_name = _DISPATCH_ENUM
    enum = project.find_enum(path_suffix, enum_name)
    if enum is None:
        return  # enum not part of the analyzed set
    for surface in _DISPATCH_SURFACES:
        module = project.module_for_suffix(surface)
        if module is None:
            continue  # surface outside the analyzed set
        for member, lineno in enum.members:
            if (enum_name, member) not in module.attr_refs:
                yield Finding(
                    "FXL009", enum.path, lineno, 0,
                    f"{enum_name}.{member} has no handler: {surface} "
                    f"never references {enum_name}.{member} — add "
                    f"dispatch (or an explicit default) before shipping "
                    f"the new message type",
                )


#: Per-file flow checks, same signature as the checks in flexlint.py.
FILE_CHECKS = (
    check_blocking_async,
    check_lock_across_await,
    check_must_release,
)
