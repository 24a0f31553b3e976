"""FlexLint rule coverage: good/bad fixtures per rule + waivers + CLI.

Each rule gets a minimal bad fixture that must be flagged and a good
fixture that must pass; the waiver machinery and the CLI exit codes are
exercised separately.  The final acceptance check — the repo's own
``src/`` tree lints clean — runs the real CLI over the real tree.
"""

import dataclasses
import io
import json
import os
import textwrap

import pytest

from repro.analysis.flexlint import (
    Finding,
    LintConfig,
    RULES,
    lint_paths,
    lint_source,
    project_findings,
)
from repro.analysis.tables import REGISTRIES
from repro.tools import flexlint as cli

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Puts fixture code in FXL001 scope.
TRANSPORT_PATH = "repro/transport/fixture.py"
#: Fixture config for FXL005 (decoupled from the real stream registries).
DRAINER_CFG = LintConfig(
    drainer_path="fixture.py",
    drainer_methods=frozenset({"_drain_one"}),
    drainer_shared_state=frozenset({"_declared"}),
)


def rules_of(findings):
    return sorted({f.rule for f in findings if not f.waived})


def lint(code, path="fixture.py", config=None):
    return lint_source(textwrap.dedent(code), path=path, config=config)


# ---------------------------------------------------------------------------
# FXL001 — broad except on fault-critical paths
# ---------------------------------------------------------------------------

def test_fxl001_flags_bare_and_broad_except():
    code = """
    def f():
        try:
            g()
        except Exception:
            pass
        try:
            g()
        except:
            pass
        try:
            g()
        except (ValueError, BaseException):
            pass
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert rules_of(findings) == ["FXL001"]
    assert len(findings) == 3


def test_fxl001_accepts_typed_catches():
    code = """
    def f():
        try:
            g()
        except (TransportFault, TimeoutError):
            pass
        except DirectoryError:
            pass
    """
    assert lint(code, path=TRANSPORT_PATH) == []


def test_fxl001_out_of_scope_path_is_ignored():
    code = """
    try:
        g()
    except Exception:
        pass
    """
    assert lint(code, path="repro/obs/elsewhere.py") == []


# ---------------------------------------------------------------------------
# FXL002 — hint keys must be registered
# ---------------------------------------------------------------------------

def test_fxl002_flags_unknown_param_key_with_suggestion():
    code = """
    def f(spec):
        return spec.param_bool("bacthing", False)
    """
    findings = lint(code)
    assert rules_of(findings) == ["FXL002"]
    assert "batching" in findings[0].message  # difflib suggestion


def test_fxl002_accepts_registered_keys_and_dynamic_keys():
    code = """
    def f(spec, key):
        spec.param("caching", "none")
        spec.param_int("queue_depth", 2)
        spec.param(key, "x")  # non-literal: not checkable statically
    """
    assert lint(code) == []


def test_fxl002_flags_unknown_stream_params_keyword():
    code = """
    from repro.core.hints import stream_params
    params = stream_params(caching="all", trasnport="shm")
    """
    findings = lint(code)
    assert rules_of(findings) == ["FXL002"]
    assert "trasnport" in findings[0].message


def test_fxl002_reads_the_key_by_keyword_and_each_branch():
    code = """
    def f(spec, x):
        spec.param(key="cachign")
        spec.param("cachign" if x else "caching")
        spec.param_int("queue_depth" if x else "caching", 2)
    """
    findings = lint(code)
    assert [(f.rule, f.line) for f in findings] == [("FXL002", 3), ("FXL002", 4)]
    assert "caching" in findings[0].message


# ---------------------------------------------------------------------------
# FXL003 — spans must be closed
# ---------------------------------------------------------------------------

def test_fxl003_flags_discarded_and_leaked_spans():
    code = """
    def f(monitor):
        monitor.span("write", "s")          # discarded
        sp = monitor.begin_span("drain", "s")  # assigned, never closed
        return 1
    """
    findings = lint(code)
    assert rules_of(findings) == ["FXL003"]
    assert len(findings) == 2


def test_fxl003_accepts_with_finish_and_manual_exit():
    code = """
    def f(monitor):
        with monitor.span("write", "s"):
            pass
        sp = monitor.begin_span("drain", "s")
        try:
            pass
        finally:
            sp.finish()
        cm = monitor.span("read", "s")
        cm.__enter__()
        cm.__exit__(None, None, None)
        later = monitor.span("x", "s")
        with later:
            pass
        return monitor.span("returned", "s")  # callee's responsibility
    """
    assert lint(code) == []


# ---------------------------------------------------------------------------
# FXL004 — commit only on the retry/2PC path
# ---------------------------------------------------------------------------

def test_fxl004_flags_commit_outside_allowed_path():
    code = """
    def handler(self, step):
        self._commit(step)
    """
    findings = lint(code, path="repro/core/drain.py")
    assert rules_of(findings) == ["FXL004"]


def test_fxl004_allows_drain_path_and_resilience():
    drain = """
    def _drain_one(self, step):
        self._commit(step)
    """
    assert lint(drain, path="repro/core/drain.py") == []
    # core/resilience.py lost its whole-file pass with the 2PC classes:
    # a commit() there is flagged like anywhere else.
    anywhere = """
    def run(self):
        self.commit()
    """
    assert rules_of(lint(anywhere, path="repro/core/resilience.py")) == ["FXL004"]
    # The rule is repo-wide: a commit() sprouting in a NEW file is
    # exactly the bug class FXL004 exists to catch.
    assert rules_of(lint(drain, path="repro/obs/elsewhere.py")) == ["FXL004"]


# ---------------------------------------------------------------------------
# FXL005 — drainer-thread shared state must be declared
# ---------------------------------------------------------------------------

def test_fxl005_flags_undeclared_drainer_mutation():
    code = """
    class S:
        def _drain_one(self, step):
            self._declared = 1
            self._sneaky = 2
            other, self._also_sneaky = 1, 2
    """
    findings = lint(code, config=DRAINER_CFG)
    assert rules_of(findings) == ["FXL005"]
    flagged = {f.message.split()[0] for f in findings}
    assert flagged == {"self._sneaky", "self._also_sneaky"}
    # The default scope is the module the drain code lives in, judged
    # against the registries that module declares.
    assert rules_of(lint(code, path="repro/core/drain.py")) == ["FXL005"]
    assert lint(code, path="repro/core/stream.py") == []


def test_fxl005_checks_writes_across_the_thread_boundary_on_the_state():
    code = """
    class D:
        def _drain_one(self, step):
            self._state.x = 1
            self._state._declared += 1
            self._state.store.append(step)  # a call, not an assignment
    """
    findings = lint(code, config=DRAINER_CFG)
    assert [f.message.split()[0] for f in findings] == ["self._state.x"]
    declared = LintConfig(
        drainer_path="fixture.py",
        drainer_methods=frozenset({"_drain_one"}),
        drainer_shared_state=frozenset({"_declared", "x"}),
    )
    assert lint(code, config=declared) == []


def test_fxl005_ignores_non_drainer_methods_and_locals():
    code = """
    class S:
        def submit(self, step):
            self._anything = 1
        def _drain_one(self, step):
            local = 1
            step.status = "done"
    """
    assert lint(code, config=DRAINER_CFG) == []


def test_fxl005_real_stream_registry_covers_the_real_file():
    from repro.core.drain import DRAINER_METHODS, DRAINER_SHARED_STATE

    assert "_drain_one" in DRAINER_METHODS
    assert "_consecutive_failures" in DRAINER_SHARED_STATE
    path = os.path.join(SRC, "repro", "core", "drain.py")
    findings = lint_paths([path])
    assert [f for f in findings if f.rule == "FXL005" and not f.waived] == []


# ---------------------------------------------------------------------------
# FXL006 — copy discipline on the zero-copy plane
# ---------------------------------------------------------------------------

def test_fxl006_flags_copy_materialization():
    code = """
    def f(view, arr):
        a = arr.tobytes()
        b = bytes(view)
        c = bytearray(view)
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert rules_of(findings) == ["FXL006"]
    assert len(findings) == 3


def test_fxl006_allows_allocation_and_out_of_scope():
    code = """
    def f(view):
        empty = bytes()
        sized = bytearray(4096)
        from_int = bytes(16)
    """
    assert lint(code, path=TRANSPORT_PATH) == []
    copying = """
    def f(view):
        return bytes(view)
    """
    # Same code outside transport/ and the stream data plane is fine.
    assert lint(copying, path="repro/obs/fixture.py") == []
    for module in ("stream", "drain", "reader"):
        assert rules_of(lint(copying, path=f"repro/core/{module}.py")) == ["FXL006"]


def test_fxl006_waiver_with_reason():
    code = """
    def f(view):
        return bytes(view)  # flexlint: ok(FXL006) crossing to a bytes-only API
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert [f for f in findings if not f.waived] == []
    assert any(f.rule == "FXL006" and f.waived for f in findings)


# ---------------------------------------------------------------------------
# FXL007 — record() event codes come from the central table
# ---------------------------------------------------------------------------

#: Fixture event table (decoupled from the real repro.obs.events): the
#: FXL007 row with its own vocabulary.
EVENTS_CFG = LintConfig(registries=tuple(
    dataclasses.replace(row, vocab=frozenset({"step.commit", "step.lost"}))
    if row.rule == "FXL007" else row
    for row in REGISTRIES
))


def test_fxl007_flags_fstring_literal_typo_and_computed_names():
    code = """
    def f(flight, kind):
        flight.record(f"step.{kind}", stream="s")
        flight.record("step.comit", stream="s")
        flight.record("step." + kind, stream="s")
    """
    findings = lint(code, config=EVENTS_CFG)
    assert rules_of(findings) == ["FXL007"]
    assert len(findings) == 3
    by_line = {f.line: f.message for f in findings}
    assert "f-string" in by_line[3]
    assert "step.commit" in by_line[4]  # difflib suggestion for the typo
    assert "computed" in by_line[5]


def test_fxl007_accepts_registered_literals_and_constant_refs():
    code = """
    def f(flight, mon, span, code):
        flight.record("step.commit", stream="s")
        flight.record(EV_STEP_LOST, stream="s")     # Name reference
        mon.record(span.category, span.name)        # Attribute reference
        flight.record(code, stream="s")             # Name: runtime-checked
    """
    assert lint(code, config=EVENTS_CFG) == []


def test_fxl007_waiver_and_real_event_table():
    code = """
    def f(flight):
        flight.record("made.up")  # flexlint: ok(FXL007) fixture event
    """
    findings = lint(code, config=EVENTS_CFG)
    assert [f for f in findings if not f.waived] == []
    # Default config reads the real central table.
    from repro.obs.events import EVENT_CODES

    real = lint('m.record("step.commit", stream="s")\n')
    assert real == [] and "step.commit" in EVENT_CODES
    assert rules_of(lint('m.record("no.such.event")\n')) == ["FXL007"]


def test_fxl007_flags_a_point_event_written_back_as_a_trace_record():
    """Re-adding one of the deleted zero-duration twins fails the lint
    with no rule of its own: its category left the central table."""
    code = """
    def f(mon, flight, name, step):
        mon.record("step_lost", name, start=0.0, duration=0.0, step=step)
        flight.record("drain_fault", stream=name, step=step)
        flight.record("step.lost", stream=name, step=step)
        mon.record("transport", "rdma.send", start=1.0, duration=0.5)
    """
    findings = lint(code)
    assert [(f.rule, f.line) for f in findings] == [("FXL007", 3), ("FXL007", 4)]
    assert "step.lost" in findings[0].message  # the suggestion is its flight twin


def test_fxl007_reads_the_code_by_keyword_and_each_branch():
    """A conditional of two registered codes is two registered codes,
    not a computed name; a keyword code is read like a positional one."""
    code = """
    def f(flight, ok):
        flight.record(code="made.up")
        flight.record("step.commit" if ok else "step.lost", stream="s")
        flight.record("step.commit" if ok else "step.lsot", stream="s")
    """
    findings = lint(code, config=EVENTS_CFG)
    assert [(f.rule, f.line) for f in findings] == [("FXL007", 3), ("FXL007", 5)]
    assert "step.lost" in findings[1].message


# ---------------------------------------------------------------------------
# FXL008 — removed/legacy step-API spellings
# ---------------------------------------------------------------------------

def test_fxl008_flags_advance_and_positional_selections():
    code = """
    def f(writer, reader, sel, out):
        writer.advance()
        reader.read("temp", sel)
        reader.read("temp", (0, 0), (4, 4))
        reader.read_into("temp", out, sel)
        reader.read_all(["temp"], sel)
    """
    findings = lint(code)
    assert rules_of(findings) == ["FXL008"]
    assert len(findings) == 5
    by_line = {f.line: f.message for f in findings}
    assert "end_step()" in by_line[3]
    assert "selection= keyword" in by_line[4]


def test_fxl008_accepts_new_spellings_and_plain_reads():
    code = """
    def f(writer, reader, fh, sel, out):
        writer.end_step()
        reader._advance()
        reader.read("temp")
        reader.read("temp", selection=sel)
        reader.read("temp", start=(0, 0), count=(4, 4))
        reader.read_into("temp", out, selection=sel)
        reader.read_all(["temp", "rho"], start=(0, 0), count=(2, 2))
        fh.read(1024)   # file-like read: one positional arg is fine
    """
    assert lint(code) == []


def test_fxl008_waiver_with_reason():
    code = """
    def f(bp, name, step, start, count):
        # flexlint: ok(FXL008) step-indexed file API, not the step API
        return bp.read(name, step, start, count)
    """
    findings = lint(code)
    assert [f for f in findings if not f.waived] == []


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

def test_waiver_with_reason_silences_finding():
    code = """
    try:
        g()
    except Exception:  # flexlint: ok(FXL001) teardown must not raise
        pass
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert len(findings) == 1
    assert findings[0].waived
    assert findings[0].waiver_reason == "teardown must not raise"


def test_waiver_on_line_above_applies():
    code = """
    try:
        g()
    # flexlint: ok(FXL001) teardown must not raise
    except Exception:
        pass
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert [f.waived for f in findings] == [True]


def test_waiver_without_reason_does_not_waive():
    code = """
    try:
        g()
    except Exception:  # flexlint: ok(FXL001)
        pass
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert not findings[0].waived
    assert "missing a reason" in findings[0].message


def test_waiver_for_wrong_rule_does_not_waive():
    code = """
    try:
        g()
    except Exception:  # flexlint: ok(FXL003) wrong rule entirely
        pass
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert not findings[0].waived


def test_syntax_error_reports_fxl000():
    findings = lint_source("def broken(:\n", path="x.py")
    assert [f.rule for f in findings] == ["FXL000"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def bad_tree(tmp_path):
    bad = tmp_path / "repro" / "transport" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """
            def f():
                try:
                    g()
                except Exception:
                    pass
            """
        ),
        encoding="utf-8",
    )
    return tmp_path


def test_cli_exits_nonzero_on_bad_fixture(bad_tree):
    out = io.StringIO()
    assert cli.main([str(bad_tree)], out=out) == 1
    assert "FXL001" in out.getvalue()


def test_cli_json_output(bad_tree):
    out = io.StringIO()
    assert cli.main([str(bad_tree), "--json"], out=out) == 1
    findings = json.loads(out.getvalue())
    assert findings and findings[0]["rule"] == "FXL001"


def test_cli_rule_filter(bad_tree):
    out = io.StringIO()
    assert cli.main([str(bad_tree), "--rule", "FXL004"], out=out) == 0


def test_cli_list_rules():
    out = io.StringIO()
    assert cli.main(["--list-rules"], out=out) == 0
    text = out.getvalue()
    rule_ids = {f"FXL{n:03d}" for n in range(1, 17)}
    for rule_id in rule_ids:
        assert rule_id in text
    assert set(RULES) == rule_ids


def test_cli_show_waived(tmp_path):
    waived = tmp_path / "repro" / "transport" / "w.py"
    waived.parent.mkdir(parents=True)
    waived.write_text(
        "try:\n    g()\n"
        "except Exception:  # flexlint: ok(FXL001) fine here\n    pass\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    assert cli.main([str(tmp_path), "--show-waived"], out=out) == 0
    assert "[waived: fine here]" in out.getvalue()


def test_unimportable_and_missing_files_are_fxl000(tmp_path):
    """A non-UTF-8 source is the SyntaxError Python's import raises, and
    a path that cannot be read is reported too — by the engine and the
    CLI alike, never crashed on or passed."""
    bad = tmp_path / "repro" / "transport" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b'x = "\xff\xfe"\n')
    missing = tmp_path / "missing.py"

    findings = lint_paths([str(tmp_path), str(missing)])
    assert [(f.rule, f.path) for f in findings] == [
        ("FXL000", str(missing)), ("FXL000", str(bad)),
    ]
    assert "syntax error" in findings[1].message
    assert "unreadable file" in findings[0].message

    out = io.StringIO()
    assert cli.main([str(tmp_path), str(missing)], out=out) == 1
    text = out.getvalue()
    assert text.count("FXL000") == 2
    assert "flexlint: 2 finding(s)" in text


def test_repo_src_tree_lints_clean():
    """Acceptance: the shipped tree has zero non-waived findings."""
    out = io.StringIO()
    assert cli.main([SRC], out=out) == 0, out.getvalue()


# ---------------------------------------------------------------------------
# FXL009 — exhaustive MsgType dispatch (cross-file)
# ---------------------------------------------------------------------------

PROTOCOL_SRC = """
from enum import Enum

class MsgType(Enum):
    HELLO = 1
    DATA = 2
    NEW_FANCY = 3
"""

SURFACE_SRC = """
from repro.net.protocol import MsgType

def handle(frame):
    if frame.msg_type is MsgType.HELLO:
        return hello()
    if frame.msg_type is MsgType.DATA:
        return data()
"""


def test_fxl009_flags_unhandled_enum_member():
    sources = {
        "repro/net/protocol.py": textwrap.dedent(PROTOCOL_SRC),
        "repro/net/server.py": textwrap.dedent(SURFACE_SRC),
        "repro/net/client.py": textwrap.dedent(SURFACE_SRC),
    }
    findings = project_findings(sources)
    assert findings and {f.rule for f in findings} == {"FXL009"}
    # One finding per surface that misses the member, anchored at the
    # member's definition in the enum file.
    assert len(findings) == 2
    assert all("MsgType.NEW_FANCY" in f.message for f in findings)
    assert all(f.path == "repro/net/protocol.py" for f in findings)
    assert not any("MsgType.HELLO" in f.message for f in findings)


def test_fxl009_clean_when_every_member_dispatched():
    full = textwrap.dedent(SURFACE_SRC) + (
        "    if frame.msg_type is MsgType.NEW_FANCY:\n        return fancy()\n"
    )
    sources = {
        "repro/net/protocol.py": textwrap.dedent(PROTOCOL_SRC),
        "repro/net/server.py": full,
        "repro/net/client.py": full,
    }
    assert project_findings(sources) == []


# ---------------------------------------------------------------------------
# FXL010 — blocking calls in async network-plane bodies
# ---------------------------------------------------------------------------

def test_fxl010_flags_direct_blocking_call():
    code = """
    import time

    async def pump(self):
        time.sleep(1.0)
    """
    findings = lint(code, path="repro/net/fixture.py")
    assert rules_of(findings) == ["FXL010"]


def test_fxl010_flags_transitive_blocking_through_sync_helper():
    code = """
    import os

    class Daemon:
        def save(self):
            os.replace("a", "b")

        async def loop(self):
            self.save()
    """
    findings = lint(code, path="repro/net/fixture.py")
    assert rules_of(findings) == ["FXL010"]
    assert "save" in findings[0].message  # the chain is named


def test_fxl010_scoped_to_net_and_sync_callers_allowed():
    blocking_sync = """
    import time

    def pump():
        time.sleep(1.0)
    """
    assert lint(blocking_sync, path="repro/net/fixture.py") == []
    async_elsewhere = """
    import time

    async def pump():
        time.sleep(1.0)
    """
    assert lint(async_elsewhere, path="repro/apps/fixture.py") == []


CALLBACK_DAEMON = """
import asyncio
import time

class _Conn(asyncio.BufferedProtocol):
    def __init__(self, daemon, handler):
        self.daemon, self.handler = daemon, handler

    def buffer_updated(self, nbytes):
        self.handler(self, nbytes)

class Daemon:
    async def bind(self, loop):
        await loop.create_server(lambda: _Conn(self, self._hello), "", 0)

    def _hello(self, conn, raw):
        conn.handler = self._publish

    def _publish(self, conn, raw):
        self._ack(conn)

    def _ack(self, conn):
        {ack}

    def _persist(self):
        time.sleep(1.0)

    def _later(self, loop):
        loop.run_in_executor(None, self._persist)

def main():
    time.sleep(1.0)
"""


def test_fxl010_flags_a_time_sleep_in_a_connection_handler():
    """The loop runs a connection's handlers as protocol callbacks, not
    coroutines: a handler reached from ``buffer_updated`` — through the
    state it stores — is held to the async rule."""
    code = CALLBACK_DAEMON.format(ack="time.sleep(0.05)")
    findings = lint(code, path="repro/net/fixture.py")
    assert rules_of(findings) == ["FXL010"]
    assert "_ack()" in findings[0].message and "event loop" in findings[0].message


def test_fxl010_callbacks_may_hand_blocking_work_off_the_loop():
    # ``_persist`` runs on an executor and ``main`` on no loop: both clean.
    code = CALLBACK_DAEMON.format(ack="conn.transport.write(b'ok')")
    assert lint(code, path="repro/net/fixture.py") == []
    direct = """
    import asyncio
    import time

    class _Conn(asyncio.Protocol):
        def data_received(self, data):
            time.sleep(0.01)
    """
    assert rules_of(lint(direct, path="repro/net/fixture.py")) == ["FXL010"]


def test_fxl010_executor_handoff_is_clean():
    code = """
    import asyncio

    class Daemon:
        def _write(self):
            pass

        async def flush(self):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._write)
    """
    assert lint(code, path="repro/net/fixture.py") == []


# ---------------------------------------------------------------------------
# FXL011 — sync lock held across await
# ---------------------------------------------------------------------------

def test_fxl011_flags_sync_with_lock_across_await():
    code = """
    async def f(self):
        with self._lock:
            await self.flush()
    """
    findings = lint(code, path="repro/net/fixture.py")
    assert rules_of(findings) == ["FXL011"]


def test_fxl011_flags_manual_acquire_across_await():
    code = """
    async def f(self):
        self._lock.acquire()
        await self.flush()
        self._lock.release()
    """
    findings = lint(code, path="repro/net/fixture.py")
    # The blocking .acquire() itself also trips FXL010 — both defects
    # are real in this shape.
    assert rules_of(findings) == ["FXL010", "FXL011"]


def test_fxl011_accepts_async_lock_and_release_before_await():
    async_lock = """
    async def f(self):
        async with self._lock:
            await self.flush()
    """
    assert lint(async_lock, path="repro/net/fixture.py") == []
    released_first = """
    async def f(self):
        with self._lock:
            x = 1
        await self.flush(x)
    """
    assert lint(released_first, path="repro/net/fixture.py") == []


# ---------------------------------------------------------------------------
# FXL012 — lease must reach release/transfer on every path
# ---------------------------------------------------------------------------

def test_fxl012_flags_leak_on_exception_path():
    code = """
    def f(pool):
        lease = pool.lease(100)
        fill(lease.data)
        lease.release()
    """
    findings = lint(code, path=TRANSPORT_PATH)
    assert rules_of(findings) == ["FXL012"]
    assert "lease" in findings[0].message


def test_fxl012_attribute_use_is_not_a_transfer():
    # parse(channel.recv()) must NOT count as handing the channel off —
    # this is exactly the shape of a leak the client's ATTACH once had.
    code = """
    def f(host, port):
        channel = TcpChannel.connect(host, port)
        frame = parse(channel.recv())
        return channel
    """
    findings = lint(code, path="repro/net/fixture.py")
    assert rules_of(findings) == ["FXL012"]


def test_fxl012_accepts_try_finally_release():
    code = """
    def f(pool):
        lease = pool.lease(100)
        try:
            fill(lease.data)
        finally:
            lease.release()
    """
    assert lint(code, path=TRANSPORT_PATH) == []


def test_fxl012_accepts_ownership_transfer_and_guarded_cleanup():
    transfer = """
    def f(pool):
        lease = pool.lease(100)
        return WireBuffer.from_lease(lease, 100)
    """
    assert lint(transfer, path=TRANSPORT_PATH) == []
    guarded = """
    def f(pool):
        lease = pool.lease(100)
        try:
            fill(lease.data)
        except ValueError:
            lease.release()
            raise
        lease.release()
    """
    assert lint(guarded, path=TRANSPORT_PATH) == []


def test_fxl012_scope_excludes_other_trees():
    code = """
    def f(pool):
        lease = pool.lease(100)
        fill(lease.data)
    """
    assert lint(code, path="repro/apps/fixture.py") == []


# ---------------------------------------------------------------------------
# FXL013 — metric names come from the registered table
# ---------------------------------------------------------------------------

def test_fxl013_flags_unregistered_and_dynamic_names():
    code = """
    def f(m, kind):
        m.counter("no.such.metric").inc()
        m.gauge(f"ad.hoc.{kind}").set(1)
    """
    findings = lint(code)
    assert rules_of(findings) == ["FXL013"]
    assert len(findings) == 2


def test_fxl013_accepts_registered_names_families_and_nonstrings():
    code = """
    import numpy as np

    def f(m, data, path):
        m.counter("faults.injected.total").inc()
        m.histogram("transport.copies").observe(1.0)
        m.counter(metric_name("transport.path", path)).inc()
        np.histogram(data, bins=10)
    """
    assert lint(code) == []


def test_fxl013_reads_the_name_by_keyword():
    code = """
    def f(m, x):
        m.counter(name="no.such")
        m.gauge(name="faults.injected.total" if x else "no.such.gauge")
    """
    findings = lint(code)
    assert [(f.rule, f.line) for f in findings] == [("FXL013", 3), ("FXL013", 4)]


# ---------------------------------------------------------------------------
# FXL014 — kernels are invoked only by the plug-in runtime / executor
# ---------------------------------------------------------------------------

def test_fxl014_flags_direct_kernel_calls_outside_executor():
    code = """
    def f(plugin, kernel, arr, record):
        out = kernel.fn(arr)
        mask = kernel.mask_fn(arr)
        result = plugin._func(record)
        return out, mask, result
    """
    findings = lint(code, path="repro/apps/fixture.py")
    assert rules_of(findings) == ["FXL014"]
    assert len(findings) == 3


def test_fxl014_allows_the_plugin_runtime_and_executor():
    code = """
    def f(kernel, arr, record, plugin):
        arr = arr[kernel.mask_fn(arr)]
        arr = kernel.fn(arr)
        return plugin._func(record)
    """
    assert lint(code, path="repro/core/plugins.py") == []
    assert lint(code, path="repro/core/redistribution.py") == []


def test_fxl014_accepts_chain_cursor_and_apply_surfaces():
    code = """
    def f(manager, chain, side, record, arr):
        out = manager.apply_side(side, record)
        cursor = chain.cursor("temp")
        got = cursor.apply_block(arr)
        return out, got
    """
    assert lint(code, path="repro/apps/fixture.py") == []


def test_fxl014_waivable_with_reason():
    code = """
    def f(kernel, arr):
        return kernel.fn(arr)  # flexlint: ok(FXL014) bench calls the raw kernel on purpose
    """
    findings = lint(code, path="repro/apps/fixture.py")
    assert [f.rule for f in findings] == ["FXL014"]
    assert findings[0].waived


# ---------------------------------------------------------------------------
# FXL015 — state and resources with one owner
# ---------------------------------------------------------------------------

def test_fxl015_flags_rank_set_writes_and_a_chain_built_outside_a_run():
    """The spellings the tree once used, each caught; a step store's
    ``ended`` is not a barrier's."""
    code = """
    stream.barrier.joined = set(owners)
    self.barrier.ended.clear()
    barrier.closed.add(rank)
    self.plugins = PluginManager(monitor)
    store.ended = 3
    """
    findings = lint(code, path="repro/core/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL015", n) for n in (2, 3, 4, 5)]


def test_fxl015_allows_each_owner_its_own_scope():
    barrier = """
    class StepBarrier:
        def join(self, rank):
            self.joined.add(rank)

    class FileRun:
        def restore(self, ranks):
            self.barrier.joined |= ranks
    """
    assert [f.line for f in lint(barrier, path="repro/adios/api.py")] == [8]
    chain = """
    class HostedStream:
        def __init__(self):
            super().__init__(PluginManager(PerfMonitor()))
    """
    assert lint(chain, path="repro/net/server.py") == []
    # The per-handle chain the net client once built: each handle its own.
    per_handle = """
    class NetReadHandle:
        def __init__(self, link):
            self.plugins = PluginManager(link.client.monitor)
    """
    assert rules_of(lint(per_handle, path="repro/net/client.py")) == ["FXL015"]


def test_fxl015_keeps_the_step_barrier_protocol_and_the_chain_in_run():
    """A fourth run cannot write the barrier protocol out again, nor run
    a writer-side chain of its own: both belong to ``adios/api.py``'s
    ``Run`` and ``condition``."""
    code = """
    class Run:
        def end_rank_step(self, rank):
            if self.barrier.end(rank):
                self._seal_open()

    def condition(plugins, blocks):
        return plugins.condition(blocks)

    class FourthRun:
        def join(self, rank):
            self.barrier.join(rank)

        def writer_close(self, rank):
            if self.barrier.close(rank, pending=False):
                self.barrier.fail()
            blocks = self.plugins.condition(self.blocks)
    """
    assert [f.line for f in lint(code, path="repro/adios/api.py")] == [12, 15, 16, 17]
    findings = lint(code, path="repro/net/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("FXL015", n) for n in (4, 8, 12, 15, 16, 17)]
    assert "one rule" in findings[0].message


def test_fxl015_keeps_the_lease_deadline_in_run():
    """A daemon that pushes a run's deadline on by hand is a finding: the
    lease lapses by ``Run``'s rule on both planes, or not at all."""
    code = """
    class Run:
        def beat(self):
            self.deadline = self.clock() + self.lease

    class DirectoryDaemon:
        def _heartbeat(self, stream):
            stream.deadline = self.clock() + stream.lease
            self._deadline = 0.0
    """
    assert [f.line for f in lint(code, path="repro/adios/api.py")] == [8]
    findings = lint(code, path="repro/net/server.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL015", 4), ("FXL015", 8)]
    assert "lease deadline" in findings[1].message


def test_fxl015_flags_shared_memory_and_socket_reads_outside_their_rung():
    code = """
    import mmap, os

    def f(sock, buf):
        fd = os.memfd_create("another-pool")
        view = mmap.mmap(fd, 0)
        return sock.recv_into(buf), view
    """
    findings = lint(code, path="repro/net/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL015", n) for n in (5, 6, 7)]
    assert [f.line for f in lint(code, path="repro/transport/shm.py")] == [7]
    assert [f.line for f in lint(code, path="repro/transport/tcp.py")] == [5, 6]


def test_fxl015_keeps_reference_counts_in_the_read_paths_buffers():
    """A buffer reused once nothing else holds it has one judge of
    "nothing": the read path's; a second one is a finding."""
    code = """
    import sys
    from sys import getrefcount

    def free(bufs, i):
        return sys.getrefcount(bufs[i]) == 2 or getrefcount(bufs[i]) == 2
    """
    findings = lint(code, path="repro/transport/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL015", 6), ("FXL015", 6)]
    assert "reference count" in findings[0].message
    assert lint(code, path="repro/core/reader.py") == []


def test_fxl015_keeps_frame_decoding_in_the_clients_one_exchange():
    """A second decode site in the client — a request answered its own
    way — is a finding; the exchange and the daemon's handler are not."""
    client = """
    def _exchange(channel, parts, timeout, expect, where):
        channel.sendv(parts, timeout=timeout)
        return decode_frame(channel.recv(timeout=timeout))

    class _RunLink:
        def _publish_once(self, parts):
            self._link.channel.sendv(parts)
            return protocol.decode_frame(self._link.channel.recv())
    """
    findings = lint(client, path="repro/net/client.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL015", 9)]
    assert "one exchange" in findings[0].message
    server = """
    def _handler(method):
        def handle(self, conn, raw):
            return method(self, conn, raw, decode_frame(raw))
        return handle
    """
    assert lint(server, path="repro/net/server.py") == []
    assert [f.line for f in lint(server, path="repro/net/fixture.py")] == [4]


# ---------------------------------------------------------------------------
# FXL016 — imports follow the layer table
# ---------------------------------------------------------------------------

def test_fxl016_flags_a_function_local_import_upward():
    code = """
    from repro.adios.bp import BpReader
    from repro.util import ceil_div

    def open_read(name):
        from repro.core.filereader import FileReadHandle
        return FileReadHandle([BpReader(name)])
    """
    findings = lint(code, path="repro/adios/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL016", 6)]
    assert "repro.core" in findings[0].message


def test_fxl016_resolves_package_names_and_typing_imports():
    code = """
    from typing import TYPE_CHECKING
    from repro import net
    from repro import connect
    from repro.obs import sanitize
    import repro.core.api

    if TYPE_CHECKING:
        from repro.analysis.flexlint import Finding
    """
    findings = lint(code, path="src/repro/transport/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [("FXL016", n) for n in (3, 4, 6, 9)]
    assert "imports repro.net," in findings[0].message
    assert "imports repro," in findings[1].message  # the façade
    # tools may import any package; a file outside the package has no layer.
    assert lint(code, path="src/repro/tools/fixture.py") == []
    assert lint(code, path="tests/fixture.py") == []
