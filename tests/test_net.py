"""Network plane tests: frame protocol fuzz, the daemon as a real OS
process, tenancy admission control, and typed transport faults.

Three tiers:

* pure protocol — encode/decode round-trips plus hypothesis fuzz over
  records and over corrupted byte streams (decode never crashes with
  anything but :class:`ProtocolError`);
* in-process daemon — :class:`DirectoryDaemon` started on ephemeral
  ports inside this process: auth failures, quota rejections and the
  reader/writer step exchange, all through real sockets;
* cross-process smoke — ``python -m repro.net.server`` as a separate
  OS process, clients in this one (the two-process acceptance shape).
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adios import BoundingBox, EndOfStream, StepLost, StepStatus, StreamFailure
from repro.core.directory import (
    AdmissionError,
    AdmissionKind,
    AuthFailure,
    DirectoryError,
    QuotaExceeded,
    TenantSpec,
    UnknownTenant,
)
from repro.core.resilience import RetryPolicy
from repro.net.client import (
    NetError,
    RemoteClient,
    RetryAfter,
    _DataLink,
    connect,
    parse_flexio_uri,
    raise_wire_error,
)
from repro.net.protocol import (
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.net.server import DirectoryDaemon, HostedStream, parse_ready_line
from repro.transport.buffers import as_byte_view
from repro.transport.faults import (
    PeerDisconnected,
    SessionLost,
    TransportFault,
    TransportFaultInjector,
)
from repro.transport.tcp import TcpChannel

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(REPO, "src")


# ---------------------------------------------------------------------------
# Protocol round-trips + fuzz
# ---------------------------------------------------------------------------

ROUND_TRIP_CASES = [
    (MsgType.HELLO, {"tenant": "acme", "token": "s3cret", "client": "gts",
                     "resume": ""}),
    (MsgType.WELCOME, {"session": "s-1", "server": "1.0.0", "data_port": 7701,
                       "resume": "deadbeef", "resumed": False,
                       "pool": "/proc/4242/fd/7"}),
    (MsgType.ERROR, {"kind": "streams", "message": "at max_streams=2"}),
    (MsgType.OK, {"detail": "", "stats": True}),
    (MsgType.OPEN, {"stream": "gts.out", "mode": "w", "program": "writer",
                    "rank": 0, "num_ranks": 4, "lease": 0.5}),
    (MsgType.PUBLISH, {"step": 3, "count": 2, "eos": False, "seq": 4}),
    (MsgType.FETCH, {"step": 0, "wait": 1.25}),
    (MsgType.NOT_READY, {"step": 9}),
    (MsgType.EOS, {"step": 4}),
    (MsgType.RETRY_AFTER, {"delay": 0.25, "reason": "draining"}),
    (MsgType.ATTACH, {"session": "s-1", "stream_id": "acme/gts.out", "role": "w",
                      "pushdown": True, "chain": 7, "nonce": "00ff", "rank": 3}),
    (MsgType.GRANT, {"detail": "published", "pool": "/proc/4242/fd/9@3",
                     "offset": 2359296, "capacity": 2359296, "stats": False}),
    (MsgType.PUBLISH_REF, {"step": 3, "count": 2, "eos": False, "seq": 4,
                           "pool": "/proc/4242/fd/9@3", "offset": 0,
                           "nbytes": 2098000}),
    (MsgType.STEP_REF, {"count": 2, "pruned": 5, "pool": "/proc/4242/fd/9@3",
                        "offset": 0, "nbytes": 2098000}),
    (MsgType.STEP_DATA, {"count": 2, "pruned": -1}),
    (MsgType.CHAIN, {"stream": "gts.out", "op": "deploy", "name": "units/zion",
                     "side": "writer", "source": "def condition(vars):\n    return vars\n",
                     "fingerprint": "units:zion:2.5"}),
    (MsgType.CHAIN_REPLY, {"generation": 7, "chain": "[]"}),
]


@pytest.mark.parametrize("msg_type,record", ROUND_TRIP_CASES,
                         ids=[c[0].name for c in ROUND_TRIP_CASES])
def test_frame_round_trip(msg_type, record):
    frame = decode_frame(encode_frame(msg_type, record))
    assert frame.version == PROTOCOL_VERSION
    assert frame.msg_type is msg_type
    assert frame.record == record


def test_var_round_trip_preserves_dtype_and_shape():
    data = np.arange(24, dtype=np.float32).reshape(4, 6)
    rec = {"name": "temp", "writer_rank": 2, "start": [4, 0],
           "shape": [4, 6], "gshape": [8, 6],
           "vmin": 0.0, "vmax": 23.0, "has_stats": True, "data": data}
    wb = np.concatenate([as_byte_view(p) for p in encode_var(rec)])
    got, nxt = decode_var(wb, 0)
    assert nxt == wb.nbytes
    assert got["name"] == "temp" and got["writer_rank"] == 2
    assert got["vmin"] == 0.0 and got["vmax"] == 23.0 and got["has_stats"]
    assert got["data"].dtype == np.float32 and got["data"].shape == (4, 6)
    np.testing.assert_array_equal(got["data"], data)


def test_multipart_publish_frame_walks_by_consumed_offsets():
    head = encode_frame(
        MsgType.PUBLISH, {"step": 0, "count": 2, "eos": True, "seq": 1}
    )
    v1 = encode_var({"name": "a", "writer_rank": 0, "start": [], "shape": [3],
                     "gshape": [], "vmin": 1.0, "vmax": 1.0,
                     "has_stats": True, "data": np.ones(3)})
    v2 = encode_var({"name": "b", "writer_rank": 1, "start": [0], "shape": [2],
                     "gshape": [4], "vmin": 0.0, "vmax": 0.0,
                     "has_stats": True, "data": np.zeros(2, dtype=np.int64)})
    blob = np.concatenate([as_byte_view(p) for p in (head, *v1, *v2)])
    frame = decode_frame(blob)
    assert frame.record["count"] == 2 and frame.record["eos"] is True
    rec1, off = decode_var(blob, frame.consumed)
    rec2, end = decode_var(blob, off)
    assert [rec1["name"], rec2["name"]] == ["a", "b"]
    assert end == blob.nbytes


@settings(max_examples=50, deadline=None)
@given(
    tenant=st.text(max_size=64),
    token=st.text(max_size=64),
    client=st.text(max_size=64),
    resume=st.text(max_size=32),
)
def test_fuzz_hello_record_round_trip(tenant, token, client, resume):
    rec = {"tenant": tenant, "token": token, "client": client, "resume": resume}
    assert decode_frame(encode_frame(MsgType.HELLO, rec)).record == rec


@settings(max_examples=50, deadline=None)
@given(
    step=st.integers(min_value=-2**62, max_value=2**62),
    count=st.integers(min_value=0, max_value=2**31),
    eos=st.booleans(),
    seq=st.integers(min_value=0, max_value=2**31),
)
def test_fuzz_publish_record_round_trip(step, count, eos, seq):
    rec = {"step": step, "count": count, "eos": eos, "seq": seq}
    assert decode_frame(encode_frame(MsgType.PUBLISH, rec)).record == rec


@settings(max_examples=100, deadline=None)
@given(
    payload=st.binary(max_size=256),
    flips=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                   max_size=4),
)
def test_fuzz_corrupted_frames_fail_typed_never_crash(payload, flips):
    """Arbitrary bytes — raw, truncated, or a valid frame with flipped
    bytes — either decode or raise ProtocolError/MarshalError; nothing
    else escapes."""
    base = bytearray(encode_frame(
        MsgType.OPEN,
        {"stream": "s", "mode": "w", "program": "writer",
         "rank": 0, "num_ranks": 1, "lease": 0.0},
    ).as_array().tobytes())
    base[len(base):] = payload
    for pos, val in flips:
        base[pos % len(base)] ^= val
    try:
        decode_frame(bytes(base))
    except ProtocolError:
        pass  # the typed outcome for malformed input
    try:
        decode_frame(payload)
    except ProtocolError:
        pass


def test_version_skew_and_bad_magic_are_protocol_errors():
    good = bytearray(encode_frame(
        MsgType.OK, {"detail": "", "stats": False}).as_array().tobytes())
    skew = bytearray(good)
    skew[4] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError, match="version skew"):
        decode_frame(bytes(skew))
    bad_magic = bytearray(good)
    bad_magic[0] ^= 0xFF
    with pytest.raises(ProtocolError, match="magic"):
        decode_frame(bytes(bad_magic))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_frame(good[: HEADER.size - 1])
    assert MAGIC == 0xF1EC0107  # wire constant: changing it is a protocol bump


def test_parse_flexio_uri():
    u = parse_flexio_uri("flexio://127.0.0.1:7700/acme")
    assert (u.scheme, u.host, u.port, u.tenant) == ("flexio", "127.0.0.1", 7700, "acme")
    assert parse_flexio_uri("flexio://h:1").tenant == "public"
    assert parse_flexio_uri("local://").scheme == "local"
    with pytest.raises(ValueError):
        parse_flexio_uri("http://h:1/t")
    with pytest.raises(ValueError):
        parse_flexio_uri("flexio://hostonly/t")


# ---------------------------------------------------------------------------
# In-process daemon: admission control + step exchange over real sockets
# ---------------------------------------------------------------------------

@pytest.fixture()
def daemon():
    d = DirectoryDaemon(
        tenants=[
            TenantSpec("acme", token="s3cret", max_streams=2),
            TenantSpec("public"),
        ],
        telemetry=False,
        lease_interval=0.05,
    )
    d.start()
    yield d
    d.stop()


def uri(d, tenant="acme"):
    return f"flexio://{d.host}:{d.control_port}/{tenant}"


def test_auth_failure_is_typed(daemon):
    with pytest.raises(AuthFailure):
        connect(uri(daemon), token="wrong")
    with pytest.raises(AuthFailure):
        connect(uri(daemon))  # token required but missing
    with pytest.raises(UnknownTenant):
        connect(uri(daemon, tenant="nobody"), token="s3cret")


def test_quota_rejection_third_stream(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        w1 = c.open("a", "w")
        w2 = c.open("b", "w")
        with pytest.raises(QuotaExceeded, match="max_streams=2") as exc_info:
            c.open("c", "w")
        assert isinstance(exc_info.value, AdmissionError)
        w1.close()
        w2.close()


def test_step_exchange_and_eos_in_process(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("gts.net", "w")
        r = c.open("gts.net", "r", timeout=2.0)
        for step in range(3):
            w.begin_step()
            w.write("zion", np.full((4, 7), float(step)))
            w.end_step()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(
                r.read_block("zion", 0), np.full((4, 7), float(step))
            )
            r.end_step()
        w.close()
        assert r.begin_step(timeout=2.0) is StepStatus.EndOfStream
        r.close()


def test_evicted_steps_are_typed_losses_not_not_ready():
    """A late reader of a stream that outran ``retain_steps`` sees a
    typed gap per evicted step, then the retained tail, then EOS — never
    a NotReady for a step that can no longer arrive."""
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                        retain_steps=2).start()
    try:
        with connect(uri(d, "public")) as c:
            w = c.open("evict", "w")
            for step in range(5):
                w.begin_step()
                w.write("x", np.full(4, float(step)))
                w.end_step()
            w.close()
            r = c.open("evict", "r")
            seen = []
            while (status := r.begin_step(timeout=2.0)) is not StepStatus.EndOfStream:
                assert status is not StepStatus.NotReady
                seen.append((r.current_step, status))
                if status is StepStatus.OK:
                    np.testing.assert_array_equal(
                        r.read_block("x", 0), np.full(4, float(r.current_step)))
                    r.end_step()
            assert seen == [(0, StepStatus.OtherError), (1, StepStatus.OtherError),
                            (2, StepStatus.OtherError), (3, StepStatus.OK),
                            (4, StepStatus.OK)]
            r.close()
    finally:
        d.stop()


def test_lease_expiry_is_stream_failure_not_clean_eos(daemon):
    """A leased writer that stops heartbeating: the reader drains what
    was retained, then gets OtherError (StreamFailure) — not EndOfStream,
    which would claim the writer finished."""
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("leased", "w", lease=0.1)  # no heartbeat thread
        for step in range(2):
            w.begin_step()
            w.write("x", np.full(4, float(step)))
            w.end_step()
        r = c.open("leased", "r")
        for step in range(2):
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read_block("x", 0), np.full(4, float(step)))
            r.end_step()
        deadline = time.monotonic() + 5.0
        while (status := r.begin_step(timeout=0.5)) is StepStatus.NotReady:
            assert time.monotonic() < deadline, "lease never expired"
        assert status is StepStatus.OtherError
        assert r.begin_step(timeout=0.5) is StepStatus.OtherError  # and stays failed
        assert r.current_step == 1  # a failed stream, not a lost step: no advance
        with pytest.raises(StreamFailure, match="lease expired"):
            r._fetch(2)
        r.close()


def test_data_path_reconnect_holds_the_session_lock(daemon, monkeypatch):
    """The heartbeat thread's RPCs share the control socket a data-path
    reattach re-dials, so the re-dial must run under the session lock."""
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("locked", "w")
        free = []

        def probe():
            t = threading.Thread(
                target=lambda: free.append(c._lock.acquire(blocking=False)))
            t.start()
            t.join(timeout=2.0)

        monkeypatch.setattr(c, "_dial", probe)
        w._run._link._recover(1, PeerDisconnected("test"))
        assert free == [False]
        w.close()


#: One request of each kind on session ``c``, writer ``w``, reader ``r``.
REQUESTS = {
    MsgType.HEARTBEAT: lambda c, w, r: c.heartbeat("retry"),
    MsgType.ATTACH: lambda c, w, r: c.open("retry", "r").close(),
    MsgType.PUBLISH: lambda c, w, r: write_step(w, 1.0),
    MsgType.FETCH: lambda c, w, r: r.begin_step(timeout=2.0),
}


@pytest.mark.parametrize("msg_type", sorted(REQUESTS), ids=lambda t: t.name)
def test_a_request_cut_off_once_lands_once_on_a_fresh_socket(daemon, monkeypatch, msg_type):
    """The control RPC, ATTACH, PUBLISH and FETCH run the one exchange
    under the one retry path: a connection lost on the first attempt is
    one reconnect, and the request goes again on a fresh socket.  The
    PUBLISH is cut off after its ack came (the ack is lost): the replay
    is suppressed, not applied twice."""
    from repro.net import client as client_mod

    real, used = client_mod._exchange, []

    def cut_once(channel, parts, *args):
        if parts[0].as_array()[5] != msg_type:
            return real(channel, parts, *args)
        used.append(channel)
        if len(used) == 1:
            if msg_type is MsgType.PUBLISH:
                real(channel, parts, *args)  # applied; its ack is lost below
            raise PeerDisconnected("cut off")
        return real(channel, parts, *args)

    with connect(uri(daemon), token="s3cret") as c:
        w, r = c.open("retry", "w"), c.open("retry", "r")
        write_step(w, 0.0)
        before = counter(c, "net.reconnects")
        monkeypatch.setattr(client_mod, "_exchange", cut_once)
        REQUESTS[msg_type](c, w, r)
        monkeypatch.undo()
        assert counter(c, "net.reconnects") - before == 1
        assert len(used) == 2 and used[1] is not used[0] and used[0]._closed
        if msg_type is MsgType.PUBLISH:
            hosted = hosted_of(daemon, w)
            assert counter(hosted, "net.dup_publishes", tenant="acme") == 1
            assert hosted.store.last == 1
        if msg_type is MsgType.FETCH:
            np.testing.assert_array_equal(r.read_block("x", 0), np.zeros(4))
        w.close()
        r.close()


def test_per_tenant_metrics_labels(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("labeled", "w")
        w.close()
    from repro.obs.live import render_prometheus

    text = render_prometheus({"": daemon.metrics})
    assert 'tenant="acme"' in text


# ---------------------------------------------------------------------------
# Typed transport faults on the TcpChannel rung
# ---------------------------------------------------------------------------

def test_tcp_disconnect_is_typed_transport_fault():
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    host, port = srv.getsockname()

    def accept_and_drop():
        conn, _ = srv.accept()
        conn.close()

    t = threading.Thread(target=accept_and_drop, daemon=True)
    t.start()
    ch = TcpChannel.connect(host, port, timeout=2.0)
    with pytest.raises(PeerDisconnected) as exc_info:
        ch.recv(timeout=2.0)
    assert isinstance(exc_info.value, TransportFault)
    ch.close()
    with pytest.raises(PeerDisconnected):
        ch.recv(timeout=0.1)  # closed channel: still the typed fault
    t.join(timeout=2.0)
    srv.close()


def test_socket_timeout_is_armed_once_not_per_call(daemon, monkeypatch):
    armed = []
    real = socket.socket.settimeout

    def counting(self, value):
        armed.append(value)
        return real(self, value)

    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("timeouts", "w")
        write_step(w, 0.0)  # connect and the first RPC have set what they need
        monkeypatch.setattr(socket.socket, "settimeout", counting)
        for k in range(10):  # 10 PUBLISH RPCs: a send and two receives each
            write_step(w, float(k))
        c.heartbeat("timeouts")
        assert len(armed) <= 2, armed
        monkeypatch.undo()
        # A dead socket is still the typed fault, found by the send itself.
        w._run._link.channel._send_sock.close()
        w.begin_step()
        w.write("x", np.zeros(4))
        with pytest.raises(PeerDisconnected):
            w._run._publish_once(0, {"step": 11, "eos": False, "seq": 12})
        w._closed = True
        c._hb_streams.clear()


# ---------------------------------------------------------------------------
# Two real OS processes: the daemon via `python -m repro.net.server`
# ---------------------------------------------------------------------------

@pytest.fixture()
def daemon_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.server",
         "--tenant", "acme,token=s3cret,max_streams=2", "--no-telemetry"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO,
    )
    try:
        host, port, _ = parse_ready_line(proc.stdout.readline())
        yield proc, host, port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def test_two_process_smoke(daemon_process):
    """Writer and reader in this process, the daemon in its own OS
    process: multi-step exchange, quota enforcement, typed EOS."""
    proc, host, port = daemon_process
    full = np.arange(64.0).reshape(8, 8)
    with connect(f"flexio://{host}:{port}/acme", token="s3cret") as c:
        assert isinstance(c, RemoteClient)
        w = c.open("gts.2proc", "w")
        r = c.open("gts.2proc", "r", timeout=2.0)
        for step in range(2):
            w.begin_step()
            w.write("temp", full + step,
                    box=BoundingBox((0, 0), (8, 8)), global_shape=(8, 8))
            w.end_step()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read("temp"), full + step)
            sub = r.read("temp", start=(2, 1), count=(3, 4))
            np.testing.assert_array_equal(sub, (full + step)[2:5, 1:5])
            r.end_step()
        # Second stream fits the quota; a third does not.
        w2 = c.open("aux.2proc", "w")
        with pytest.raises(QuotaExceeded):
            c.open("overflow.2proc", "w")
        w2.close()
        w.close()
        assert r.begin_step(timeout=2.0) is StepStatus.EndOfStream
        r.close()
    assert proc.poll() is None  # daemon survived the whole session


def test_two_process_daemon_death_surfaces_as_typed_fault(daemon_process):
    proc, host, port = daemon_process
    c = connect(f"flexio://{host}:{port}/acme", token="s3cret")
    w = c.open("doomed", "w")
    proc.terminate()
    proc.wait(timeout=5)
    w.begin_step()
    w.write("x", np.zeros(4))
    with pytest.raises(TransportFault):
        w.end_step()
    with pytest.raises((TransportFault, OSError)):
        c.open("another", "w")


def test_parse_ready_line_round_trip_and_malformed():
    line = "FLEXIO-DAEMON READY control=127.0.0.1:7700 data=127.0.0.1:7701 telemetry=-\n"
    assert parse_ready_line(line) == ("127.0.0.1", 7700, 7701)
    for bad in ("", "Traceback (most recent call last):",
                "FLEXIO-DAEMON READY control=127.0.0.1 data=x:1 telemetry=-",
                "FLEXIO-DAEMON READY control=h:1 telemetry=-",
                "FLEXIO-DAEMON READY control=h:http data=h:2"):
        with pytest.raises(ValueError, match="malformed daemon READY line") as e:
            parse_ready_line(bad)
        assert repr(bad) in str(e.value)  # the line itself is in the message


def test_top_level_connect_reexport():
    assert repro.connect is not None
    with pytest.raises(ValueError):
        repro.connect("ftp://nope")
    with pytest.raises(ValueError, match="repro.connect"):
        connect("local://")  # the in-process service has one front door


# ---------------------------------------------------------------------------
# URI hardening: rejections are always ValueError, never parsing artifacts
# ---------------------------------------------------------------------------

def test_parse_flexio_uri_hardening():
    # Userinfo is refused: authentication travels in the HELLO token.
    with pytest.raises(ValueError, match="token"):
        parse_flexio_uri("flexio://user:pw@h:1/t")
    with pytest.raises(ValueError, match="token"):
        parse_flexio_uri("flexio://user@h:1/t")
    # Non-numeric / out-of-range ports report the offending URI.
    with pytest.raises(ValueError, match="port"):
        parse_flexio_uri("flexio://h:notaport/t")
    with pytest.raises(ValueError):
        parse_flexio_uri("flexio://h:99999999/t")
    # Trailing slash after the tenant is tolerated.
    assert parse_flexio_uri("flexio://h:1/t/").tenant == "t"
    assert parse_flexio_uri("flexio://h:1/").tenant == "public"
    # Multi-segment tenants are refused.
    with pytest.raises(ValueError, match="segment"):
        parse_flexio_uri("flexio://h:1/a/b")
    # local:// ignores host/params entirely.
    assert parse_flexio_uri("local://?fanout=2").scheme == "local"
    assert parse_flexio_uri("local://anything/x").scheme == "local"


@settings(max_examples=60, deadline=None)
@given(
    host=st.sampled_from(["h", "127.0.0.1", "daemon.example.org"]),
    port=st.integers(1, 65535),
    tenant=st.text(alphabet="abcdefgh0123456789", max_size=12),
    slash=st.booleans(),
)
def test_fuzz_parse_flexio_uri_round_trip(host, port, tenant, slash):
    uri = f"flexio://{host}:{port}/{tenant}" + ("/" if slash else "")
    u = parse_flexio_uri(uri)
    assert (u.scheme, u.host, u.port) == ("flexio", host, port)
    assert u.tenant == (tenant or "public")


# ---------------------------------------------------------------------------
# Wire-error round-trip: every AdmissionKind survives the ERROR frame hop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(AdmissionKind))
def test_raise_wire_error_round_trips_every_admission_kind(kind):
    frame = decode_frame(encode_frame(
        MsgType.ERROR, {"kind": kind.value, "message": f"denied: {kind.value}"}
    ))
    with pytest.raises(AdmissionError) as exc_info:
        raise_wire_error(frame)
    assert exc_info.value.kind is kind
    assert kind.value in str(exc_info.value)


def test_raise_wire_error_step_outcomes_are_the_in_process_types():
    for kind, exc_type in (("step_lost", StepLost), ("stream_failed", StreamFailure)):
        frame = decode_frame(encode_frame(
            MsgType.ERROR, {"kind": kind, "message": f"typed: {kind}"}
        ))
        with pytest.raises(exc_type, match=f"typed: {kind}"):
            raise_wire_error(frame)


def test_raise_wire_error_non_admission_kinds():
    frame = decode_frame(encode_frame(
        MsgType.ERROR, {"kind": "protocol", "message": "bad frame"}
    ))
    with pytest.raises(ProtocolError, match="bad frame"):
        raise_wire_error(frame)
    frame = decode_frame(encode_frame(
        MsgType.ERROR, {"kind": "weird", "message": "novel failure"}
    ))
    with pytest.raises(NetError) as exc_info:
        raise_wire_error(frame)
    assert exc_info.value.error_kind == "weird"
    assert exc_info.value.kind is None  # TransportFault's FaultKind slot, not the wire kind
    frame = decode_frame(encode_frame(
        MsgType.RETRY_AFTER, {"delay": 0.5, "reason": "draining"}
    ))
    with pytest.raises(RetryAfter) as exc_info:
        raise_wire_error(frame)
    assert exc_info.value.delay == 0.5
    assert exc_info.value.reason == "draining"


# ---------------------------------------------------------------------------
# Fault tolerance: resume, dedup, drain, checkpoint/restore, heartbeats
# ---------------------------------------------------------------------------

def test_session_resumes_across_control_socket_loss(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        sid, rtok = c.session_id, c.resume_token
        assert rtok and not c.resumed
        # Tear the control socket out from under the client: the next
        # RPC must reconnect, re-HELLO with the resume token, and land
        # in the SAME server-side session (stream quota state intact).
        c._control.close()
        w = c.open("after-loss", "w")
        assert c.session_id == sid
        assert c.resumed
        assert c.monitor.metrics.counter("net.reconnects").value >= 1
        assert c.monitor.metrics.counter("net.resume").value >= 1
        w.begin_step()
        w.write("v", np.ones((2, 2)))
        w.end_step()
        w.close()


def test_attach_at_open_runs_under_the_reconnect_schedule(daemon):
    """One frame fault on the very first ATTACH is retried like every
    later re-ATTACH is — not a typed abandon at open."""
    faults = TransportFaultInjector(fail_ops=[1])  # op 1 = the ATTACH frame
    with connect(uri(daemon), token="s3cret", faults=faults) as c:
        w = c.open("attach.retry", "w")
        assert faults.faults_injected == 1
        assert c.monitor.metrics.counter("net.reconnects").value >= 1
        w.begin_step()
        w.write("v", np.ones(3))
        w.end_step()
        w.close()


def test_duplicate_publish_suppressed_by_sequence():
    hs = HostedStream("acme", "dup")
    assert hs.publish(0, 1, b"payload", False, seq=1) is True
    # A republished frame (lost ack) with the same seq is acknowledged
    # but not re-applied.
    assert hs.publish(0, 1, b"payload", False, seq=1) is False
    assert hs.publish(1, 1, b"payload2", False, seq=2) is True
    assert hs.publish(1, 1, b"payload2", False, seq=1) is False
    # Each writer rank's connection has a sequence of its own.
    assert hs.publish(2, 1, b"payload3", False, seq=1, rank=1) is True
    assert hs.store.last == 2
    assert hs.last_seq == {0: 2, 1: 1}


def test_drain_refuses_new_sessions_with_retry_after(daemon):
    daemon.drain(0.01)
    fast = RetryPolicy(max_retries=1, timeout=0.01)
    with pytest.raises(SessionLost, match="draining"):
        connect(uri(daemon), token="s3cret", retry=fast)


def test_checkpoint_restore_round_trip(daemon, tmp_path):
    blocks = [np.full((3, 3), float(s)) for s in range(3)]
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("ckpt.gts", "w")
        for s, block in enumerate(blocks):
            w.begin_step()
            w.write("v", block)
            w.end_step()
        path = daemon.checkpoint(str(tmp_path / "daemon.ckpt"))

    d2 = DirectoryDaemon(
        tenants=[TenantSpec("acme", token="s3cret", max_streams=2)],
        telemetry=False, lease_interval=0.05,
    )
    d2.restore(path)
    d2.start()
    try:
        with connect(uri(d2), token="s3cret") as c2:
            r = c2.open("ckpt.gts", "r", timeout=2.0)
            for block in blocks:
                assert r.begin_step(timeout=2.0) is StepStatus.OK
                np.testing.assert_array_equal(r.read_block("v", 0), block)
                r.end_step()
            # No EOS was published before the checkpoint: the restored
            # stream is still open, not ended.
            assert r.begin_step(timeout=0.2) is StepStatus.NotReady
            r.close()
    finally:
        d2.stop()


@pytest.mark.parametrize("rank0_closes", [False, True])
def test_checkpoint_mid_step_restores_the_open_step(tmp_path, rank0_closes):
    """Checkpoint v3 carries the run's open step with its barrier: rank 0
    has published the step (and, closing, left the run) and rank 1 has
    not.  In a fresh daemon rank 1's publish seals one step holding both
    runs in rank order, and the closed rank stays refused."""
    tenants = [TenantSpec("acme")]
    d = DirectoryDaemon(tenants=tenants, telemetry=False)
    hs = d._streams["acme/mid"] = HostedStream("acme", "mid")
    for rank in (0, 1):
        hs.join(rank, "s1")
    assert hs.publish(0, 1, b"rank0", rank0_closes, seq=1, rank=0)
    assert hs.store.last == -1 and len(hs.open_step) == 1  # the step is open
    path = d.checkpoint(str(tmp_path / "mid.ckpt"))

    d2 = DirectoryDaemon(tenants=tenants, telemetry=False)
    d2.restore(path)
    restored = d2._streams["acme/mid"]
    assert restored.store.last == -1
    assert restored.publish(0, 1, b"rank1", False, seq=1, rank=1)
    assert restored.store.last == 0
    assert restored.fetch(0) == (2, (b"rank0", b"rank1"), False)
    if rank0_closes:
        with pytest.raises(DirectoryError, match="already open"):
            restored.join(0, "s1")
    else:
        restored.join(0, "s1")  # its OPEN retried: still its session's


def test_a_restored_run_keeps_its_chain(tmp_path):
    """Checkpoint v5 carries the run's chain and its generation: restored
    into a fresh daemon on the same ports, the writer's next step is
    conditioned by the writer-side codelet (its PUBLISH says the restored
    generation), and a reader on a new session reads it through the
    reader-side one."""
    from repro.core.plugins import PluginSide, sampling_plugin, unit_conversion_plugin

    a = np.arange(24.0).reshape(8, 3)

    def put(w, k):
        w.begin_step()
        w.write("a", a + k, box=BoundingBox((0, 0), (8, 3)), global_shape=(8, 3))
        w.end_step()

    def read(c, name):
        r = c.open(name, "r", timeout=2.0)
        steps = []
        while r.begin_step(timeout=2.0) is StepStatus.OK:
            steps.append(r.read("a"))
            r.end_step()
        r.close()
        return steps

    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    try:
        c = connect(uri(d, "public"))
        w = c.open("ckpt.chain", "w")
        w.plugins.deploy(unit_conversion_plugin("a", 2.0), PluginSide.WRITER)
        w.plugins.deploy(sampling_plugin(2), PluginSide.READER)
        put(w, 0.0)
        hosted = d._streams["public/ckpt.chain"]
        specs, generation = [p.spec() for p in hosted.plugins.plugins()], hosted.plugins.generation
        path = d.checkpoint(str(tmp_path / "chain.ckpt"))
    finally:
        d.stop()
    d2 = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                         control_port=d.control_port, data_port=d.data_port)
    d2.restore(path)
    d2.start()
    try:
        restored = d2._streams["public/ckpt.chain"].plugins
        assert [p.spec() for p in restored.plugins()] == specs
        assert restored.generation == generation
        put(w, 1.0)  # resumes: published under the restored generation
        w.close()
        c.close()
        with connect(uri(d2, "public")) as c2:
            got = read(c2, "ckpt.chain")
        assert [g.tobytes() for g in got] == [((a + k) * 2.0)[::2].tobytes() for k in (0, 1)]
    finally:
        d2.stop()


def test_checkpoint_from_another_thread_walks_state_on_the_loop(daemon, tmp_path,
                                                                monkeypatch):
    """The SIGTERM path checkpoints from the main thread while the loop
    still serves: the state walk must run on the loop, which alone
    mutates sessions and registrations."""
    walkers, walk = [], DirectoryDaemon._checkpoint_blob

    def recording_walk(self):
        walkers.append(threading.current_thread())
        return walk(self)

    monkeypatch.setattr(DirectoryDaemon, "_checkpoint_blob", recording_walk)
    with connect(uri(daemon), token="s3cret") as c:
        c.open("ckpt.walk", "w")
        path = daemon.checkpoint(str(tmp_path / "walk.ckpt"))
    assert walkers == [daemon._thread]
    assert os.path.getsize(path) > 0


def test_restored_failed_stream_says_why(tmp_path):
    """The checkpoint carries the step store whole, failure reason
    included: a stream whose lease expired before the checkpoint still
    answers ``stream_failed`` past its retained steps after a restore —
    not NOT_READY for ever."""
    now = [0.0]
    tenants = [TenantSpec("public")]
    d = DirectoryDaemon(tenants=tenants, telemetry=False, lease_interval=0.02,
                        clock=lambda: now[0]).start()
    try:
        with connect(uri(d, "public")) as c:
            w = c.open("ckpt.failed", "w", lease=5.0)  # no heartbeat thread
            for step in range(2):
                w.begin_step()
                w.write("x", np.full(4, float(step)))
                w.end_step()
            now[0] += 10.0  # the writer went silent past its lease
            hosted = d._streams["public/ckpt.failed"]
            deadline = time.monotonic() + 5.0
            while hosted.error is None:
                assert time.monotonic() < deadline, "lease never expired"
                time.sleep(0.01)
            path = d.checkpoint(str(tmp_path / "failed.ckpt"))
            w.close()
    finally:
        d.stop()

    d2 = DirectoryDaemon(tenants=tenants, telemetry=False)
    d2.restore(path)
    d2.start()
    try:
        restored = d2._streams["public/ckpt.failed"]
        assert restored.closed and "lease expired" in restored.error
        with connect(uri(d2, "public")) as c2:
            r = c2.open("ckpt.failed", "r", timeout=2.0)
            for step in range(2):
                assert r.begin_step(timeout=2.0) is StepStatus.OK
                np.testing.assert_array_equal(
                    r.read_block("x", 0), np.full(4, float(step)))
                r.end_step()
            assert r.begin_step(timeout=0.5) is StepStatus.OtherError
            with pytest.raises(StreamFailure, match="lease expired"):
                r._fetch(2)
            r.close()
    finally:
        d2.stop()


def until(cond, what, within=5.0):
    """Block until ``cond()`` holds: the daemon's reap tick runs on its loop."""
    deadline = time.monotonic() + within
    while not cond():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def leased_daemon(now, *tenants):
    """A started daemon whose leases run on ``now[0]``, reaped every 20 ms."""
    return DirectoryDaemon(tenants=list(tenants) or [TenantSpec("public")],
                           telemetry=False, lease_interval=0.02,
                           clock=lambda: now[0]).start()


def test_lease_eviction_sets_the_tenant_streams_gauge():
    now = [0.0]
    d = leased_daemon(now)
    gauge = d.metrics.gauge("tenant.streams", labels={"tenant": "public"})
    try:
        with connect(uri(d, "public")) as c:
            w = c.open("gauge.lease", "w", lease=5.0)  # no heartbeat thread
            write_step(w, 0)
            assert gauge.value == 1
            now[0] += 10.0
            hosted = d._streams["public/gauge.lease"]
            until(lambda: hosted.error is not None, "lease never expired")
            until(lambda: gauge.value == 0, f"gauge still {gauge.value} after the reap")
            w.close()
    finally:
        d.stop()


def test_max_leases_counts_the_live_leased_runs():
    """A second leased writer is over ``max_leases=1``; an unleased one is
    not; the second is admitted once the first is evicted."""
    now = [0.0]
    d = leased_daemon(now, TenantSpec("public", max_leases=1))
    try:
        with connect(uri(d, "public")) as c:
            first = c.open("lease.a", "w", lease=5.0)
            with pytest.raises(QuotaExceeded, match="max_leases=1") as exc_info:
                c.open("lease.b", "w", lease=5.0)
            assert exc_info.value.kind is AdmissionKind.LEASE_QUOTA
            unleased = c.open("lease.free", "w")
            now[0] += 10.0
            hosted = d._streams["public/lease.a"]
            until(lambda: hosted.error is not None, "lease never expired")
            second = c.open("lease.b", "w", lease=5.0)
            for w in (first, unleased, second):
                w.close()
    finally:
        d.stop()


def test_a_restored_lease_keeps_its_remaining_time(tmp_path):
    """Checkpointed 3 s into a 5 s lease, a stream restored into a daemon
    whose clock starts at 0 is live at 1.9 s and failed at 2.1 s."""
    now = [0.0]
    d = leased_daemon(now)
    try:
        with connect(uri(d, "public")) as c:
            w = c.open("ckpt.lease", "w", lease=5.0)  # no heartbeat thread
            write_step(w, 0)
            now[0] += 3.0
            path = d.checkpoint(str(tmp_path / "lease.ckpt"))
            w.close()
    finally:
        d.stop()

    later = [0.0]
    d2 = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                         lease_interval=0.02, clock=lambda: later[0])
    d2.restore(path)
    d2.start()
    try:
        restored = d2._streams["public/ckpt.lease"]
        later[0] = 1.9
        time.sleep(0.1)  # five reap ticks
        assert not restored.closed
        later[0] = 2.1
        until(lambda: restored.closed, "restored lease never expired")
        assert "lease expired" in restored.error
    finally:
        d2.stop()


def test_heartbeat_tick_counts_open_streams(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        assert c.heartbeat_tick() == 0  # nothing open yet
        w = c.open("hb.w", "w")
        r = c.open("hb.w", "r", timeout=2.0)
        assert c.heartbeat_tick() == 1  # writer+reader share one name
        assert c.monitor.metrics.counter("net.heartbeats").value == 1
        w.close()
        r.close()
        assert c.heartbeat_tick() == 0  # close() deregisters the beat


def test_heartbeat_thread_lifecycle(daemon):
    c = connect(uri(daemon), token="s3cret", heartbeat_interval=0.02)
    try:
        w = c.open("hb.bg", "w", lease=5.0)
        deadline = time.monotonic() + 2.0
        while (c.monitor.metrics.counter("net.heartbeats").value == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert c.monitor.metrics.counter("net.heartbeats").value >= 1
        w.close()
    finally:
        c.close()
    assert c._hb_thread is None  # joined on close


# ---------------------------------------------------------------------------
# Regressions surfaced by FlexLint v2 (FXL010 / FXL012)
# ---------------------------------------------------------------------------

def test_checkpoint_async_runs_off_loop_and_round_trips(daemon, tmp_path):
    """The coroutine checkpoint path (blob on the loop, file I/O on the
    one-thread executor) must produce the same restorable file as the
    sync path."""
    import asyncio as _asyncio

    block = np.full((2, 2), 7.0)
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("async.ckpt", "w")
        w.begin_step()
        w.write("v", block)
        w.end_step()
        target = str(tmp_path / "async.ckpt")
        fut = _asyncio.run_coroutine_threadsafe(
            daemon.checkpoint_async(target), daemon._loop
        )
        assert fut.result(timeout=5.0) == target
        w.close()
    assert daemon.metrics.counter("net.checkpoints").value >= 1

    d2 = DirectoryDaemon(
        tenants=[TenantSpec("acme", token="s3cret", max_streams=2)],
        telemetry=False, lease_interval=0.05,
    )
    d2.restore(target)
    d2.start()
    try:
        with connect(uri(d2), token="s3cret") as c2:
            r = c2.open("async.ckpt", "r", timeout=2.0)
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read_block("v", 0), block)
            r.end_step()
            r.close()
    finally:
        d2.stop()


def test_checkpoint_sync_publish_acks_after_durable_write(tmp_path):
    """checkpoint_sync=True acks a PUBLISH only after the checkpoint
    lands — via the async path, so other sessions are not stalled."""
    path = str(tmp_path / "sync.ckpt")
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False,
        lease_interval=0.05, checkpoint_path=path, checkpoint_sync=True,
    )
    d.start()
    try:
        with connect(uri(d, tenant="public")) as c:
            w = c.open("durable", "w")
            w.begin_step()
            w.write("v", np.ones((2, 2)))
            w.end_step()  # ack implies the checkpoint file exists
            assert os.path.exists(path)
            w.close()
    finally:
        d.stop()


def test_attach_failure_closes_fresh_data_channel(daemon, monkeypatch):
    """A half-attached data socket must be closed, not leaked, when the
    ATTACH exchange dies mid-flight (the pre-fix code left it open)."""
    from repro.net import client as client_mod

    with connect(uri(daemon), token="s3cret") as c:
        class StubChannel:
            def __init__(self):
                self.closed = False

            def sendv(self, frames, timeout=None):
                raise TransportFault("injected mid-attach failure")

            def close(self):
                self.closed = True

        stub = StubChannel()

        class StubFactory:
            @staticmethod
            def connect(*args, **kwargs):
                return stub

        monkeypatch.setattr(client_mod, "TcpChannel", StubFactory)
        with pytest.raises(TransportFault):
            client_mod._DataLink(c, "nonexistent-stream", "w")
        assert stub.closed


def test_tcp_connect_closes_socket_when_setsockopt_fails(monkeypatch):
    """TcpChannel.connect must not leak the descriptor if the fresh
    socket dies between connect() and setsockopt()."""
    closed = []

    class FakeSock:
        def setsockopt(self, *args):
            raise OSError("connection reset during setup")

        def close(self):
            closed.append(True)

    monkeypatch.setattr(
        socket, "create_connection", lambda *a, **k: FakeSock()
    )
    with pytest.raises(PeerDisconnected):
        TcpChannel.connect("127.0.0.1", 1)
    assert closed == [True]


# ---------------------------------------------------------------------------
# Held FETCH: a waiting reader is parked at the daemon, not polling it.
# Frames are counted (client ``net.fetches``; the daemon's hold entry
# point), never timed against each other.
# ---------------------------------------------------------------------------

@pytest.fixture()
def fetch_log(monkeypatch):
    """``(step, wait)`` of every FETCH frame an in-process daemon reads."""
    seen = []
    real = DirectoryDaemon._serve_fetch

    def logged(self, conn, step, wait):
        seen.append((step, wait))
        return real(self, conn, step, wait)

    monkeypatch.setattr(DirectoryDaemon, "_serve_fetch", logged)
    return seen


def hosted_of(daemon, handle) -> HostedStream:
    """The daemon's run behind a reader, or behind a writer's run link."""
    return daemon._streams[getattr(handle, "_run", handle).stream_id]


def wait_parked(hosted, n=1, within=2.0):
    """Block until ``n`` FETCH handlers are parked on ``hosted``."""
    deadline = time.monotonic() + within
    while len(hosted.parked) != n:
        assert time.monotonic() < deadline, f"{len(hosted.parked)} parked, want {n}"
        time.sleep(0.002)


def in_thread(fn):
    """Run ``fn`` on a thread; ``.join_result()`` returns what it
    returned or re-raises what it raised."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the joining test
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()

    def join_result(timeout=5.0):
        t.join(timeout)
        assert not t.is_alive(), "reader thread still blocked"
        if "error" in box:
            raise box["error"]
        return box["value"]

    t.join_result = join_result
    return t


def write_step(w, value, n=4):
    w.begin_step()
    w.write("x", np.full(n, float(value)))
    w.end_step()


def counter(handle_or_client, name, **labels):
    return handle_or_client.monitor.metrics.counter(name, labels=labels or None).value


def test_held_fetch_delivers_a_late_step_in_one_frame(daemon, fetch_log):
    from repro.obs import recorder as flight
    from repro.obs.events import EV_NET_FETCH_HELD
    from repro.obs.live import render_prometheus

    recorder = flight.reset()
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.one", "w")
        r = c.open("held.one", "r")
        hosted = hosted_of(daemon, r)
        parked = hosted.monitor.metrics.gauge("net.readers_parked",
                                              labels={"tenant": "acme"})
        t = in_thread(lambda: r.begin_step(timeout=2.0))
        wait_parked(hosted)
        assert parked.value == 1
        write_step(w, 7)
        assert t.join_result() is StepStatus.OK
        np.testing.assert_array_equal(r.read_block("x", 0), np.full(4, 7.0))
        r.end_step()
        # One frame, held, ended by the publish.
        assert [step for step, _ in fetch_log] == [0]
        assert 0 < fetch_log[0][1] <= 2.0
        assert counter(c, "net.fetches") == 1
        assert counter(hosted, "net.fetches_held", tenant="acme") == 1
        assert counter(hosted, "net.fetch_holds_expired", tenant="acme") == 0
        assert parked.value == 0
        (event,) = recorder.events(code=EV_NET_FETCH_HELD)
        assert event.stream == "acme/held.one"
        assert dict(event.attrs) == {"step": 0, "wait": fetch_log[0][1], "outcome": "hit"}
        # The four series leave through the exporter's metric_name().
        daemon_text = render_prometheus({hosted.stream_id: hosted.monitor.metrics})
        for series in ("flexio_net_fetches_held", "flexio_net_fetch_holds_expired",
                       "flexio_net_readers_parked"):
            assert f'{series}{{stream="acme/held.one",tenant="acme"}}' in daemon_text
        assert "flexio_net_fetches 1" in render_prometheus({"": c.monitor.metrics})
        w.close()
        r.close()


def test_untimed_begin_step_is_one_frame_never_parked(daemon, fetch_log):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.untimed", "w")
        r = c.open("held.untimed", "r")
        assert r.begin_step() is StepStatus.NotReady
        assert fetch_log == [(0, 0.0)]
        assert counter(c, "net.fetches") == 1
        assert counter(hosted_of(daemon, r), "net.fetches_held", tenant="acme") == 0
        w.close()
        r.close()


def test_timed_begin_step_on_an_idle_stream_waits_out_the_deadline(daemon, fetch_log):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.idle", "w")
        r = c.open("held.idle", "r")
        began = time.monotonic()
        assert r.begin_step(timeout=0.2) is StepStatus.NotReady
        assert time.monotonic() - began >= 0.2
        assert 1 <= len(fetch_log) <= 2  # the hold is the wait, not a poll
        hosted = hosted_of(daemon, r)
        assert counter(hosted, "net.fetch_holds_expired", tenant="acme") >= 1
        w.close()
        r.close()


def test_parked_reader_is_woken_by_close(daemon, fetch_log):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.close", "w")
        r = c.open("held.close", "r")
        t = in_thread(lambda: r.begin_step(timeout=2.0))
        wait_parked(hosted_of(daemon, r))
        w.close()
        assert t.join_result() is StepStatus.EndOfStream
        assert len(fetch_log) == 1
        r.close()


def test_parked_reader_is_woken_by_lease_expiry():
    now = [0.0]
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                        lease_interval=0.02, clock=lambda: now[0]).start()
    try:
        with connect(uri(d, "public")) as c:
            w = c.open("held.lease", "w", lease=5.0)  # no heartbeat thread
            r = c.open("held.lease", "r")
            t = in_thread(lambda: r.begin_step(timeout=2.0))
            wait_parked(hosted_of(d, r))
            now[0] += 10.0  # the writer went silent past its lease
            assert t.join_result() is StepStatus.OtherError
            with pytest.raises(StreamFailure, match="lease expired"):
                r._fetch(0)
            assert counter(c, "net.fetches") == 2  # the held one, and that probe
            r.close()
            w.close()
    finally:
        d.stop()


def attach_raw(client, stream_id) -> TcpChannel:
    """A reader data channel speaking the frame protocol by hand."""
    return _DataLink(client, stream_id, "r").channel


def raw_fetch(channel, step, wait):
    channel.sendv([encode_frame(MsgType.FETCH, {"step": step, "wait": wait})])


def test_parked_reader_woken_for_an_earlier_step_parks_again(daemon):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.earlier", "w")
        hosted = hosted_of(daemon, w)
        ch = attach_raw(c, w._run.stream_id)
        raw_fetch(ch, 1, 2.0)
        wait_parked(hosted)
        write_step(w, 0)  # wakes it — for a step it did not ask for
        write_step(w, 1)
        wb = ch.recv(timeout=2.0)
        frame = decode_frame(wb)
        assert frame.msg_type is MsgType.STEP_DATA  # step 1's: its x is all ones
        np.testing.assert_array_equal(decode_var(wb, frame.consumed)[0]["data"], np.ones(4))
        assert counter(hosted, "net.fetches_held", tenant="acme") == 1  # one hold
        assert counter(hosted, "net.steps_fetched", tenant="acme") == 1  # one answer
        ch.close()
        w.close()


def test_hold_stays_under_the_recv_timeout(daemon, fetch_log):
    """A healthy idle daemon is never taken for a dead one: every hold
    ends, and is answered, inside the client's recv timeout."""
    with connect(uri(daemon), token="s3cret", timeout=0.4) as c:
        w = c.open("held.short", "w")
        r = c.open("held.short", "r")
        assert r.begin_step(timeout=1.5) is StepStatus.NotReady
        assert counter(c, "net.reconnects") == 0
        assert all(0 < wait <= 0.2 for _, wait in fetch_log)
        assert counter(c, "net.fetches") == len(fetch_log) >= 2
        w.close()
        r.close()


@pytest.mark.parametrize("kind,recv_timeout", [("dropped_frame", 0.4),
                                               ("conn_reset", 5.0)])
def test_lost_held_step_data_is_refetched_and_read_once(daemon, fetch_log, kind,
                                                        recv_timeout):
    """The held reply never arrives — dropped (the client times out) or
    the connection reset under it: re-ATTACH, re-FETCH, one delivery."""
    from repro.transport.faults import FaultKind

    with connect(uri(daemon), token="s3cret") as cw, \
            connect(uri(daemon), token="s3cret", timeout=recv_timeout) as cr:
        w = cw.open("held.lost", "w")
        r = cr.open("held.lost", "r")
        t = in_thread(lambda: r.begin_step(timeout=2.0))
        wait_parked(hosted_of(daemon, r))
        # From here the daemon's frame 1 is the held reader's STEP_DATA (the
        # publish answers it in place), frame 2 the PUBLISH ack.
        daemon.injector = TransportFaultInjector(fail_ops=[1], kinds=[FaultKind(kind)])
        write_step(w, 3)
        assert t.join_result() is StepStatus.OK
        np.testing.assert_array_equal(r.read_block("x", 0), np.full(4, 3.0))
        r.end_step()
        assert daemon.injector.faults_injected == 1
        assert counter(cr, "net.reconnects") == 1
        (_, first), (_, replayed) = fetch_log  # both for step 0
        # The replay carries what is left of the deadline, not the original
        # (equal only where both are capped by the recv timeout).
        assert replayed < first or replayed == first == recv_timeout / 2
        assert r.begin_step() is StepStatus.NotReady  # step 0 was read once
        assert r.current_step == 0 and fetch_log[2] == (1, 0.0)
        w.close()
        r.close()


@pytest.mark.parametrize("wait,held", [(1e9, True), (-1.0, False),
                                       (float("nan"), False)])
def test_absurd_wait_is_clamped_or_not_held(daemon, monkeypatch, wait, held):
    from repro.net import server

    monkeypatch.setattr(server, "MAX_FETCH_HOLD_S", 0.05)
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.absurd", "w")
        ch = attach_raw(c, w._run.stream_id)
        raw_fetch(ch, 0, wait)
        frame = decode_frame(ch.recv(timeout=2.0))
        assert frame.msg_type is MsgType.NOT_READY and frame.record["step"] == 0
        hosted = hosted_of(daemon, w)
        assert counter(hosted, "net.fetches_held", tenant="acme") == int(held)
        assert counter(hosted, "net.fetch_holds_expired", tenant="acme") == int(held)
        ch.close()
        w.close()


def test_one_publish_answers_every_parked_reader(daemon, fetch_log):
    with connect(uri(daemon), token="s3cret") as c:
        w = c.open("held.fanout", "w")
        readers = [c.open("held.fanout", "r") for _ in range(3)]
        threads = [in_thread(lambda r=r: r.begin_step(timeout=2.0)) for r in readers]
        wait_parked(hosted_of(daemon, w), 3)
        write_step(w, 5)
        for t, r in zip(threads, readers):
            assert t.join_result() is StepStatus.OK
            np.testing.assert_array_equal(r.read_block("x", 0), np.full(4, 5.0))
            r.close()
        assert [step for step, _ in fetch_log] == [0, 0, 0]
        assert counter(c, "net.fetches") == 3
        w.close()


def test_v3_fetch_body_is_refused_not_misdecoded():
    from repro.marshal.codec import encode_message
    from repro.marshal.format import FieldKind, FormatRegistry

    v3_body = encode_message(
        FormatRegistry().define("net.fetch", [("step", FieldKind.INT64)]), {"step": 5}
    )
    v5_ok = encode_message(  # before ``stats``
        FormatRegistry().define("net.ok", [("detail", FieldKind.STRING)]), {"detail": ""}
    )
    for old, msg_type, body in ((3, MsgType.FETCH, v3_body), (5, MsgType.OK, v5_ok)):
        for version in (old, PROTOCOL_VERSION):  # an old peer; an old body under a new header
            raw = HEADER.pack(MAGIC, version, int(msg_type), 0, 1) + bytes(body)
            with pytest.raises(ProtocolError):
                decode_frame(raw)


def test_drain_answers_a_parked_reader_once_and_promptly(daemon):
    from repro.transport.faults import TransportTimeout

    once = RetryPolicy(max_retries=0, timeout=0.01)
    with connect(uri(daemon), token="s3cret", retry=once) as c:
        w = c.open("held.drain", "w")
        r = c.open("held.drain", "r")
        idle = attach_raw(c, w._run.stream_id)  # attached, no request outstanding
        t = in_thread(lambda: r.begin_step(timeout=5.0))
        wait_parked(hosted_of(daemon, r))
        began = time.monotonic()
        daemon.drain(0.01)
        with pytest.raises(SessionLost, match="draining"):
            t.join_result(timeout=0.5)  # its own handler answered RETRY_AFTER
        assert time.monotonic() - began < 0.5
        with pytest.raises(TransportTimeout):
            r._link.channel.recv(timeout=0.1)  # ... and the broadcast did not, too
        # A peer that was not waiting still gets the broadcast, once.
        assert decode_frame(idle.recv(timeout=1.0)).msg_type is MsgType.RETRY_AFTER
        with pytest.raises(TransportTimeout):
            idle.recv(timeout=0.1)
        idle.close()
        r.close()


def test_stop_with_a_parked_reader_ends_the_daemon_thread():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    c = connect(uri(d, "public"), retry=RetryPolicy(max_retries=0, timeout=0.01))
    w = c.open("held.stop", "w")
    r = c.open("held.stop", "r")
    t = in_thread(lambda: r.begin_step(timeout=5.0))
    wait_parked(hosted_of(d, r))
    thread = d._thread
    d.stop()
    assert not thread.is_alive()  # inside stop()'s own join, not after it
    with pytest.raises(TransportFault):  # typed, and long before the 5 s
        t.join_result(timeout=2.0)
    r.close()
    with pytest.raises(TransportFault):
        w.close()  # nobody left to tell
    c.close()


# ---------------------------------------------------------------------------
# The daemon's run: every writer rank one data connection, one barrier
# ---------------------------------------------------------------------------

def ranks_of(r) -> list[int]:
    """The writer ranks of ``r``'s current step."""
    ranks = []
    for rank in range(2):
        try:
            r.read_block("x", rank)
        except KeyError:
            continue
        ranks.append(rank)
    return ranks


def test_a_step_ends_when_every_rank_has_ended_it(daemon):
    with connect(uri(daemon, "public")) as c0, connect(uri(daemon, "public")) as c1:
        w0 = c0.open("run.two", "w", rank=0, num_ranks=2)
        w1 = c1.open("run.two", "w", rank=1, num_ranks=2)
        hosted = daemon._streams["public/run.two"]
        write_step(w0, 0.0)
        assert hosted.store.last == -1  # rank 1 has not ended step 0
        write_step(w1, 1.0)
        assert hosted.store.last == 0 and len(hosted.store.lookup(0)[1][1]) == 2
        # A rank that ends a step with no writes sends no record, and still ends it.
        write_step(w0, 2.0)
        w1.begin_step()
        w1.end_step()
        r = c0.open("run.two", "r")
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        assert ranks_of(r) == [0, 1]
        np.testing.assert_array_equal(r.read_block("x", 1), np.full(4, 1.0))
        r.end_step()
        assert r.begin_step(timeout=2.0) is StepStatus.OK and ranks_of(r) == [0]
        r.end_step()
        w0.close()
        assert r.begin_step(timeout=0.2) is StepStatus.NotReady  # rank 1 is live
        w1.close()
        assert r.begin_step(timeout=2.0) is StepStatus.EndOfStream
        r.close()


def test_a_step_of_several_runs_is_one_vectored_step_data(daemon):
    """No join in the daemon: each rank's run follows the header as it
    landed — bulk runs in pool slots included — and such a step is never
    served by reference."""
    with connect(uri(daemon, "public")) as c0, connect(uri(daemon, "public")) as c1:
        writers = [c.open("run.vec", "w", rank=k, num_ranks=2) for k, c in enumerate((c0, c1))]
        for step in range(2):  # the first sizes the pool, the second lands in slots
            for k, w in enumerate(writers):
                write_step(w, 10 * step + k, n=1 << 14)
        hosted = daemon._streams["public/run.vec"]
        count, runs, _pruned = hosted.store.lookup(1)[1]
        assert count == 2 and all(hosted.slot_of(run) is not None for run in runs)
        reader = attach_raw(c0, "public/run.vec")
        reader.sendv([encode_frame(MsgType.FETCH, {"step": 1, "wait": 0.0})], timeout=2.0)
        frame = decode_frame(got := reader.recv(timeout=2.0))
        assert frame.msg_type is MsgType.STEP_DATA and frame.record["count"] == 2
        body = got.as_array()[frame.consumed:].tobytes()
        assert body == b"".join(run.tobytes() for run in runs)
        rec, offset = decode_var(body, 0)
        assert rec["writer_rank"] == 0
        assert decode_var(body, offset)[0]["writer_rank"] == 1
        reader.close()
        for w in writers:
            w.close()


def test_a_rank_opened_twice_is_a_typed_error(daemon):
    with connect(uri(daemon, "public")) as c0, connect(uri(daemon, "public")) as c1:
        w = c0.open("run.twice", "w", rank=0, num_ranks=2)
        with pytest.raises(NetError, match="rank 0 .* already open"):
            c1.open("run.twice", "w", rank=0, num_ranks=2)
        w1 = c1.open("run.twice", "w", rank=1, num_ranks=2)
        w1.close()
        with pytest.raises(NetError, match="rank 1 .* already open"):
            c1.open("run.twice", "w", rank=1, num_ranks=2)  # closed: not again
        w.close()


def test_a_rank_lease_expiring_mid_step_is_a_typed_error_not_a_short_step():
    """Rank 0 ended step 1, rank 1 never did: the stream fails, and the
    reader gets OtherError at step 1 — never a step 1 without rank 1."""
    now = [0.0]
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                        lease_interval=0.02, clock=lambda: now[0]).start()
    try:
        with connect(uri(d, "public")) as c0, connect(uri(d, "public")) as c1:
            w0 = c0.open("run.lease", "w", rank=0, num_ranks=2, lease=5.0)
            w1 = c1.open("run.lease", "w", rank=1, num_ranks=2, lease=5.0)
            write_step(w0, 0.0)
            write_step(w1, 1.0)
            write_step(w0, 2.0)
            r = c0.open("run.lease", "r")
            assert r.begin_step(timeout=2.0) is StepStatus.OK and ranks_of(r) == [0, 1]
            r.end_step()
            now[0] += 10.0  # every rank went silent past the lease
            assert r.begin_step(timeout=2.0) is StepStatus.OtherError
            with pytest.raises(StreamFailure, match="lease expired"):
                r._fetch(1)
            hosted = d._streams["public/run.lease"]
            assert hosted.store.last == 0 and hosted.open_step == {}
            with pytest.raises(StreamFailure):  # a failed run takes no more steps
                write_step(w1, 3.0)
            r.close()
            w0.close()  # a close after the failure is moot, not an error
    finally:
        d.stop()


def test_closing_a_session_closes_the_handles_it_opened(daemon):
    c = connect(uri(daemon), token="s3cret")
    w = c.open("leak.w", "w")
    write_step(w, 0.0)
    r = c.open("leak.w", "r")
    socks = [w._run._link.channel._send_sock, r._link.channel._send_sock, c._control._send_sock]
    c.close()
    assert w._closed and r._closed
    assert [s.fileno() for s in socks] == [-1, -1, -1]
    assert daemon._streams["acme/leak.w"].closed  # the writer's close reached the run


def test_a_refused_hello_closes_its_control_socket(daemon, monkeypatch):
    dialed = []
    real = TcpChannel.connect
    monkeypatch.setattr(TcpChannel, "connect", lambda *a, **k: dialed.append(real(*a, **k)) or dialed[-1])
    with pytest.raises(AuthFailure):
        connect(uri(daemon), token="wrong")
    assert len(dialed) == 1 and dialed[0]._send_sock.fileno() == -1
