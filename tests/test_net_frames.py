"""The daemon hop's copy-free frame path: the assembler without sockets,
the copies as facts (``np.shares_memory`` / ``tracemalloc``, not timings),
and the two bounds the connection object owes the network — the length
prefix it will believe and the frames it will queue.
"""

import asyncio
import gc
import logging
import socket
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directory import TenantSpec
from repro.marshal.codec import encode_into, encoded_size
from repro.net import server
from repro.net.client import connect
from repro.net.protocol import (
    PROTOCOL_REGISTRY,
    VAR_FORMAT,
    MsgType,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.net.server import DirectoryDaemon
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import M_NET_FRAMES_REFUSED
from repro.transport.buffers import as_byte_view
from repro.transport.tcp import (
    FRAME_PREFIX,
    MAX_FRAME,
    recv_frame,
    send_frame,
    unpace_loopback,
)


# ---------------------------------------------------------------------------
# (a) the assembler: bytes in -> whole frames out, no socket, no clock
# ---------------------------------------------------------------------------

class FakeTransport:
    """What ``_Conn`` asks of a transport, recorded."""

    def __init__(self):
        self.reading, self.closed = True, False
        self.pauses = 0
        self.written = []

    def pause_reading(self):
        self.reading = False
        self.pauses += 1

    def resume_reading(self):
        self.reading = True

    def write(self, data):
        self.written.append(bytes(data))

    def close(self):
        self.closed = True


def make_conn():
    conn = server._Conn(SimpleNamespace(metrics=MetricsRegistry()), handler=None)
    conn.transport = FakeTransport()
    return conn


def feed(conn, piece: bytes) -> None:
    """Deliver ``piece`` the way a selector transport does: as many
    ``get_buffer`` / ``recv_into`` / ``buffer_updated`` rounds as it takes."""
    piece = memoryview(piece)
    while len(piece):
        buf = conn.get_buffer(-1)
        assert len(buf) > 0, "get_buffer must never hand out an empty buffer"
        n = min(len(buf), len(piece))
        buf[:n] = piece[:n]
        conn.buffer_updated(n)
        piece = piece[n:]


def take(conn):
    """``read_frame`` without a loop: the frame (or None at the end), or
    ``"would block"`` when the coroutine has to wait."""
    if not conn._readable.is_set():
        return "would block"
    try:
        conn.read_frame().send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("read_frame waited although a frame (or the end) was there")


def drain_frames(conn) -> list:
    out = []
    while not isinstance(got := take(conn), str) and got is not None:
        out.append(got.tobytes())
    return out


def wire(*bodies: bytes) -> bytes:
    return b"".join(FRAME_PREFIX.pack(len(b)) + b for b in bodies)


BODIES = [b"hello", b"", bytes(range(256)) * 5, b"x"]


@settings(max_examples=60, deadline=None)
@given(cuts=st.lists(st.integers(0, len(wire(*BODIES))), max_size=12))
def test_assembler_yields_the_same_frames_for_every_split(cuts):
    stream = wire(*BODIES)
    conn = make_conn()
    got = []
    edges = [0, *sorted(cuts), len(stream)]
    for a, b in zip(edges, edges[1:]):
        feed(conn, stream[a:b])
        got += drain_frames(conn)
        assert conn.transport.reading  # paused at most while two were queued
    assert got == BODIES
    assert take(conn) == "would block"


def test_assembler_one_byte_pieces_and_a_straddling_piece():
    stream = wire(b"abcdef", b"", b"gh")
    conn = make_conn()
    for i in range(len(stream)):
        feed(conn, stream[i:i + 1])
    assert drain_frames(conn) == [b"abcdef", b"", b"gh"]
    conn = make_conn()
    feed(conn, stream[:5])        # mid-prefix
    assert take(conn) == "would block"
    feed(conn, stream[5:11])      # rest of the prefix and half the body
    assert take(conn) == "would block"
    feed(conn, stream[11:])
    assert drain_frames(conn) == [b"abcdef", b"", b"gh"]


def test_assembler_two_frames_in_one_piece_pause_reading_until_read():
    conn = make_conn()
    feed(conn, wire(b"one", b"two"))
    assert conn.transport.pauses == 1 and not conn.transport.reading
    assert take(conn).tobytes() == b"one"
    assert not conn.transport.reading      # one still queued
    assert take(conn).tobytes() == b"two"
    assert conn.transport.reading          # queue empty: reading resumes
    assert take(conn) == "would block"


@pytest.mark.parametrize("cut", [3, FRAME_PREFIX.size + 2], ids=["mid-prefix", "mid-body"])
@pytest.mark.parametrize("how", ["eof", "reset"])
def test_assembler_eof_mid_frame_is_none_after_the_whole_frames(cut, how):
    conn = make_conn()
    feed(conn, wire(b"whole") + wire(b"cut short")[:cut])
    if how == "eof":
        assert conn.eof_received() is True  # replies may still leave
    else:
        conn.connection_lost(ConnectionResetError())
    assert take(conn).tobytes() == b"whole"
    assert take(conn) is None and take(conn) is None


def test_a_frame_gets_its_own_array_filled_in_place():
    conn = make_conn()
    body = np.arange(1000, dtype=np.uint8).tobytes()
    feed(conn, FRAME_PREFIX.pack(len(body)))
    target = conn.get_buffer(-1).obj       # where the transport will recv_into
    feed(conn, body)
    frame = take(conn)
    assert frame is target and frame.tobytes() == body


# ---------------------------------------------------------------------------
# Bugfix: the daemon does not trust the length prefix
# ---------------------------------------------------------------------------

def refused_frame(conn) -> dict:
    (written,) = conn.transport.written
    assert FRAME_PREFIX.unpack(written[:8])[0] == len(written) - 8
    frame = decode_frame(written[8:])
    assert frame.msg_type is MsgType.ERROR
    return frame.record


@pytest.fixture()
def stingy_allocator(monkeypatch):
    """``np.empty`` that cannot find more than 1 MB; yields the sizes asked."""
    real, asked = np.empty, []

    def stingy(shape, *a, **kw):
        asked.append(shape)
        if isinstance(shape, int) and shape > 1 << 20:
            raise MemoryError
        return real(shape, *a, **kw)

    monkeypatch.setattr(np, "empty", stingy)
    return asked


def test_prefix_over_max_frame_is_refused_before_any_allocation(stingy_allocator):
    conn = make_conn()
    feed(conn, FRAME_PREFIX.pack(MAX_FRAME + 1))
    assert refused_frame(conn)["kind"] == "protocol"
    assert conn.transport.closed and take(conn) is None
    assert conn._daemon.metrics.counter(M_NET_FRAMES_REFUSED).value == 1
    assert max(stingy_allocator) < 1024  # only the ERROR frame's own span


def test_allocation_failure_is_refused_the_same_way(stingy_allocator):
    conn = make_conn()
    feed(conn, FRAME_PREFIX.pack(1 << 30))
    assert 1 << 30 in stingy_allocator
    assert refused_frame(conn)["kind"] == "protocol"
    assert conn.transport.closed and take(conn) is None
    assert conn._daemon.metrics.counter(M_NET_FRAMES_REFUSED).value == 1


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    yield d
    d.stop()


def uri(d):
    return f"flexio://{d.host}:{d.control_port}/public"


@pytest.mark.parametrize("port", ["control_port", "data_port"])
def test_live_daemon_answers_a_hostile_prefix_with_a_typed_error(daemon, port):
    with socket.create_connection((daemon.host, getattr(daemon, port)), timeout=2) as s:
        s.sendall(FRAME_PREFIX.pack(MAX_FRAME + 1))
        frame = decode_frame(recv_frame(s, timeout=2.0))
        assert frame.msg_type is MsgType.ERROR and frame.record["kind"] == "protocol"
        assert recv_frame(s, timeout=2.0) is None  # and the connection is closed
    assert daemon.metrics.counter(M_NET_FRAMES_REFUSED).value == 1


# ---------------------------------------------------------------------------
# Bugfix: inbound stays bounded when a peer pipelines without reading
# ---------------------------------------------------------------------------

def hello(sock):
    send_frame(sock, encode_frame(
        MsgType.HELLO, {"tenant": "public", "token": "", "client": "t", "resume": ""}))
    assert decode_frame(recv_frame(sock, timeout=2.0)).msg_type is MsgType.WELCOME


def test_pipelined_frames_queue_to_a_bound_and_are_answered_in_order(daemon, monkeypatch):
    gate = asyncio.Event()
    seen = {}
    dispatch = DirectoryDaemon._dispatch_control

    async def held(self, session, frame, conn):
        seen["conn"] = conn
        await gate.wait()
        seen["deepest"] = max(seen.get("deepest", 0), len(conn._frames))
        await dispatch(self, session, frame, conn)

    monkeypatch.setattr(DirectoryDaemon, "_dispatch_control", held)
    with socket.create_connection((daemon.host, daemon.control_port), timeout=2) as s:
        hello(s)
        ids = [f"public/nope-{i}" for i in range(50)]
        s.sendall(b"".join(  # 50 back-to-back frames, no reply read
            FRAME_PREFIX.pack(f.nbytes) + f.as_array().tobytes()
            for f in (encode_frame(MsgType.CLOSE, {"stream_id": i}) for i in ids)))
        deadline = time.monotonic() + 2.0
        while "conn" not in seen or len(seen["conn"]._frames) < 2:
            assert time.monotonic() < deadline, "frames never queued"
            time.sleep(0.005)
        time.sleep(0.05)  # anything more the transport would read has arrived
        assert len(seen["conn"]._frames) == 2 and seen["conn"]._paused
        daemon._loop.call_soon_threadsafe(gate.set)
        replies = [decode_frame(recv_frame(s, timeout=2.0)).record for _ in ids]
    assert [r["kind"] for r in replies] == ["unknown_stream"] * 50
    assert [r["message"] for r in replies] == ids
    assert seen["deepest"] <= 2


# ---------------------------------------------------------------------------
# (b) encode_var: the same bytes, the caller's array unjoined
# ---------------------------------------------------------------------------

def flat_var(rec) -> bytes:
    out = np.empty(encoded_size(VAR_FORMAT, rec, PROTOCOL_REGISTRY), dtype=np.uint8)
    assert encode_into(VAR_FORMAT, rec, memoryview(out), PROTOCOL_REGISTRY) == out.nbytes
    return out.tobytes()


def var(data):
    return {"name": "v", "writer_rank": 1, "start": [0], "shape": list(np.shape(data)),
            "gshape": [], "vmin": 0.0, "vmax": 1.0, "has_stats": True, "data": data}


VAR_INPUTS = {
    "f8-2d": np.arange(24, dtype=np.float64).reshape(4, 6),
    "f4": np.linspace(0, 1, 7, dtype=np.float32),
    "i2": np.arange(9, dtype=np.int16),
    "u1": np.arange(5, dtype=np.uint8),
    "c16": np.arange(3, dtype=np.complex128),
    "bool": np.array([True, False, True]),
    "0-d": np.float64(2.5),
    "empty": np.empty((0, 3), dtype=np.float32),
    "fortran": np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4)),
    "strided": np.arange(40, dtype=np.float64)[::3],
    "list": [1.5, 2.5],
}


@pytest.mark.parametrize("data", VAR_INPUTS.values(), ids=VAR_INPUTS.keys())
def test_encode_var_parts_joined_are_the_flat_encoding(data):
    rec = var(data)
    head, payload = encode_var(rec)
    joined = b"".join(as_byte_view(p).tobytes() for p in (head, payload))
    assert joined == flat_var(rec)
    assert head.nbytes < 200  # everything but the array
    got, end = decode_var(joined, 0)
    assert end == len(joined)
    np.testing.assert_array_equal(got["data"], np.ascontiguousarray(data))
    assert rec["data"] is data  # the caller's record is not rewritten


def test_encode_var_payload_is_the_callers_contiguous_array():
    data = np.arange(1 << 16, dtype=np.float64).reshape(256, 256)
    _head, payload = encode_var(var(data))
    assert payload is data
    view = data[10:20]  # contiguous, but not the owner
    assert np.shares_memory(encode_var(var(view))[1], data)
    assert not np.shares_memory(encode_var(var(data.T))[1], data)  # compacted


# ---------------------------------------------------------------------------
# (c) through a live daemon: stored where it landed
# ---------------------------------------------------------------------------

def test_stored_payload_is_a_view_of_the_received_frame(daemon, monkeypatch):
    frames = []
    read_frame = server._Conn.read_frame

    async def spy(self):
        frame = await read_frame(self)
        frames.append(frame)
        return frame

    monkeypatch.setattr(server._Conn, "read_frame", spy)
    data = np.arange(1 << 15, dtype=np.float64)
    with connect(uri(daemon)) as c:
        w = c.open("landed", "w")
        r = c.open("landed", "r")
        w.begin_step()
        w.write("v", data)
        w.end_step()
        (hosted,) = daemon._streams.values()
        _outcome, (count, payload) = hosted.store.lookup(0)
        assert count == 1 and isinstance(payload, np.ndarray)
        (carrier,) = [f for f in frames if f is not None and f.nbytes > data.nbytes]
        assert np.shares_memory(payload, carrier)
        assert payload.nbytes + 100 > carrier.nbytes  # everything after the header
        r.begin_step(timeout=2.0)
        np.testing.assert_array_equal(r.read_block("v", 0), data)  # served from there
        r.end_step()
        w.close()
        r.close()


def test_ingesting_a_4mb_publish_peaks_under_one_and_a_half_frames(daemon):
    data = np.arange(1 << 19, dtype=np.float64)  # 4 MB
    rec = var(data)
    with connect(uri(daemon)) as c:
        w = c.open("peak", "w")
        sock = w._channel._send_sock
        parts = [encode_frame(MsgType.PUBLISH,
                              {"step": 0, "count": 1, "eos": False, "seq": 1}),
                 *encode_var(rec)]
        body = b"".join(as_byte_view(p).tobytes() for p in parts)
        blob = FRAME_PREFIX.pack(len(body)) + body
        del body, parts
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sock.sendall(blob)  # a raw socket: the sender allocates nothing
            reply = decode_frame(recv_frame(sock, timeout=5.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A same-node writer's first bulk step comes inline and sizes the pool:
        # the positive reply is the grant of its first slot.
        assert reply.msg_type is MsgType.GRANT and reply.record["detail"] == "published"
        assert reply.record["capacity"] >= len(blob)
        assert peak - base < 1.5 * len(blob), (peak - base) / len(blob)
        assert peak - base >= data.nbytes  # the frame's own array was seen
        w._step, w._publish_seq = 1, 1  # what the hand-made PUBLISH used up
        w.close()


# ---------------------------------------------------------------------------
# (d) a handler that raises is logged and retrieved
# ---------------------------------------------------------------------------

def test_handler_exception_is_logged_retrieved_and_closes_the_connection(
        daemon, monkeypatch, caplog):
    async def boom(self, conn):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(DirectoryDaemon, "_handle_control", boom)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection((daemon.host, daemon.control_port), timeout=2) as s:
            assert recv_frame(s, timeout=2.0) is None  # closed, not left hanging
        gc.collect()
        time.sleep(0.05)
    text = "\n".join(r.getMessage() for r in caplog.records)
    assert "connection handler failed" in text
    assert any(r.exc_info and "handler bug" in str(r.exc_info[1]) for r in caplog.records)
    assert "never retrieved" not in text


# ---------------------------------------------------------------------------
# Loopback connections are not paced
# ---------------------------------------------------------------------------

def _congestion(sock) -> bytes:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_CONGESTION, 16).rstrip(b"\0")


def _reno_is_offered() -> bool:
    try:
        with open("/proc/sys/net/ipv4/tcp_allowed_congestion_control") as fh:
            return hasattr(socket, "TCP_CONGESTION") and "reno" in fh.read().split()
    except OSError:
        return False


@pytest.mark.skipif(not _reno_is_offered(), reason="no per-socket reno here")
def test_both_ends_of_a_loopback_data_connection_are_unpaced(daemon, monkeypatch):
    accepted = []
    real = server._Conn.connection_made

    def spy(self, transport):
        real(self, transport)
        accepted.append(_congestion(transport.get_extra_info("socket")))

    monkeypatch.setattr(server._Conn, "connection_made", spy)
    with connect(uri(daemon)) as client:
        w = client.open("unpaced", "w")
        assert _congestion(w._channel._send_sock) == b"reno"
        w.close()
    assert accepted and set(accepted) == {b"reno"}


def test_unpace_loopback_leaves_other_sockets_alone():
    with socket.socket() as unconnected:
        unpace_loopback(unconnected)       # ENOTCONN: swallowed
    a, b = socket.socketpair()             # AF_UNIX: no host, no TCP option
    with a, b:
        unpace_loopback(a)
    unpace_loopback(None)                  # a transport without a socket
