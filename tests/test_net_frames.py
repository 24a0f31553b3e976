"""The frame path at both ends of the wire: the one assembler without
sockets or a loop, the daemon's and the client's loop around it, the copies
as facts (``np.shares_memory`` / ``tracemalloc``, not timings), the two
bounds the connection object owes the network — the length prefix it
will believe and the bytes it will buffer — and the one loop turn a
frame costs: each is answered in the call that completed it.
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
from repro.net.client import _DataLink, connect
from repro.net.protocol import (
    PROTOCOL_REGISTRY,
    PROTOCOL_VERSION,
    VAR_FORMAT,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.net.server import DirectoryDaemon
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import M_NET_FRAMES_REFUSED, M_NET_LOOP_LAG_MS, M_NET_READERS_PARKED
from repro.transport.buffers import as_byte_view
from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    TornSend,
    TransportFault,
    TransportFaultInjector,
    TransportTimeout,
)
from repro.transport.tcp import (
    COPIES_TCP,
    FRAME_PREFIX,
    INLINE_MAX,
    MAX_FRAME,
    SCRATCH,
    FrameAssembler,
    FrameRefused,
    TcpChannel,
    unpace_loopback,
)


# ---------------------------------------------------------------------------
# (a) the assembler: bytes in -> whole frames out, no socket, no clock, no loop
# ---------------------------------------------------------------------------

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


def pour(frames: FrameAssembler, piece: bytes) -> list:
    """Deliver ``piece`` the way either end does — ``buffer()``, receive
    into it, ``filled()`` — taking every frame as soon as it is whole."""
    out, piece, done = [], memoryview(piece), 0
    while True:
        while (raw := frames.next_frame()) is not None:
            out.append(raw)
        if done == len(piece):
            return out
        buf = frames.buffer()
        assert len(buf) > 0, "buffer() must never be empty once next_frame() is None"
        n = min(len(buf), len(piece) - done)
        buf[:n] = piece[done:done + n]
        frames.filled(n)
        done += n


def wire(*bodies: bytes) -> bytes:
    return b"".join(FRAME_PREFIX.pack(len(b)) + b for b in bodies)


BODIES = [b"hello", b"", bytes(range(256)) * 5, b"x"]


@settings(max_examples=60, deadline=None)
@given(cuts=st.lists(st.integers(0, len(wire(*BODIES))), max_size=12))
def test_assembler_yields_the_same_frames_for_every_split(cuts):
    stream = wire(*BODIES)
    frames, got = FrameAssembler(), []
    edges = [0, *sorted(cuts), len(stream)]
    for a, b in zip(edges, edges[1:]):
        got += pour(frames, stream[a:b])
        # Every frame whose last byte has arrived was handed over, at once.
        assert len(got) == sum(len(wire(*BODIES[:i + 1])) <= b for i in range(len(BODIES)))
    assert [f.tobytes() for f in got] == BODIES
    assert not frames.partial


def test_assembler_one_byte_pieces_and_a_straddling_piece():
    stream = wire(b"abcdef", b"", b"gh")
    frames = FrameAssembler()
    got = [f for i in range(len(stream)) for f in pour(frames, stream[i:i + 1])]
    assert [f.tobytes() for f in got] == [b"abcdef", b"", b"gh"]
    frames = FrameAssembler()
    assert pour(frames, stream[:5]) == [] and frames.partial      # mid-prefix
    assert pour(frames, stream[5:11]) == [] and frames.partial    # rest of the prefix, half the body
    assert [f.tobytes() for f in pour(frames, stream[11:])] == [b"abcdef", b"", b"gh"]
    assert not frames.partial


def test_a_frame_gets_its_own_array_filled_in_place():
    frames = FrameAssembler()
    body = np.arange(1 << 17, dtype=np.uint8).tobytes()  # larger than the scratch
    head = wire(body)[:1000]
    assert pour(frames, head) == []
    target = frames.buffer().obj       # where the caller will recv_into
    assert target.nbytes == len(body) and frames.partial
    assert bytes(target[:len(head) - FRAME_PREFIX.size]) == head[FRAME_PREFIX.size:]
    (frame,) = pour(frames, wire(body)[len(head):])
    assert frame is target and frame.tobytes() == body


def test_a_frame_that_fits_is_copied_out_of_the_scratch_once():
    frames = FrameAssembler()
    body = bytes(range(200)) * 300  # 60 000 B: inside the scratch
    buf = frames.buffer()
    buf[:len(body) + FRAME_PREFIX.size] = wire(body)  # one receive, prefix and all
    frames.filled(len(body) + FRAME_PREFIX.size)
    frame = frames.next_frame()
    assert frame.tobytes() == body and not np.shares_memory(frame, buf.obj)
    assert frames.next_frame() is None and not frames.partial


def test_assembler_refuses_a_prefix_before_allocating(stingy_allocator):
    for length in (MAX_FRAME + 1, 1 << 30):
        frames = FrameAssembler()
        del stingy_allocator[:]  # the assembler's own scratch
        with pytest.raises(FrameRefused, match=f"frame of {length} B refused"):
            pour(frames, FRAME_PREFIX.pack(length))
        # Over the bound: nothing asked; under it: the one ask that failed.
        assert stingy_allocator == ([] if length > MAX_FRAME else [length])
    assert issubclass(FrameRefused, PeerDisconnected)  # the client reconnects on it


# ---------------------------------------------------------------------------
# (a) the daemon's end: owe / pause / EOF on a fake transport
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


def make_conn(handler=None, daemon=None):
    """A connection on a fake transport; without ``handler`` every whole
    frame it hands over is kept in ``conn.frames``."""
    frames = []
    daemon = daemon or SimpleNamespace(
        metrics=MetricsRegistry(), _conns=set(), _conn_lost=lambda conn: None)
    conn = server._Conn(daemon, handler or (lambda c, raw: frames.append(raw)))
    conn.transport, conn.frames = FakeTransport(), frames
    return conn


def feed(conn, piece: bytes) -> int:
    """Deliver ``piece`` the way a selector transport does: as many
    ``get_buffer`` / ``recv_into`` / ``buffer_updated`` rounds as it takes,
    while reading is not paused.  Returns the bytes delivered."""
    piece, done = memoryview(piece), 0
    while done < len(piece) and conn.transport.reading and not conn.transport.closed:
        buf = conn.get_buffer(-1)
        assert len(buf) > 0, "get_buffer must never hand out an empty buffer"
        n = min(len(buf), len(piece) - done)
        buf[:n] = piece[done:done + n]
        conn.buffer_updated(n)
        done += n
    return done


def handed(conn) -> list:
    return [f.tobytes() for f in conn.frames]


def test_a_frame_that_fits_is_handed_over_in_the_call_that_brought_its_prefix():
    conn = make_conn()
    updates = []
    real = conn.buffer_updated
    conn.buffer_updated = lambda n: (updates.append(n), real(n))
    body = bytes(range(200)) * 300  # 60 000 B: inside the scratch
    feed(conn, wire(body))
    assert len(updates) == 1 and handed(conn) == [body]  # one recv, one frame
    (frame,) = conn.frames
    assert not np.shares_memory(frame, conn.get_buffer(-1).obj)  # copied out once


def test_assembler_two_frames_in_one_piece_pause_reading_until_read():
    """A reply owed holds what follows back, and reading pauses once one
    scratch is buffered; the reply given, the rest is handed over in order."""
    def owe_first(conn, raw):
        conn.frames.append(raw)
        if len(conn.frames) == 1:
            conn.owe()

    conn = make_conn(lambda c, raw: owe_first(c, raw))
    feed(conn, wire(b"one", b"two"))
    assert handed(conn) == [b"one"] and conn.transport.reading
    flood = wire(*[b"x" * 1000] * 200)  # 200 KB of pipelined requests
    taken = feed(conn, flood)
    assert not conn.transport.reading and conn.transport.pauses == 1
    assert taken <= SCRATCH and handed(conn) == [b"one"]
    conn.settle()
    assert handed(conn)[:2] == [b"one", b"two"] and conn.transport.reading
    feed(conn, flood[taken:])
    assert handed(conn) == [b"one", b"two", *[b"x" * 1000] * 200]


def test_pipelined_bytes_stay_bounded_while_a_reply_is_owed():
    """One scratch plus one frame, whatever the peer sends: a large frame
    that completes while a reply is owed waits whole, reading paused."""
    big = bytes(200_000)

    def owe_each(conn, raw):
        conn.frames.append(raw)
        conn.owe()

    conn = make_conn(lambda c, raw: owe_each(c, raw))
    stream = wire(b"a", big, b"b", big, b"c")
    done = 0
    while len(conn.frames) < 5:
        done += feed(conn, stream[done:])
        buffered = done - sum(FRAME_PREFIX.size + f.nbytes for f in conn.frames)
        assert buffered <= SCRATCH + len(big) + FRAME_PREFIX.size
        assert not conn.transport.reading or done == len(stream)
        conn.settle()
    assert handed(conn) == [b"a", big, b"b", big, b"c"]


@pytest.mark.parametrize("cut", [3, FRAME_PREFIX.size + 2], ids=["mid-prefix", "mid-body"])
@pytest.mark.parametrize("how", ["eof", "reset"])
def test_assembler_eof_mid_frame_is_none_after_the_whole_frames(cut, how):
    lost = []
    conn = make_conn(daemon=SimpleNamespace(
        metrics=MetricsRegistry(), _conns=set(), _conn_lost=lost.append))
    feed(conn, wire(b"whole") + wire(b"cut short")[:cut])
    assert handed(conn) == [b"whole"]  # handed over before the end was known
    if how == "eof":
        assert conn.eof_received() is False  # the transport closes itself
    else:
        conn.connection_lost(ConnectionResetError())
        assert lost == [conn]
    conn.settle()
    assert handed(conn) == [b"whole"] and conn.closing


# ---------------------------------------------------------------------------
# (a) the client's end: TcpChannel.recv over a socketpair
# ---------------------------------------------------------------------------

@pytest.fixture()
def pair():
    """A ``TcpChannel`` on one end of a socketpair, and the raw other end."""
    a, b = socket.socketpair()
    with a, b:
        yield TcpChannel(a), b


def recv_bytes(channel, timeout=2.0) -> bytes:
    return channel.recv(timeout=timeout).tobytes()


@pytest.mark.parametrize("size", [2_000, 200_000], ids=["fits", "own-array"])
def test_a_timed_out_recv_resumes_the_frame(pair, size):
    channel, peer = pair
    first, second = np.arange(size, dtype=np.uint8).tobytes(), b"second"
    stream = wire(first, second)
    peer.sendall(stream[:FRAME_PREFIX.size + 100])  # the prefix and 100 B of the body
    with pytest.raises(TransportTimeout):
        channel.recv(timeout=0.1)
    peer.sendall(stream[FRAME_PREFIX.size + 100:])  # the rest, then a second frame
    assert recv_bytes(channel) == first
    assert recv_bytes(channel) == second


def refuse(length: int, asked: list) -> FrameRefused:
    """``TcpChannel.recv`` of a bare ``length`` prefix; ``asked`` keeps
    only what the recv allocated."""
    a, b = socket.socketpair()
    with a, b:
        channel = TcpChannel(a)
        del asked[:]  # the channel's own scratch
        b.sendall(FRAME_PREFIX.pack(length))
        with pytest.raises(FrameRefused) as refused:
            channel.recv(timeout=2.0)
    return refused.value


def test_the_client_refuses_a_prefix_it_cannot_allocate_typed(stingy_allocator):
    assert isinstance(refuse(1 << 30, stingy_allocator), TransportFault)
    assert stingy_allocator == [1 << 30]  # asked once, refused, nothing kept
    assert isinstance(refuse(MAX_FRAME + 1, stingy_allocator), TransportFault)
    assert max(stingy_allocator, default=0) < 1024


@pytest.mark.parametrize("cut", [3, FRAME_PREFIX.size + 2], ids=["mid-prefix", "mid-body"])
def test_recv_eof_mid_frame_is_a_torn_send(pair, cut):
    channel, peer = pair
    peer.sendall(wire(b"whole") + wire(b"cut short")[:cut])
    peer.shutdown(socket.SHUT_WR)
    assert recv_bytes(channel) == b"whole"
    with pytest.raises(TornSend):
        channel.recv(timeout=2.0)


def test_recv_clean_eof_is_a_peer_disconnect(pair):
    channel, peer = pair
    peer.sendall(wire(b"whole"))
    peer.shutdown(socket.SHUT_WR)
    assert recv_bytes(channel) == b"whole"
    with pytest.raises(PeerDisconnected) as gone:
        channel.recv(timeout=2.0)
    assert not isinstance(gone.value, FrameRefused)


class CountingSocket:
    """A socket whose ``recv_into`` calls are counted."""

    def __init__(self, sock):
        self.sock, self.recvs = sock, 0

    def recv_into(self, *args):
        self.recvs += 1
        return self.sock.recv_into(*args)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_a_frame_read_ahead_is_returned_with_no_syscall(pair):
    channel, peer = pair
    channel._recv_sock = counting = CountingSocket(channel._recv_sock)
    peer.sendall(wire(b"one", b"two"))  # both in the socket buffer before the first recv
    assert recv_bytes(channel) == b"one" and counting.recvs == 1
    assert recv_bytes(channel) == b"two" and counting.recvs == 1


def test_recv_copies_say_where_the_frame_landed(pair):
    channel, peer = pair
    peer.sendall(wire(bytes(INLINE_MAX)))     # fits the scratch: copied out once
    assert channel.recv(timeout=2.0).copies == COPIES_TCP + 1
    peer.sendall(wire(bytes(SCRATCH)))        # its own array: received in place
    assert channel.recv(timeout=2.0).copies == COPIES_TCP


# ---------------------------------------------------------------------------
# Bugfix: the daemon does not trust the length prefix
# ---------------------------------------------------------------------------

def refused_frame(conn) -> dict:
    (written,) = conn.transport.written
    assert FRAME_PREFIX.unpack(written[:8])[0] == len(written) - 8
    frame = decode_frame(written[8:])
    assert frame.msg_type is MsgType.ERROR
    return frame.record


def test_prefix_over_max_frame_is_refused_before_any_allocation(stingy_allocator):
    conn = make_conn()
    del stingy_allocator[:]  # the connection's own scratch
    feed(conn, FRAME_PREFIX.pack(MAX_FRAME + 1))
    assert refused_frame(conn)["kind"] == "protocol"
    assert conn.transport.closed and handed(conn) == []
    assert conn._daemon.metrics.counter(M_NET_FRAMES_REFUSED).value == 1
    assert max(stingy_allocator) < 1024  # only the ERROR frame's own span


def test_allocation_failure_is_refused_the_same_way(stingy_allocator):
    conn = make_conn()
    feed(conn, FRAME_PREFIX.pack(1 << 30))
    assert 1 << 30 in stingy_allocator
    assert refused_frame(conn)["kind"] == "protocol"
    assert conn.transport.closed and handed(conn) == []
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
        channel = TcpChannel(s)
        frame = decode_frame(channel.recv(timeout=2.0))
        assert frame.msg_type is MsgType.ERROR and frame.record["kind"] == "protocol"
        with pytest.raises(PeerDisconnected):  # and the connection is closed
            channel.recv(timeout=2.0)
    assert daemon.metrics.counter(M_NET_FRAMES_REFUSED).value == 1


# ---------------------------------------------------------------------------
# Bugfix: inbound stays bounded when a peer pipelines without reading
# ---------------------------------------------------------------------------

def hello(channel):
    channel.send(encode_frame(
        MsgType.HELLO, {"tenant": "public", "token": "", "client": "t", "resume": ""}))
    assert decode_frame(channel.recv(timeout=2.0)).msg_type is MsgType.WELCOME


def test_pipelined_frames_queue_to_a_bound_and_are_answered_in_order(daemon):
    # The first reply is held back 50 ms (an injected DELAYED_FRAME): what
    # the peer pipelines meanwhile waits unread, then is answered in order.
    daemon.injector = TransportFaultInjector(fail_ops=[2], kinds=[FaultKind.DELAYED_FRAME])
    with socket.create_connection((daemon.host, daemon.control_port), timeout=2) as s:
        channel = TcpChannel(s)
        hello(channel)
        ids = [f"nope-{i}" for i in range(50)]
        began = time.monotonic()
        s.sendall(b"".join(  # 50 back-to-back frames, no reply read
            FRAME_PREFIX.pack(f.nbytes) + f.as_array().tobytes()
            for f in (encode_frame(MsgType.OPEN, {
                "stream": i, "mode": "r", "program": "reader", "rank": 0,
                "num_ranks": 1, "lease": 0.0}) for i in ids)))
        replies = [decode_frame(channel.recv(timeout=2.0)).record for _ in ids]
        assert time.monotonic() - began >= 0.05
    assert [r["kind"] for r in replies] == ["directory"] * 50
    assert all(i in r["message"] for i, r in zip(ids, replies))
    assert daemon.injector.faults_injected == 1


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
    publish = DirectoryDaemon._publish

    def spy(self, conn, raw):
        frames.append(raw)
        return publish(self, conn, raw)

    monkeypatch.setattr(DirectoryDaemon, "_publish", spy)
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
        (carrier,) = [f for f in frames if f.nbytes > data.nbytes]
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
        sock = w._run._link.channel._send_sock
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
            reply = decode_frame(w._run._link.channel.recv(timeout=5.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A same-node writer's first bulk step comes inline and sizes the pool:
        # the positive reply is the grant of its first slot.
        assert reply.msg_type is MsgType.GRANT and reply.record["detail"] == "published"
        assert reply.record["capacity"] >= len(blob)
        assert peak - base < 1.5 * len(blob), (peak - base) / len(blob)
        assert peak - base >= data.nbytes  # the frame's own array was seen
        w._run._step, w._run._publish_seq = 1, 1  # what the hand-made PUBLISH used up
        w.close()


# ---------------------------------------------------------------------------
# (d) a handler that raises is logged and closes the connection
# ---------------------------------------------------------------------------

def test_handler_exception_is_logged_retrieved_and_closes_the_connection(
        daemon, monkeypatch, caplog):
    def boom(self, conn, raw):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(DirectoryDaemon, "_hello", boom)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection((daemon.host, daemon.control_port), timeout=2) as s:
            hello_frame = encode_frame(MsgType.HELLO, {
                "tenant": "public", "token": "", "client": "t", "resume": ""})
            channel = TcpChannel(s)
            channel.send(hello_frame)
            with pytest.raises(PeerDisconnected):  # closed, not left hanging
                channel.recv(timeout=2.0)
        gc.collect()
        time.sleep(0.05)
    text = "\n".join(r.getMessage() for r in caplog.records)
    assert "buffer_updated() call failed" in text
    assert any(r.exc_info and "handler bug" in str(r.exc_info[1]) for r in caplog.records)
    assert "never retrieved" not in text
    assert not daemon._conns  # and the daemon forgot it


# ---------------------------------------------------------------------------
# (e) one loop turn per frame: a PUBLISH answers the writer and the parked
# reader inside the call that delivered it — no event loop runs
# ---------------------------------------------------------------------------

def frame_bytes(msg_type, record, *parts) -> bytes:
    return b"".join(as_byte_view(p).tobytes() for p in (encode_frame(msg_type, record), *parts))


def replies(conn) -> list:
    out = []
    blob = b"".join(conn.transport.written)
    while blob:
        (n,) = FRAME_PREFIX.unpack(blob[:8])
        out.append(decode_frame(blob[8:8 + n]).msg_type)
        blob = blob[8 + n:]
    return out


def test_a_publish_answers_its_writer_and_the_parked_reader_synchronously():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False)
    d._loop = asyncio.new_event_loop()  # for the hold's timer; never run
    try:
        stream = server.HostedStream("public", "sync")
        d._streams[stream.stream_id] = stream
        spec = d.directory.authenticate("public", None)
        d._sessions["s1"] = server._Session("s1", "public", spec)
        writer, reader = make_conn(d._attach, d), make_conn(d._attach, d)
        for conn, role in ((writer, "w"), (reader, "r")):
            feed(conn, wire(frame_bytes(MsgType.ATTACH, {
                "session": "s1", "stream_id": stream.stream_id, "role": role,
                "predicate": "", "nonce": "", "rank": 0})))
            assert replies(conn) == [MsgType.OK]
        feed(reader, wire(frame_bytes(MsgType.FETCH, {"step": 0, "wait": 5.0})))
        assert len(stream.parked) == 1 and replies(reader) == [MsgType.OK]
        data = np.arange(16, dtype=np.float64)
        feed(writer, wire(frame_bytes(
            MsgType.PUBLISH, {"step": 0, "count": 1, "eos": False, "seq": 1},
            *encode_var({"name": "v", "writer_rank": 0, "start": [], "shape": [16],
                         "gshape": [], "vmin": 0.0, "vmax": 0.0, "has_stats": False,
                         "data": data}))))
        assert replies(writer) == [MsgType.OK, MsgType.OK]
        assert replies(reader) == [MsgType.OK, MsgType.STEP_DATA]
        assert not stream.parked and not reader.owing
    finally:
        d._loop.close()


def test_a_small_frame_is_one_write_and_a_bulk_payload_is_not_copied():
    conn = make_conn()
    kept = []
    conn.transport.write = kept.append  # the objects written, not copies
    head = encode_frame(MsgType.STEP_DATA, {"step": 0, "count": 1})
    header = as_byte_view(head).tobytes()
    small = np.arange(INLINE_MAX // 16, dtype=np.float64)
    conn.write_frame(head, small)
    (segment,) = kept  # the reader wakes once, to all of it
    body = header + small.tobytes()
    assert bytes(segment) == FRAME_PREFIX.pack(len(body)) + body
    kept.clear()
    bulk = np.arange(INLINE_MAX // 8, dtype=np.float64)  # with its header, over the bound
    conn.write_frame(head, bulk)
    first, payload = kept
    assert bytes(first) == FRAME_PREFIX.pack(len(header) + bulk.nbytes) + header
    assert np.shares_memory(np.frombuffer(payload, dtype=np.uint8), bulk)


# ---------------------------------------------------------------------------
# Bugfix: a parked reader whose socket dies is dropped at once
# ---------------------------------------------------------------------------

def attach_reader(client, stream_id, predicate):
    """A reader data channel ATTACHed with ``predicate``, driven by hand."""
    link = _DataLink(client, stream_id, "r")
    link.reattach(predicate)
    return link.channel


def test_a_parked_reader_whose_socket_dies_is_dropped_at_once(daemon):
    near = '[{"hi": 1.0, "kind": "range", "lo": 0.0, "var": "x"}]'
    far = '[{"hi": 6.0, "kind": "range", "lo": 5.0, "var": "x"}]'
    with connect(uri(daemon)) as c:
        w = c.open("dies", "w")
        hosted = daemon._streams[w._run.stream_id]
        other = attach_reader(c, w._run.stream_id, far)
        parked = attach_reader(c, w._run.stream_id, near)
        parked.sendv([encode_frame(MsgType.FETCH, {"step": 0, "wait": 8.0})])
        gauge = hosted.monitor.metrics.gauge(M_NET_READERS_PARKED,
                                             labels={"tenant": "public"})
        deadline = time.monotonic() + 2.0
        while not hosted.parked:
            assert time.monotonic() < deadline, "the FETCH never parked"
            time.sleep(0.002)
        assert gauge.value == 1 and hosted.readers.combined.might_match("x", 0.2, 0.8)
        parked.close()
        deadline = time.monotonic() + 0.5
        while gauge.value or hosted.readers.combined.might_match("x", 0.2, 0.8):
            assert time.monotonic() < deadline, "the dead reader is still parked"
            time.sleep(0.002)
        assert not hosted.parked
        assert not hosted.readers.combined.might_match("x", 0.2, 0.8)  # only ``far``
        assert hosted.readers.combined.might_match("x", 5.5, 5.6)
        other.close()
        w.close()


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
        assert _congestion(w._run._link.channel._send_sock) == b"reno"
        w.close()
    assert accepted and set(accepted) == {b"reno"}


def test_unpace_loopback_leaves_other_sockets_alone():
    with socket.socket() as unconnected:
        unpace_loopback(unconnected)       # ENOTCONN: swallowed
    a, b = socket.socketpair()             # AF_UNIX: no host, no TCP option
    with a, b:
        unpace_loopback(a)
    unpace_loopback(None)                  # a transport without a socket


# ---------------------------------------------------------------------------
# Observability: is the daemon's loop the bottleneck?
# ---------------------------------------------------------------------------

def test_loop_lag_gauge_reads_how_late_the_reaper_ticked():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False,
                        lease_interval=0.02).start()
    try:
        lag = d.metrics.gauge(M_NET_LOOP_LAG_MS)

        def settles(check, within=2.0):
            deadline = time.monotonic() + within
            while not check(lag.value):
                assert time.monotonic() < deadline, f"net.loop_lag_ms stuck at {lag.value}"
                time.sleep(0.005)

        d._loop.call_soon_threadsafe(time.sleep, 0.12)  # a callback that hogs the loop
        settles(lambda ms: ms >= 60.0)
        settles(lambda ms: ms < 50.0)  # and the next ticks are on time again
    finally:
        d.stop()


# ---------------------------------------------------------------------------
# Protocol v7: the writer rank of a data connection, and a rank's close
# ---------------------------------------------------------------------------

#: The frames v7 changed, byte for byte (v8 changed only the header's
#: version byte): ATTACH names the writer rank the connection publishes
#: for; a PUBLISH with ``eos`` is that rank's close (here with no blocks
#: left to send).
V7_FRAMES = {
    MsgType.ATTACH: (
        {"session": "s1", "stream_id": "public/run", "role": "w", "predicate": "",
         "nonce": "", "rank": 1},
        "0701ecf1081000000700000000000000cdf0f50f000bed7a4e39e5d68a29000000000000"
        "000200000073310a0000007075626c69632f72756e0100000077000000000000000001"
        "00000000000000",
    ),
    MsgType.PUBLISH: (
        {"step": 2, "count": 0, "eos": True, "seq": 3},
        "0701ecf1081100000700000000000000cdf0f50f001c1d618ea61319fa19000000000000"
        "0002000000000000000000000000000000010300000000000000",
    ),
}


@pytest.mark.parametrize("msg_type", sorted(V7_FRAMES), ids=lambda t: t.name)
def test_v7_frames_are_their_golden_bytes(msg_type):
    record, golden = V7_FRAMES[msg_type]
    assert PROTOCOL_VERSION == 8
    assert encode_frame(msg_type, record, seq=7).as_array().tobytes().hex() == golden
    frame = decode_frame(bytes.fromhex(golden))
    assert (frame.msg_type, frame.record, frame.seq) == (msg_type, record, 7)


def test_the_control_close_is_gone_from_the_wire():
    """A rank closes with its last PUBLISH; type 11 (v6's CLOSE) is unknown."""
    raw = bytearray(encode_frame(MsgType.BYE, {"reason": ""}).as_array().tobytes())
    raw[5] = 11
    with pytest.raises(ProtocolError, match="unknown message type 11"):
        decode_frame(bytes(raw))
