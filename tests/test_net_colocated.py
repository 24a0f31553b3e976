"""The daemon's same-node rung: bulk runs move through pool slots, the
frame says where they are — and every peer that cannot (or must not)
take that path gets exactly the inline frames it got before.

Raw frames wherever a peer has to misbehave (``test_net_frames.py``'s
style); the slot lifetime rule is checked as facts about the free list,
never by timing.
"""

import gc
import io
import os
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.adios import BoundingBox, StepNotReady, StepStatus
from repro.obs import sanitize
from repro.core import PluginSide
from repro.core.plugins import DCPlugin, range_select_plugin, sampling_plugin
from repro.core.directory import QuotaExceeded, TenantSpec
from repro.core.resilience import RetryPolicy
from repro.core.stepstore import Outcome, StepStore, outcome_error
from repro.net.client import _DataLink, connect
from repro.net.protocol import (
    PROTOCOL_VERSION,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.net.server import DirectoryDaemon, parse_ready_line
from repro.obs import recorder as flight
from repro.obs.events import EV_NET_POOL_CREATE, EV_NET_POOL_RETIRE
from repro.obs.names import (
    M_PLUGIN_BLOCKS_SKIPPED,
    M_NET_BLOCKS_BOUNDED_BY_DAEMON,
    M_NET_FETCHES,
    M_NET_POOL_SLOTS_FREE,
    M_NET_STEPS_COPIED_OUT,
    M_NET_STEPS_FETCHED_BY_REF,
    M_NET_STEPS_PUBLISHED_BY_REF,
)
from repro.tools import monitor as monitor_tool
from repro.transport.buffers import as_byte_view
from repro.transport.faults import FaultKind, PeerDisconnected, TransportFaultInjector
from repro.transport.tcp import INLINE_MAX, TcpChannel

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(REPO, "src")

#: float64 elements of one bulk variable: 256 KiB, well over INLINE_MAX.
BULK = 1 << 15
RETAIN = 2
SLOTS = RETAIN + 4


def make_daemon(**kw):
    kw.setdefault("tenants", [TenantSpec("public")])
    return DirectoryDaemon(telemetry=False, retain_steps=RETAIN, **kw).start()


@pytest.fixture()
def daemon():
    d = make_daemon()
    yield d
    d.stop()


@pytest.fixture(autouse=True)
def no_violation_left_behind(request):
    """CI also runs this file under ``FLEXIO_SANITIZE=1``: both digests of
    a slot are on, and only a test that provokes one may end with a
    violation on record."""
    active = sanitize.get()
    if active is not None:
        active.reset()
    yield
    if active is not None and "san" not in request.fixturenames:
        active.assert_clean()


def uri(d):
    return f"flexio://{d.host}:{d.control_port}/public"


def bulk(k: int, n: int = BULK) -> np.ndarray:
    return np.arange(n, dtype=np.float64) + k


def put(w, k: int, n: int = BULK) -> None:
    w.begin_step()
    w.write("v", bulk(k, n))
    w.end_step()


def var_record(k: int, n: int = BULK) -> dict:
    """Unstamped, as a writer no pruning reader has asked sends it."""
    return {"name": "v", "writer_rank": 0, "start": [], "shape": [n], "gshape": [],
            "vmin": 0.0, "vmax": 0.0, "has_stats": False, "data": bulk(k, n)}


def run_bytes(k: int, n: int = BULK) -> bytes:
    """The ``net.var`` run ``NetWriteHandle`` sends for ``put(w, k, n)``."""
    return b"".join(as_byte_view(p).tobytes() for p in encode_var(var_record(k, n)))


def hosted(d, name):
    return d._streams[f"public/{name}"]


def settle(predicate, what: str, within: float = 2.0) -> None:
    """The daemon's loop thread acts on a frame, or a hang-up, a moment
    after this thread sent it."""
    deadline = time.monotonic() + within
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


def rpc(channel: TcpChannel, msg_type: MsgType, record: dict, *parts):
    channel.sendv([encode_frame(msg_type, record), *parts], timeout=2.0)
    return decode_frame(channel.recv(timeout=2.0))


def publish_ref(link, step: int, seq: int, **tamper):
    """A by-reference PUBLISH into the link's granted slot, written
    through a fresh mapping; ``tamper`` overrides what the frame claims."""
    grant = link.grant
    run = run_bytes(step)
    fd = os.open(grant["pool"].rpartition("@")[0], os.O_RDWR)
    try:
        os.pwrite(fd, run, grant["offset"])
    finally:
        os.close(fd)
    record = {"step": step, "count": 1, "eos": False, "seq": seq, "pool": grant["pool"],
              "offset": grant["offset"], "nbytes": len(run), **tamper}
    return rpc(link.channel, MsgType.PUBLISH_REF, record)


def counter(stream, name):
    return stream.monitor.metrics.counter(name, labels=stream._labels).value


def copied_out(reader) -> int:
    return int(reader.monitor.metrics.counter(M_NET_STEPS_COPIED_OUT).value)


# ---------------------------------------------------------------------------
# The same step, whichever way it came
# ---------------------------------------------------------------------------

def test_by_reference_step_decodes_to_the_same_vars_as_inline(daemon):
    with connect(uri(daemon)) as near, connect(uri(daemon)) as far:
        assert near._nonce == daemon._nonce
        far._nonce = ""  # cannot read the daemon's memfd: another host, uid, namespace
        w = near.open("same", "w")
        by_ref, inline = near.open("same", "r"), far.open("same", "r")
        put(w, 0)        # the stream's first bulk step: inline, sizes the pool
        put(w, 1)
        stream = hosted(daemon, "same")
        assert counter(stream, M_NET_STEPS_PUBLISHED_BY_REF) == 1
        assert stream.active_transport == "shm"
        a, b = by_ref._fetch(1), inline._fetch(1)
        assert counter(stream, M_NET_STEPS_FETCHED_BY_REF) == 1
        assert len(a.vars) == len(b.vars) == 1
        for got, want in zip(a.vars, b.vars):
            assert got.keys() == want.keys()
            for key in got.keys() - {"data"}:
                assert got[key] == want[key], key
            assert got["data"].dtype == want["data"].dtype
            assert got["data"].tobytes() == want["data"].tobytes() == bulk(1).tobytes()
        # The step views the slot while it is pinned to this reader, and owns
        # its bytes before anything ends the pin: the slot goes round, they stay.
        assert by_ref._held[0] is a and np.shares_memory(a.vars[0]["data"], by_ref._link.pool)
        put(w, 2)
        by_ref._fetch(2)
        assert not np.shares_memory(a.vars[0]["data"], by_ref._link.pool)
        assert copied_out(by_ref) == 1
        for k in range(3, 3 + 2 * SLOTS):
            put(w, k)
        np.testing.assert_array_equal(a.vars[0]["data"], bulk(1))
        assert inline._link.pool is None and not far._pools  # the far peer mapped nothing
        for h in (w, by_ref, inline):
            h.close()


def test_blank_nonce_peer_exchanges_the_inline_frames_byte_for_byte(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("inline", "w")
        put(w, 0)
        put(w, 1)
        stream = hosted(daemon, "inline")
        assert stream.slot_of(stream.store.lookup(1)[1][1]) is not None  # slot-backed
        attach = {"session": c.session_id, "stream_id": "public/inline", "pushdown": False,
                  "chain": 0}
        # A raw v5 reader that could not read the nonce.
        reader = TcpChannel.connect(daemon.host, daemon.data_port)
        reader.sendv([encode_frame(MsgType.ATTACH, {**attach, "role": "r", "nonce": "", "rank": 0})])
        ok = encode_frame(
            MsgType.OK, {"detail": "attached", "stats": False}).as_array().tobytes()
        assert reader.recv(timeout=2.0).as_array().tobytes() == ok
        reader.sendv([encode_frame(MsgType.FETCH, {"step": 1, "wait": 0.0})])
        want = encode_frame(MsgType.STEP_DATA, {"count": 1, "pruned": 0})
        assert reader.recv(timeout=2.0).as_array().tobytes() == (
            want.as_array().tobytes() + run_bytes(1))
        assert counter(stream, M_NET_STEPS_FETCHED_BY_REF) == 0
        # And a raw writer with a wrong nonce: OK, never GRANT, bulk or not.
        writer = TcpChannel.connect(daemon.host, daemon.data_port)
        writer.sendv([encode_frame(MsgType.ATTACH, {**attach, "role": "w", "nonce": "00" * 8, "rank": 0})])
        assert writer.recv(timeout=2.0).as_array().tobytes() == ok
        reply = rpc(writer, MsgType.PUBLISH, {"step": 2, "count": 1, "eos": False, "seq": 3},
                    *encode_var(var_record(2)))
        assert reply.msg_type is MsgType.OK
        assert reply.record == {"detail": "published", "stats": False}
        assert stream.active_transport == "tcp"
        reader.close()
        writer.close()
        w._run._step, w._run._publish_seq = 3, 3  # what the hand-made PUBLISH used up
        w.close()


def test_small_runs_stay_inline_and_size_no_pool(daemon):
    n = INLINE_MAX // 8 - 64  # the whole run, heads included, is under the boundary
    with connect(uri(daemon)) as c:
        w, r = c.open("small", "w"), c.open("small", "r")
        for k in range(3):
            put(w, k, n)
            assert w._run._link.grant is None
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read_block("v", 0), bulk(k, n))
            r.end_step()
        stream = hosted(daemon, "small")
        assert stream.pool is None and stream.active_transport == "tcp"
        assert counter(stream, M_NET_STEPS_PUBLISHED_BY_REF) == 0
        w.close()
        r.close()


def test_a_parked_reader_woken_by_a_by_reference_step_is_told_where_it_is(daemon):
    # The publish that wakes a parked reader has recorded the step's slot
    # before the reader is answered: it gets the reference, not the bytes.
    with connect(uri(daemon)) as c:
        w = c.open("woken", "w")
        put(w, 0)  # inline, sizes the pool
        stream = hosted(daemon, "woken")
        reader = _DataLink(c, "public/woken", "r").channel
        reader.sendv([encode_frame(MsgType.FETCH, {"step": 1, "wait": 5.0})], timeout=2.0)
        settle(lambda: stream.parked, "the FETCH never parked")
        put(w, 1)  # by reference, into the writer's grant
        ref = decode_frame(reader.recv(timeout=2.0))
        assert ref.msg_type is MsgType.STEP_REF and ref.record["nbytes"] == len(run_bytes(1))
        assert counter(stream, M_NET_STEPS_FETCHED_BY_REF) == 1
        reader.close()
        w.close()


# ---------------------------------------------------------------------------
# A reference is checked against the grant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tamper", [
    lambda g: {"pool": g["pool"].rpartition("@")[0] + "@999"},
    lambda g: {"offset": g["offset"] + 4096},
    lambda g: {"offset": (g["offset"] + g["capacity"]) % (SLOTS * g["capacity"])},
    lambda g: {"nbytes": g["capacity"] + 1},
    lambda g: {"nbytes": -1},
], ids=["other-pool", "inside-the-slot", "another-slot", "over-capacity", "negative"])
def test_publish_ref_outside_the_grant_is_a_protocol_error(daemon, tamper):
    with connect(uri(daemon)) as c:
        w = c.open("strict", "w")
        put(w, 0)
        stream, link = hosted(daemon, "strict"), w._run._link
        assert len(stream.pool.free) == SLOTS - 1  # the writer's grant
        reply = publish_ref(link, 1, 2, **tamper(link.grant))
        assert reply.msg_type is MsgType.ERROR and reply.record["kind"] == "protocol"
        with pytest.raises(PeerDisconnected):
            link.channel.recv(timeout=2.0)  # and the daemon hung up
        settle(lambda: len(stream.pool.free) == SLOTS, "the grant was not given back")
        assert stream.store.last == 0 and len(stream.store) == 1
        link.close()
        w._closed = True  # its channel is gone; nothing to CLOSE politely


def test_publish_ref_without_a_grant_is_a_protocol_error(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("ungranted", "w")
        put(w, 0)
        c._nonce = ""
        link = _DataLink(c, "public/ungranted", "w")
        assert link.grant is None
        reply = rpc(link.channel, MsgType.PUBLISH_REF, {
            "step": 1, "count": 1, "eos": False, "seq": 2,
            "pool": w._run._link.grant["pool"], "offset": w._run._link.grant["offset"],
            "nbytes": 1024})
        assert reply.msg_type is MsgType.ERROR and reply.record["kind"] == "protocol"
        assert hosted(daemon, "ungranted").store.last == 0
        link.close()
        w.close()


def test_client_refuses_pool_names_that_are_not_daemon_memfds(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("names", "w")
        put(w, 0)
        w._run._link.grant = {**w._run._link.grant, "pool": "/etc/passwd"}
        w.begin_step()
        w.write("v", bulk(1))
        with pytest.raises(ProtocolError):
            w.end_step()
        w._run._link.grant = None
        w.end_step()  # the same step, inline
        assert hosted(daemon, "names").store.last == 1
        w.close()


def test_quota_refusal_of_a_by_reference_publish_stores_nothing():
    now = [0.0]
    d = make_daemon(tenants=[TenantSpec("public", max_bytes_per_s=400_000)],
                    clock=lambda: now[0])
    try:
        with connect(uri(d)) as c:
            w = c.open("quota", "w")
            put(w, 0)  # ≈ 262 KB of the 400 KB budget, inline
            stream, grant = hosted(d, "quota"), dict(w._run._link.grant)
            charged = d.metrics.counter("tenant.bytes", labels={"tenant": "public"})
            inline_charge = charged.value
            w.begin_step()
            w.write("v", bulk(1))
            with pytest.raises(QuotaExceeded):
                w.end_step()
            assert stream.store.last == 0 and charged.value == inline_charge
            assert stream.active_transport == "tcp"
            # Still this connection's, still unused; nothing else was taken.
            assert w._run._link.grant == grant and len(stream.pool.free) == SLOTS - 1
            now[0] += 10.0  # the bucket refills
            w.end_step()
            assert stream.store.last == 1 and stream.active_transport == "shm"
            # Charged like the frame it replaces: the run plus a small header.
            assert 0 <= (charged.value - inline_charge) - inline_charge < 100
            w.close()
    finally:
        d.stop()


# ---------------------------------------------------------------------------
# The lifetime rule: retained or pinned means not granted
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("release", ["next-fetch", "disconnect"])
def test_pinned_slot_is_not_granted_until_its_reader_moves_on(daemon, release):
    with connect(uri(daemon)) as c:
        w = c.open("pinned", "w")
        put(w, 0)
        put(w, 1)
        stream = hosted(daemon, "pinned")
        reader = _DataLink(c, "public/pinned", "r").channel
        ref = rpc(reader, MsgType.FETCH, {"step": 1, "wait": 0.0})
        assert ref.msg_type is MsgType.STEP_REF and ref.record["nbytes"] == len(run_bytes(1))
        pinned = ref.record["offset"]
        used = []
        for k in range(2, 2 + 3 * SLOTS):  # step 1 is long evicted
            used.append(w._run._link.grant["offset"])
            put(w, k)
        assert stream.store.lookup(1)[0] is Outcome.LOST
        assert pinned not in used and pinned not in stream.pool.free
        fd = os.open(ref.record["pool"].rpartition("@")[0], os.O_RDONLY)
        try:
            assert os.pread(fd, ref.record["nbytes"], pinned) == run_bytes(1)
        finally:
            os.close(fd)
        if release == "next-fetch":
            last = stream.store.last
            assert rpc(reader, MsgType.FETCH, {"step": last, "wait": 0.0}).msg_type in (
                MsgType.STEP_DATA, MsgType.STEP_REF)
        else:
            reader.close()
        settle(lambda: pinned in stream.pool.free,
               "the pin outlived its reader's next request")
        takers = [_DataLink(c, "public/pinned", "w") for _ in stream.pool.free]
        assert pinned in [t.grant["offset"] for t in takers]  # and it is granted again
        for h in (*takers, reader, w):
            h.close()


def test_unused_grant_returns_when_the_writer_disconnects(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("grants", "w")
        put(w, 0)
        stream = hosted(daemon, "grants")
        free = stream.monitor.metrics.gauge(M_NET_POOL_SLOTS_FREE, labels=stream._labels)
        assert len(stream.pool.free) == free.value == SLOTS - 1
        second = _DataLink(c, "public/grants", "w")
        assert second.grant["pool"] == w._run._link.grant["pool"]
        assert second.grant["offset"] != w._run._link.grant["offset"]
        assert len(stream.pool.free) == free.value == SLOTS - 2
        second.close()
        settle(lambda: len(stream.pool.free) == SLOTS - 1, "the grant was not given back")
        assert free.value == SLOTS - 1
        w.close()
        settle(lambda: len(stream.pool.free) == SLOTS, "the grant was not given back")


def test_duplicate_seq_voids_the_grant_it_named(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("dup", "w")
        put(w, 0)
        stream, link = hosted(daemon, "dup"), w._run._link
        first = publish_ref(link, 1, 2)
        assert first.msg_type is MsgType.GRANT and first.record["detail"] == "published"
        stored = stream.store.lookup(1)[1][1]
        link.grant = first.record
        again = publish_ref(link, 1, 2)  # the replay after a lost reply
        assert again.msg_type is MsgType.GRANT and again.record["detail"] == "duplicate"
        assert stream.store.lookup(1)[1][1] is stored and stream.store.last == 1
        assert counter(stream, "net.dup_publishes") == 1
        # One retained slot, one grant: the slot the replay named is not lost.
        assert len(stream.pool.free) == SLOTS - 2
        w._run._step, w._run._publish_seq = 2, 2
        link.grant = again.record
        put(w, 2)
        assert stream.store.lookup(2)[1][1].tobytes() == run_bytes(2)
        w.close()


def test_exhausted_pool_answers_ok_and_the_next_step_comes_inline(daemon):
    with connect(uri(daemon)) as c:
        w = c.open("full", "w")
        put(w, 0)
        stream = hosted(daemon, "full")
        hoarders = [_DataLink(c, "public/full", "w") for _ in range(SLOTS - 1)]
        assert all(h.grant is not None for h in hoarders) and stream.pool.free == []
        late = _DataLink(c, "public/full", "w")
        assert late.grant is None  # OK, not GRANT
        put(w, 1)                  # the writer's own grant: by reference
        assert stream.active_transport == "shm" and w._run._link.grant is None
        put(w, 2)                  # nothing free: the same API, the inline frame
        assert stream.active_transport == "tcp"
        assert stream.slot_of(stream.store.lookup(2)[1][1]) is None
        assert stream.store.lookup(2)[1][1].tobytes() == run_bytes(2)
        hoarders.pop().close()
        settle(lambda: stream.pool.free, "the grant was not given back")
        put(w, 3)                  # inline once more, and granted again
        assert w._run._link.grant is not None
        put(w, 4)
        assert stream.active_transport == "shm"
        for h in (*hoarders, late, w):
            h.close()


def test_oversize_run_goes_inline_and_sizes_a_new_generation(daemon):
    events = flight.reset()
    big = 4 * BULK
    with connect(uri(daemon)) as c:
        w, r = c.open("grow", "w"), c.open("grow", "r")
        put(w, 0)
        put(w, 1)
        stream = hosted(daemon, "grow")
        old = stream.pool
        old_name, old_fd = old.name, int(old.name.rpartition("@")[0].rsplit("/", 1)[1])
        assert os.readlink(f"/proc/self/fd/{old_fd}").startswith("/memfd:flexio-pool")
        assert r._fetch(1).vars[0]["data"].tobytes() == bulk(1).tobytes()
        assert old_name in c._pools
        put(w, 2, big)  # larger than a slot: inline, once
        assert stream.active_transport == "tcp" and stream.pool is not old
        assert stream.pool.capacity >= len(run_bytes(2, big))
        assert w._run._link.grant["pool"] == stream.pool.name
        old_ref = weakref.ref(old)
        del old
        assert old_ref() is not None  # step 1 still lives in it
        put(w, 3, big)  # by reference, in the new generation; evicts step 1
        assert stream.active_transport == "shm"
        for k in (2, 3):
            assert r._fetch(k).vars[0]["data"].tobytes() == bulk(k, big).tobytes()
        settle(lambda: old_ref() is None, "the old generation outlived its last step")
        assert old_name not in c._pools  # the session's mapping of it went too
        try:
            assert not os.readlink(f"/proc/self/fd/{old_fd}").startswith("/memfd:flexio-pool") \
                or old_fd == int(stream.pool.name.rpartition("@")[0].rsplit("/", 1)[1])
        except FileNotFoundError:
            pass  # closed, number not reused
        created = events.events(code=EV_NET_POOL_CREATE, stream="public/grow")
        retired = events.events(code=EV_NET_POOL_RETIRE, stream="public/grow")
        assert [e.as_dict()["pool"] for e in created] == [old_name, stream.pool.name]
        assert [e.as_dict()["pool"] for e in retired] == [old_name]
        w.close()
        r.close()


# ---------------------------------------------------------------------------
# The client half: read where it lies, hand out nothing of it
# ---------------------------------------------------------------------------

SHAPE = (256, 128)  # 256 KiB of float64
WHOLE = [BoundingBox((0, 0), SHAPE)]
HALVES = [BoundingBox((0, 0), (128, 128)), BoundingBox((128, 0), (128, 128))]


def field(k: int) -> np.ndarray:
    return (np.arange(SHAPE[0] * SHAPE[1], dtype=np.float64) + k).reshape(SHAPE)


def put_field(w, k: int, boxes=WHOLE) -> None:
    w.begin_step()
    for box in boxes:
        w.write("f", field(k)[box.slices()], box=box, global_shape=SHAPE)
    w.end_step()


def fetched_by_ref(d, name: str) -> int:
    return counter(hosted(d, name), M_NET_STEPS_FETCHED_BY_REF)


def _stride_one(plugins):  # compiles; its kernel returns a view of its input
    plugins.deploy(sampling_plugin(stride=1, only=("f",)), PluginSide.READER)


def _free_form(plugins):  # no kernel: assemble, then the interpreted chain
    plugins.deploy(DCPlugin("same", "def condition(vars):\n    return dict(vars)\n"),
                   PluginSide.READER)


#: name -> (writer boxes, deploy reader chain, read)
READS = {
    "read": (HALVES, None, lambda r: r.read("f")),
    "read_into": (HALVES, None, lambda r: r.read_into("f", np.empty(SHAPE))),
    "read_all": (HALVES, None, lambda r: r.read_all()["f"]),
    "read_block": (HALVES, None, lambda r: r.read_block("f", 0)),
    "fused_single_block": (WHOLE, _stride_one, lambda r: r.read("f")),
    "interpreted_chain": (WHOLE, _free_form, lambda r: r.read("f")),
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_no_read_hands_out_pool_memory(daemon, kind):
    boxes, deploy, read = READS[kind]
    with connect(uri(daemon)) as c:
        w, r = c.open("mine", "w"), c.open("mine", "r")
        if deploy is not None:
            deploy(r.plugins)
        put_field(w, 0, boxes)
        put_field(w, 1, boxes)
        assert r.begin_step(timeout=2.0) is StepStatus.OK  # step 0 came inline
        r.end_step()
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        assert r._held is not None and fetched_by_ref(daemon, "mine") == 1
        stream = hosted(daemon, "mine")
        run = stream.store.lookup(1)[1][1]
        pool, offset = stream.slot_of(run)
        slot, published = pool.arr[offset:offset + len(run)], run.tobytes()
        del run  # the stored object: the slot's life hangs on it
        got = read(r)
        assert not np.shares_memory(got, r._link.pool)
        r.end_step()
        for k in range(2, 14):  # the reader moves on, the slot goes round
            put_field(w, k, boxes)
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            r.end_step()
        assert slot.tobytes() != published
        assert got.tobytes() == field(1)[:got.shape[0]].tobytes()
        w.close()
        r.close()


def test_step_api_copies_nothing_out_and_the_legacy_style_once_a_step(daemon):
    with connect(uri(daemon)) as ca, connect(uri(daemon)) as cb:
        w, r, legacy = ca.open("styles", "w"), ca.open("styles", "r"), cb.open("styles", "r")
        for k in range(21):
            put_field(w, k)
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read("f"), field(k))
            r.end_step()
            assert r._held is None and (k == 0) == (k in r._cache)  # only inline steps stay
            # No begin/end: step k is still held when step k+1 is probed.
            if k:
                legacy._advance()
            np.testing.assert_array_equal(legacy.read("f"), field(k))
            with pytest.raises(StepNotReady):
                legacy._advance()
            assert legacy._held is None
            pool = legacy._link.pool
            assert pool is None or not np.shares_memory(legacy._cache[k]._wb, pool)
            np.testing.assert_array_equal(legacy.read("f"), field(k))
        assert fetched_by_ref(daemon, "styles") == 2 * 20  # all but the first, each
        assert copied_out(r) == 0 and copied_out(legacy) == 20
        for h in (w, r, legacy):
            h.close()


def test_a_read_of_a_released_index_fetches_it_again(daemon):
    with connect(uri(daemon)) as c:
        w, r = c.open("again", "w"), c.open("again", "r")
        put_field(w, 0)
        put_field(w, 1)
        for k in range(2):
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            np.testing.assert_array_equal(r.read("f"), field(k))
            r.end_step()
        fetches = c.monitor.metrics.counter(M_NET_FETCHES)
        before = fetches.value
        assert 1 not in r._cache and 0 in r._cache  # an inline step owns its bytes: kept
        np.testing.assert_array_equal(r.read("f"), field(1))
        assert fetches.value == before + 1 and fetched_by_ref(daemon, "again") == 2
        assert copied_out(r) == 0
        w.close()
        r.close()
        assert copied_out(r) == 1  # still held at close(): owned first


@pytest.mark.parametrize("ended_by", ["predicate-change", "injected-reset"])
def test_held_step_owns_its_bytes_before_the_client_ends_its_pin(daemon, ended_by):
    with connect(uri(daemon)) as c:
        w, r = c.open("midstep", "w"), c.open("midstep", "r", pushdown=True)
        put_field(w, 0)
        put_field(w, 1)
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        r.end_step()
        assert r.begin_step(timeout=2.0) is StepStatus.OK  # step 1, not ended
        held, channel = r._cache[1], r._link.channel
        assert r._held[0] is held
        put_field(w, 2)
        if ended_by == "predicate-change":
            r.plugins.deploy(range_select_plugin("f", 0, -1.0, 1e9), PluginSide.READER)
        else:
            daemon.injector = TransportFaultInjector(
                fail_ops=[1], kinds=[FaultKind.CONN_RESET])  # the next reply
        r._fetch(2)
        # A chain change re-ATTACHes nothing: the next FETCH ends the pin.
        assert (r._link.channel is not channel) == (ended_by == "injected-reset")
        assert (r.plugins.generation != 0) == (ended_by == "predicate-change")
        assert r._held[0] is not held and not np.shares_memory(held.vars[0]["data"], r._link.pool)
        assert copied_out(r) == 1
        for k in range(3, 3 + 2 * SLOTS):
            put_field(w, k)
        assert r._cache[1] is held
        np.testing.assert_array_equal(r.read("f"), field(1))  # still the current step
        daemon.injector = None
        w.close()
        r.close()


def test_owning_a_held_step_repoints_its_arrays_without_decoding_again(daemon, monkeypatch):
    """``own()`` copies the slot's run once and moves every decoded array
    and the block index onto the copy by offset: nothing views the slot
    after it, and everything equals what was read out of the slot."""
    import repro.net.client as client_mod

    with connect(uri(daemon)) as c:
        w, r = c.open("owned", "w"), c.open("owned", "r")
        put_field(w, 0, HALVES)
        put_field(w, 1, HALVES)
        assert r.begin_step(timeout=2.0) is StepStatus.OK  # step 0 came inline
        r.end_step()
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        held = r._held[0]
        before = r.read("f")  # builds the block index over the slot
        seen = [rec["data"].copy() for rec in held.vars]
        assert all(np.shares_memory(rec["data"], r._link.pool) for rec in held.vars)

        def no_decode(*_):
            raise AssertionError("own() decoded the run again")

        monkeypatch.setattr(client_mod, "decode_var", no_decode)
        r._release(own=True)
        monkeypatch.undo()
        assert r._held is None and copied_out(r) == 1
        datas = held.blocks("f")[1]
        assert [id(d) for d in datas] == [id(rec["data"]) for rec in held.vars]
        for rec, want in zip(held.vars, seen):
            data = rec["data"]
            assert not np.shares_memory(data, r._link.pool)
            assert np.shares_memory(data, held._wb)
            assert data.dtype == want.dtype and data.tobytes() == want.tobytes()
        np.testing.assert_array_equal(r.read("f"), before)
        r.end_step()
        w.close()
        r.close()


# ---------------------------------------------------------------------------
# Block bounds: stamped when the broker asks, bounded there meanwhile
# ---------------------------------------------------------------------------

def reductions_in(call) -> int:
    """numpy ``min`` / ``max`` / ``reduce`` calls made under ``call()``
    (not the builtins of the same names)."""
    seen = []

    def profile(_frame, event, arg):
        if (event == "c_call" and arg.__name__ in ("min", "max", "reduce")
                and arg.__module__ != "builtins"):
            seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(seen)


def stored_vars(stream, step: int) -> list[dict]:
    count, run, _pruned = stream.store.lookup(step)[1]
    out, offset = [], 0
    for _ in range(count):
        rec, offset = decode_var(run, offset)
        out.append(rec)
    return out


@pytest.mark.parametrize("reader", ["none", "no-predicate"])
def test_unasked_writer_stamps_no_bounds_and_reduces_nothing(daemon, reader):
    with connect(uri(daemon)) as c:
        w = c.open("unasked", "w")
        r = c.open("unasked", "r") if reader != "none" else None
        for k in range(2):  # inline, then by reference
            w.begin_step()
            w.write("v", bulk(k))
            assert reductions_in(w.end_step) == 0  # the step's blocks go out here
            assert w._run._link.stats is False
            (rec,) = stored_vars(hosted(daemon, "unasked"), k)
            assert not rec["has_stats"] and rec["vmin"] == rec["vmax"] == 0.0
            assert rec["data"].tobytes() == bulk(k).tobytes()
        w._run._link.stats = True  # what a reply would say once a reader prunes
        w.begin_step()
        w.write("v", bulk(2))
        assert reductions_in(w.end_step) >= 2
        (rec,) = stored_vars(hosted(daemon, "unasked"), 2)
        assert rec["has_stats"] and (rec["vmin"], rec["vmax"]) == (2.0, BULK + 1.0)
        for h in filter(None, (w, r)):
            h.close()


@pytest.mark.parametrize("colocated", [True, False], ids=["colocated", "nonce-blanked"])
def test_broker_bounds_the_window_then_the_writer_stamps(daemon, colocated):
    keep = np.random.default_rng(5).uniform(0.0, 0.5, size=(128, 128))
    drop = keep + 2.0
    with connect(uri(daemon)) as c:
        if not colocated:
            c._nonce = ""
        w = c.open("asked", "w")
        r = c.open("asked", "r", pushdown=True)
        r.plugins.deploy(range_select_plugin("f", 0, 0.0, 1.0), PluginSide.READER)
        stream = hosted(daemon, "asked")

        def step():
            w.begin_step()
            for box, data in zip(HALVES, (keep, drop)):
                w.write("f", data, box=box, global_shape=SHAPE)
            w.end_step()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            assert r.read("f").tobytes() == keep.tobytes()
            r.end_step()
            return (counter(stream, M_NET_BLOCKS_BOUNDED_BY_DAEMON),
                    counter(stream, M_PLUGIN_BLOCKS_SKIPPED), w._run._link.stats)

        # The writer's last reply predates the run's reader chain: both
        # blocks come unstamped, the broker bounds them, prunes one, and asks.
        assert step() == (2, 1, True)
        assert [v["has_stats"] for v in stored_vars(stream, 0)] == [False]
        # Asked: stamped by the writer, pruned against its stamps.
        assert step() == (2, 2, True)
        assert [v["has_stats"] for v in stored_vars(stream, 1)] == [True]
        assert (stream.pool is not None) == colocated
        r.close()
        settle(lambda: not stream.pushdown, "the pushdown reader outlived its close")
        w.begin_step()
        w.end_step()
        assert w._run._link.stats is False  # nobody asks for pruning now
        w.close()


#: What protocol v5 put on the wire for these records.  (STEP_DATA's
#: layout changed in v9: its bytes are pinned in ``tests/test_net_frames.py``'s
#: ``V7_FRAMES``.)
V5_FRAMES = {
    MsgType.PUBLISH: ({"step": 2, "count": 1, "eos": False, "seq": 3},
                      "0701ecf1051100000700000000000000cdf0f50f001c1d618ea61319fa190000"
                      "000000000002000000000000000100000000000000000300000000000000"),
    MsgType.FETCH: ({"step": 1, "wait": 0.0},
                    "0701ecf1051200000700000000000000cdf0f50f0049e46124fb89a3e0100000"
                    "000000000001000000000000000000000000000000"),
}
V5_VAR_HEADS = {
    True: "cdf0f50f00c2c0fe68499be50d670000000000000001000000760000000000000000000000"
          "00010000000400000000000000000000000000000000000000000000000000084001033c66"
          "380104000000000000002000000000000000",
    False: "cdf0f50f00c2c0fe68499be50d670000000000000001000000760000000000000000000000"
           "00010000000400000000000000000000000000000000000000000000000000000000033c66"
           "380104000000000000002000000000000000",
}


def test_inline_frames_are_the_parents_bytes_apart_from_the_version_byte():
    for msg_type, (record, v5) in V5_FRAMES.items():
        want = bytearray.fromhex(v5)
        assert want[4] == 5
        want[4] = PROTOCOL_VERSION
        assert encode_frame(msg_type, record, seq=7).as_array().tobytes() == bytes(want)
    data = np.arange(4, dtype=np.float64)
    for stamped, v5 in V5_VAR_HEADS.items():  # same layout, same size, either way
        head, tail = encode_var({
            "name": "v", "writer_rank": 0, "start": [], "shape": [4], "gshape": [],
            "vmin": 0.0, "vmax": 3.0 * stamped, "has_stats": stamped, "data": data})
        assert head.as_array().tobytes() == bytes.fromhex(v5) and tail is data


# ---------------------------------------------------------------------------
# Durability: a pool is not state
# ---------------------------------------------------------------------------

def spawn_daemon(ckpt, control=0, data=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.server", "--no-telemetry",
         "--control-port", str(control), "--data-port", str(data),
         "--retain-steps", "8", "--checkpoint", ckpt, "--checkpoint-sync",
         *(["--restore"] if control else [])],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, cwd=REPO,
    )
    return proc, *parse_ready_line(proc.stdout.readline())


def shm_entries():
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("flexio")}
    except OSError:
        return set()


def test_checkpoint_sigkill_restore_serves_every_acked_step_then_sizes_a_fresh_pool(tmp_path):
    before = shm_entries()
    ckpt = str(tmp_path / "daemon.ckpt")
    proc, host, control, data = spawn_daemon(ckpt)
    try:
        retry = RetryPolicy(max_retries=8, timeout=0.05, backoff_factor=2.0, jitter=0.25)
        with connect(f"flexio://{host}:{control}/public", retry=retry, timeout=2.0) as c:
            w = c.open("durable", "w")
            for k in range(3):
                put(w, k)  # acked: checkpointed, the slot-backed ones included
            first_pool = w._run._link.grant["pool"]
            assert first_pool.startswith(f"/proc/{proc.pid}/fd/")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            proc.stdout.close()
            assert shm_entries() == before  # a memfd has no name to leave behind
            proc = spawn_daemon(ckpt, control, data)[0]
            r = c.open("durable", "r", timeout=5.0)
            for k in range(3):  # restored payloads are ``bytes``: inline
                assert r.begin_step(timeout=5.0) is StepStatus.OK
                np.testing.assert_array_equal(r.read_block("v", 0), bulk(k))
                r.end_step()
            assert r._link.pool is None
            put(w, 3)  # the old grant died with its daemon: inline, sizes a fresh pool
            assert w._run._link.grant["pool"].startswith(f"/proc/{proc.pid}/fd/")
            put(w, 4)
            for k in (3, 4):
                assert r.begin_step(timeout=5.0) is StepStatus.OK
                np.testing.assert_array_equal(r.read_block("v", 0), bulk(k))
                r.end_step()
            assert r._link.pool is c._pools[w._run._link.grant["pool"]]
            gc.collect()  # the failed attempt's traceback held a view of the dead pool
            assert first_pool not in c._pools
            w.close()
            r.close()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert shm_entries() == before


# ---------------------------------------------------------------------------
# The store's contract, through the daemon, on both payload paths
# ---------------------------------------------------------------------------

class HostedStoreMachine(RuleBasedStateMachine):
    """Bulk steps through a live daemon against a plain ``StepStore``
    model: what a reader is told about step k — the bytes, lost, ended,
    not yet — is the model's answer, slot-backed or not."""

    colocated = True

    @initialize()
    def start(self):
        self.daemon = make_daemon()
        self.client = connect(uri(self.daemon))
        if not self.colocated:
            self.client._nonce = ""
        self.w = self.client.open("model", "w")
        self.r = self.client.open("model", "r")
        self.model = StepStore(RETAIN)
        self.open, self.bulk_seen = True, False

    def teardown(self):
        self.r.close()
        self.w._run._link.close()
        self.client.close()
        self.daemon.stop()

    @rule(n=st.sampled_from([BULK, BULK + 512, 64]))
    def publish(self, n):
        if self.open:
            k = self.model.last + 1
            put(self.w, k, n)
            self.model.append(k, bulk(k, n), n)
            self.bulk_seen |= n >= BULK

    @rule()
    def close(self):
        if self.open:
            self.w.close()
            self.model.end()
            self.open = False

    @rule(index=st.integers(0, 12))
    def fetch(self, index):
        outcome, want = self.model.lookup(index)
        self.r._cache.clear()
        self.r._deadline = None
        if outcome is Outcome.HIT:
            np.testing.assert_array_equal(self.r._fetch(index).vars[0]["data"], want)
        else:
            with pytest.raises(type(outcome_error(outcome, "step"))):
                self.r._fetch(index)

    @invariant()
    def slots_are_accounted_for(self):
        stream = hosted(self.daemon, "model")
        assert len(stream.store) == len(self.model)
        assert (stream.pool is not None) == (self.colocated and self.bulk_seen)
        if stream.pool is not None:
            granted = self.open and self.w._run._link.grant is not None
            assert len(stream.pool.free) + len(stream._slots) + granted <= SLOTS


@pytest.mark.parametrize("colocated", [True, False], ids=["colocated", "nonce-blanked"])
def test_hosted_store_agrees_with_the_step_store_model(colocated):
    machine = type("Machine", (HostedStoreMachine,), {"colocated": colocated})
    machine.TestCase.settings = settings(
        max_examples=6, stateful_step_count=14, deadline=None)
    machine.TestCase().runTest()


# ---------------------------------------------------------------------------
# Sanitizer kind net-slot-mutated
# ---------------------------------------------------------------------------

@pytest.fixture()
def san():
    was = sanitize.get()
    yield sanitize.enable(fresh=True)
    sanitize.disable()
    if was is not None:
        sanitize.enable()


@pytest.fixture()
def san_off():
    was = sanitize.get()
    sanitize.disable()
    yield
    if was is not None:
        sanitize.enable()


def test_sanitizer_flags_a_slot_rewritten_while_its_step_is_retained(san):
    d = make_daemon()
    try:
        with connect(uri(d)) as c:
            w, r = c.open("san", "w"), c.open("san", "r")
            for k in range(2 + 2 * SLOTS):  # slots go round: published, fetched, freed
                put(w, k)
                assert r.begin_step(timeout=2.0) is StepStatus.OK
                r.end_step()
            assert san.violations() == []
            stream = hosted(d, "san")
            pool, offset = stream.slot_of(stream.store.lookup(stream.store.last)[1][1])
            pool.arr[offset + 200] ^= 0xFF  # what a second grant of the slot would do
            r._cache.clear()
            r._fetch(stream.store.last)
            (violation,) = san.violations()
            assert violation.kind == sanitize.NET_SLOT_MUTATED
            assert "public/san" in violation.what
            pool.arr[offset + 200] ^= 0xFF  # as published again: freed without a second report
            w.close()
            r.close()
    finally:
        d.stop()


def test_sanitizer_flags_a_slot_rewritten_under_the_reader_that_holds_it(san):
    d = make_daemon()
    try:
        with connect(uri(d)) as c:
            w, r = c.open("held", "w"), c.open("held", "r")
            put(w, 0)
            put(w, 1)
            for release in (r.end_step, lambda: r._release(own=True)):
                r._cache.clear()
                r._cursor, r._step_consumed = 1, False
                assert r.begin_step(timeout=2.0) is StepStatus.OK
                (held, digest) = r._held
                assert held is r._cache[1] and digest is not None
                stream = hosted(d, "held")
                pool, offset = stream.slot_of(stream.store.lookup(1)[1][1])
                pool.arr[offset + 200] ^= 0xFF  # the pin did not hold
                release()
                pool.arr[offset + 200] ^= 0xFF
                if r._step_active:
                    r.end_step()
            first, second = san.violations()
            assert first.kind == second.kind == sanitize.NET_SLOT_MUTATED
            assert "public/held#1 (reader)" in first.what
            w.close()
            r.close()
    finally:
        d.stop()


def test_chaos_folds_what_a_workers_sanitizer_said_into_its_result():
    from repro.tools import chaos

    said = f"{sanitize.NET_SLOT_MUTATED}: public/s#1 (reader) — rewritten"
    script = (f"import sys; print({sanitize.STDERR_MARK + ' ' + said!r}, file=sys.stderr); "
              f"print({chaos._RESULT_MARK + '{}'!r})")
    for code, mark in ((script, chaos._RESULT_MARK), (script + "; sys.exit(9)", "")):
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        result = chaos._worker_result(proc, "reader")
        proc.stdout.close()
        assert result["sanitizer"] == [said]
        assert ("log" in result) == (not mark)  # died untyped: only its end state


def test_sanitizer_off_means_no_digest_is_taken(san_off, daemon):
    with connect(uri(daemon)) as c:
        w, r = c.open("nosan", "w"), c.open("nosan", "r")
        put(w, 0)
        put(w, 1)
        stream = hosted(daemon, "nosan")
        assert stream._san is None and r._san is None
        assert [ref[3] for ref in stream._slots.values()] == [None]
        r._fetch(1)
        assert r._held == (r._cache[1], None)
        w.close()
        r.close()


# ---------------------------------------------------------------------------
# Observability: which rung a stream is on
# ---------------------------------------------------------------------------

def test_monitor_shows_the_rung_a_stream_is_on():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], retain_steps=RETAIN).start()
    try:
        with connect(uri(d)) as c:
            w = c.open("rung", "w")
            put(w, 0)
            out = io.StringIO()
            assert monitor_tool.scrape_once(d.telemetry.url, out) == 0
            (row,) = [ln for ln in out.getvalue().splitlines() if "public/rung" in ln]
            assert " tcp " in row
            put(w, 1)
            out = io.StringIO()
            assert monitor_tool.scrape_once(d.telemetry.url, out) == 0
            (row,) = [ln for ln in out.getvalue().splitlines() if "public/rung" in ln]
            assert " shm " in row
            w.close()
    finally:
        d.stop()
