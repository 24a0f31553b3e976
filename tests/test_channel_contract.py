"""The contract every transport rung keeps, and the one both pools keep.

Each rung — shm (inline, pool, xpmem), tcp over a socketpair, and rdma —
is driven through the same checks: bytes round-trip identical with the
delivery's copies observed, the ``<rung>.bytes_sent`` /
``messages_sent`` counters, every fault kind the rung knows surfacing as
its typed exception with one counter increment and exactly one
``transport.fault`` flight event, and no lease outstanding after a torn
send.  ``ShmBufferPool`` and ``RegistrationCache`` share one free list;
the second half checks its bucketing, reuse, reclamation and
double-free refusal through each pool's public face.  The last part is
the same-node ``ShmArena``'s contract: which names a peer maps, and how a
reference it cannot honour fails.
"""

import gc
import threading
import weakref
from types import SimpleNamespace

import pytest

from repro.obs import sanitize
from repro.core.monitoring import PerfMonitor
from repro.net.client import RECONNECT_FAULTS, _DataLink
from repro.net.protocol import ProtocolError
from repro.machine.interconnect import GeminiInterconnect
from repro.obs import recorder as flight
from repro.obs.events import EV_FAULT
from repro.transport.buffers import Channel
from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    TransportFaultInjector,
    fault_exception,
)
from repro.transport.rdma import NntiFabric, RdmaChannel, RegistrationCache
from repro.transport.shm import ShmArena, ShmBufferPool, ShmChannel
from repro.transport.tcp import TcpChannel
from repro.util import KiB, MiB

_SEND_KINDS = (
    FaultKind.SEND_TIMEOUT,
    FaultKind.TORN_SEND,
    FaultKind.PEER_DISCONNECT,
    FaultKind.REGISTRATION_FAILURE,
)
_FRAME_KINDS = (
    FaultKind.TORN_FRAME,
    FaultKind.DROPPED_FRAME,
    FaultKind.DELAYED_FRAME,
    FaultKind.CONN_RESET,
    FaultKind.HALF_OPEN,
)


def _rdma(**kw):
    fabric = NntiFabric(GeminiInterconnect())
    a, b = fabric.endpoint(0, "sim-0"), fabric.endpoint(5, "viz-0")
    return RdmaChannel(fabric.connect(a, b), a, **kw)


def _rdma_leases(ch):
    return ch.sender.reg_cache.outstanding_leases + ch.receiver.reg_cache.outstanding_leases


#: name -> (rung, channel factory, payload bytes, fault kinds it knows,
#: outstanding leases of a channel).
RUNGS = {
    "shm-inline": ("shm", ShmChannel, 64, _SEND_KINDS,
                   lambda ch: ch.pool.outstanding_leases),
    "shm-pool": ("shm", ShmChannel, 64 * KiB, _SEND_KINDS,
                 lambda ch: ch.pool.outstanding_leases),
    "shm-xpmem": ("shm", lambda **kw: ShmChannel(use_xpmem=True, **kw), 64 * KiB,
                  _SEND_KINDS, lambda ch: ch.pool.outstanding_leases + len(ch._xpmem_segments)),
    "tcp": ("tcp", TcpChannel, 4 * KiB, _SEND_KINDS + _FRAME_KINDS, lambda ch: 0),
    "rdma": ("rdma", _rdma, 1 * MiB, _SEND_KINDS, _rdma_leases),
}

_FAULT_CASES = [
    pytest.param(name, kind, id=f"{name}-{kind.value}")
    for name, (_, _, _, kinds, _) in RUNGS.items()
    for kind in kinds
]


def _payload(nbytes: int) -> bytes:
    return bytes(range(256)) * (nbytes // 256) + bytes(nbytes % 256)


@pytest.fixture(autouse=True)
def no_violation_left_behind():
    """CI also runs this file under ``FLEXIO_SANITIZE=1``: every xpmem
    mapping is lent to the mapped-buffer rule, and no case may end with a
    violation on record."""
    active = sanitize.get()
    if active is not None:
        active.reset()
    yield
    if active is not None:
        active.assert_clean()


@pytest.fixture()
def open_channel():
    opened = []

    def make(name, **kw):
        ch = RUNGS[name][1](**kw)
        opened.append(ch)
        return ch

    yield make
    for ch in opened:
        ch.close()


def test_no_rung_defines_the_skeleton_itself():
    rungs = {ShmChannel, TcpChannel, RdmaChannel}
    assert rungs <= set(Channel.__subclasses__())
    for cls in rungs:
        assert not {"send", "sendv", "recv"} & set(vars(cls)), cls


@pytest.mark.parametrize("name", list(RUNGS))
def test_bytes_round_trip_and_are_counted(name, open_channel):
    rung, _, nbytes, _, leases = RUNGS[name]
    mon = PerfMonitor()
    ch = open_channel(name, monitor=mon)
    payload = _payload(nbytes)
    half = nbytes // 2
    ch.sendv([payload[:half], payload[half:]])
    out = ch.recv(timeout=5.0)  # a mapped 2-part message: a WireVector
    assert out.tobytes() == payload
    copies = mon.metrics.histogram("transport.copies")
    assert copies.count == 1 and copies.total == out.copies
    out.release()
    assert leases(ch) == 0
    assert mon.metrics.counter(f"{rung}.bytes_sent").value == nbytes
    assert mon.metrics.counter(f"{rung}.messages_sent").value == 1


def _provoke(ch, kind: FaultKind, payload: bytes) -> None:
    """One send with ``kind`` injected, then the receive that observes it
    when the send itself does not raise (a dropped frame, a half-open
    peer).  A delayed frame is held back by the sending thread: a receive
    that waits less times out, and the frame then arrives intact."""
    expected = type(fault_exception(kind, ""))
    if kind is FaultKind.DELAYED_FRAME:
        sender = threading.Thread(target=ch.sendv, args=([payload],))
        sender.start()
        try:
            with pytest.raises(expected):
                ch.recv(timeout=0.01)
        finally:
            sender.join()
        assert ch.recv(timeout=5.0) == payload
        return
    with pytest.raises(expected):
        ch.sendv([payload])
        ch.recv(timeout=0.1)


@pytest.mark.parametrize("name, kind", _FAULT_CASES)
def test_each_fault_kind_is_typed_counted_and_one_flight_event(name, kind, open_channel):
    rung, _, nbytes, _, leases = RUNGS[name]
    mon = PerfMonitor()
    ch = open_channel(name, monitor=mon, injector=TransportFaultInjector(
        fail_ops=[1], kinds=[kind]))
    recorder = flight.reset()
    _provoke(ch, kind, _payload(nbytes))
    assert mon.metrics.counter(f"faults.injected.{kind.value}").value == 1
    assert mon.metrics.counter("faults.injected.total").value == 1
    events = recorder.events(code=EV_FAULT)
    assert len(events) == 1
    attrs = dict(events[0].attrs)
    assert attrs["transport"] == rung and attrs["kind"] == kind.value
    assert attrs["nbytes"] == nbytes
    assert leases(ch) == 0


@pytest.mark.parametrize("name", list(RUNGS))
def test_a_fault_on_a_channel_without_a_monitor_is_still_a_flight_event(name, open_channel):
    ch = open_channel(name, injector=TransportFaultInjector(
        fail_ops=[1], kinds=[FaultKind.SEND_TIMEOUT]))
    recorder = flight.reset()
    _provoke(ch, FaultKind.SEND_TIMEOUT, _payload(RUNGS[name][2]))
    events = recorder.events(code=EV_FAULT)
    assert len(events) == 1
    assert dict(events[0].attrs)["transport"] == RUNGS[name][0]


@pytest.mark.parametrize("name", ["shm-pool", "shm-xpmem", "rdma"])
def test_a_torn_send_leaves_no_lease_and_the_retry_lands(name, open_channel):
    ch = open_channel(name, injector=TransportFaultInjector(
        fail_ops=[1], kinds=[FaultKind.TORN_SEND]))
    payload = _payload(RUNGS[name][2])
    _provoke(ch, FaultKind.TORN_SEND, payload)
    assert RUNGS[name][4](ch) == 0
    ch.sendv([payload])
    out = ch.recv(timeout=5.0)
    assert out == payload
    out.release()
    assert RUNGS[name][4](ch) == 0


# ---------------------------------------------------------------------------
# The shared free list, through each pool's public face
# ---------------------------------------------------------------------------

def _shm_pool(max_bytes=256 * MiB):
    return ShmBufferPool(max_bytes=max_bytes)


def _rdma_pool(max_bytes=512 * MiB):
    return RegistrationCache(GeminiInterconnect(), max_bytes=max_bytes)


#: name -> (pool factory, acquire -> (buffer, setup time), release of a
#: buffer, (reuse, fresh) stat names, (request, bucket) pairs).
POOLS = {
    "shm": (_shm_pool, lambda p, n: (p.acquire(n), 0.0),
            lambda p, b: p.release(b.buffer_id), ("reuses", "allocations"),
            [(1, 1), (1025, 2048), (4096, 4096)]),
    "rdma": (_rdma_pool, lambda p, n: p.acquire(n), lambda p, b: p.release(b),
             ("hits", "misses"), [(1, 4096), (4096, 4096), (5000, 8192)]),
}


@pytest.mark.parametrize("name", list(POOLS))
def test_pool_bucket_rounding(name):
    make, acquire, release, _, buckets = POOLS[name]
    pool = make()
    for request, size in buckets:
        assert acquire(pool, request)[0].size == size
    buf, _ = acquire(pool, 5000)
    assert buf.size == 8192
    release(pool, buf)
    # A 6000-byte request reuses the same 8 KiB buffer, at no setup cost.
    again, cost = acquire(pool, 6000)
    assert again is buf and cost == 0.0


@pytest.mark.parametrize("name", list(POOLS))
def test_pool_reuses_before_it_allocates(name):
    make, acquire, release, (reused, fresh), _ = POOLS[name]
    pool = make()
    buf, _ = acquire(pool, 32 * KiB)
    release(pool, buf)
    assert acquire(pool, 20 * KiB)[0] is buf
    assert getattr(pool.stats, fresh) == 1 and getattr(pool.stats, reused) == 1
    assert pool.total_bytes == 32 * KiB
    with pool.lease(32 * KiB) as lease:  # the one idle bucket is in use
        assert pool.outstanding_leases == 1 and lease.buffer_id != buf.buffer_id
    assert pool.outstanding_leases == 0


@pytest.mark.parametrize("name", list(POOLS))
def test_pool_reclaims_the_largest_idle_buffers_past_max_bytes(name):
    make, acquire, release, _, _ = POOLS[name]
    pool = make(max_bytes=96 * KiB)
    small, _ = acquire(pool, 32 * KiB)
    large, _ = acquire(pool, 64 * KiB)
    release(pool, small)
    release(pool, large)
    assert pool.stats.reclaimed == 0 and pool.total_bytes == 96 * KiB
    # 16 KiB more is over the bound: the idle 64 KiB buffer goes first,
    # and that is enough.
    acquire(pool, 16 * KiB)
    assert pool.stats.reclaimed == 1 and pool.total_bytes == 48 * KiB
    assert acquire(pool, 32 * KiB)[0] is small


@pytest.mark.parametrize("name", list(POOLS))
def test_pool_refuses_a_double_free(name):
    make, acquire, release, _, _ = POOLS[name]
    pool = make()
    buf, _ = acquire(pool, 100)
    release(pool, buf)
    with pytest.raises(ValueError, match="already free"):
        release(pool, buf)
    assert acquire(pool, 100)[0] is buf  # listed once, not twice
    assert acquire(pool, 100)[0] is not buf


# ---------------------------------------------------------------------------
# The same-node arena
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["not-an-arena", "arena-dropped", "slot-past-the-end"])
def test_arena_refuses_a_reference_it_cannot_honour(case):
    arena = ShmArena(4 * KiB)
    # What a data link's ``slot`` uses: its session's mappings.
    link = SimpleNamespace(
        client=SimpleNamespace(_pools=weakref.WeakValueDictionary()), pool=None)
    if case == "not-an-arena":
        # A peer maps an arena's memfd and nothing else: not a file, not a
        # path that walks on from one, not a bare fd without its generation.
        for name in ("/etc/passwd", f"{arena.name}/../../../etc/passwd",
                     arena.name.rpartition("@")[0], ""):
            with pytest.raises(ValueError, match="not a same-node arena"):
                ShmArena.map(name)
        with pytest.raises(ProtocolError):  # on the wire: the daemon broke the protocol
            _DataLink.slot(link, "/etc/passwd", 0, 16, write=False)
    elif case == "arena-dropped":
        name = arena.name
        del arena
        gc.collect()
        with pytest.raises(PeerDisconnected) as gone:
            _DataLink.slot(link, name, 0, 16, write=False)
        assert isinstance(gone.value, RECONNECT_FAULTS)  # its daemon is gone: re-dial
        assert name not in link.client._pools
    else:
        last = _DataLink.slot(link, arena.name, arena.capacity - 16, 16, write=False)
        assert last.nbytes == 16 and not last.flags.writeable
        with pytest.raises(ProtocolError, match="outside pool"):
            _DataLink.slot(link, arena.name, arena.capacity - 8, 16, write=False)
