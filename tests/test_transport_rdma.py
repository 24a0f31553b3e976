"""Tests for the RDMA transport: registration cache, NNTI, scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import GeminiInterconnect, InfinibandInterconnect
from repro.transport import (
    NntiFabric,
    RdmaChannel,
    RegistrationCache,
    TransferScheduler,
)
from repro.transport.rdma import TransferRequest
from repro.util import KiB, MiB


# ---------------------------------------------------------------------------
# Registration cache
# ---------------------------------------------------------------------------

def test_regcache_cold_acquire_pays_setup():
    cache = RegistrationCache(GeminiInterconnect())
    buf, cost = cache.acquire(1 * MiB)
    assert cost > 0
    assert buf.size >= 1 * MiB
    assert cache.stats.misses == 1


def test_regcache_hit_is_free():
    cache = RegistrationCache(GeminiInterconnect())
    buf, _ = cache.acquire(1 * MiB)
    cache.release(buf)
    buf2, cost = cache.acquire(1 * MiB)
    assert cost == 0.0
    assert buf2 is buf
    assert cache.stats.hits == 1
    assert cache.stats.setup_time_saved > 0


def test_regcache_reclamation():
    ic = GeminiInterconnect()
    cache = RegistrationCache(ic, max_bytes=64 * KiB)
    bufs = [cache.acquire(32 * KiB)[0] for _ in range(2)]
    for b in bufs:
        cache.release(b)
    # A larger request forces a fresh registration past the threshold,
    # reclaiming (deregistering) the idle 32 KiB buffers.
    cache.acquire(128 * KiB)
    assert cache.stats.reclaimed >= 1
    assert cache.total_bytes <= 64 * KiB + 128 * KiB


def test_regcache_double_release_rejected():
    cache = RegistrationCache(GeminiInterconnect())
    buf, _ = cache.acquire(100)
    cache.release(buf)
    with pytest.raises(ValueError):
        cache.release(buf)


def test_regcache_validation():
    with pytest.raises(ValueError):
        RegistrationCache(GeminiInterconnect(), max_bytes=0)
    cache = RegistrationCache(GeminiInterconnect())
    with pytest.raises(ValueError):
        cache.acquire(0)


# ---------------------------------------------------------------------------
# NNTI fabric / connections
# ---------------------------------------------------------------------------

def make_pair(ic=None):
    fabric = NntiFabric(ic or GeminiInterconnect())
    a = fabric.endpoint(0, "sim-0")
    b = fabric.endpoint(5, "viz-0")
    return fabric, a, b, fabric.connect(a, b)


def test_put_small_delivers_to_mailbox():
    _, a, b, conn = make_pair()
    t = conn.put_small(a, "hs", b"handshake")
    assert t > 0
    assert b.poll() == ("hs", b"handshake")
    assert b.poll() is None


def test_put_small_both_directions():
    _, a, b, conn = make_pair()
    conn.put_small(a, "x", b"to-b")
    conn.put_small(b, "y", b"to-a")
    assert b.poll() == ("x", b"to-b")
    assert a.poll() == ("y", b"to-a")


def test_get_bulk_moves_payload_and_charges_time():
    _, a, b, conn = make_pair()
    payload = b"p" * (4 * MiB)
    out, t = conn.get_bulk(b, payload)
    assert out == payload
    # Steady state after warm-up is faster (registration cache hits).
    out2, t2 = conn.get_bulk(b, payload)
    assert out2 == payload
    assert t2 < t


def test_get_bulk_same_node_loopback():
    fabric = NntiFabric(GeminiInterconnect())
    a = fabric.endpoint(3, "a")
    b = fabric.endpoint(3, "b")
    conn = fabric.connect(a, b)
    _, t_local = conn.get_bulk(b, b"x" * MiB)
    c = fabric.endpoint(9, "c")
    conn2 = fabric.connect(a, c)
    _, t_remote_cold = conn2.get_bulk(c, b"x" * MiB)
    _, t_remote = conn2.get_bulk(c, b"x" * MiB)  # warm
    assert t_local < t_remote_cold
    assert t_local < t_remote or t_local < t_remote_cold


def test_endpoint_name_collision_rejected():
    fabric = NntiFabric(GeminiInterconnect())
    fabric.endpoint(0, "x")
    with pytest.raises(ValueError):
        fabric.endpoint(1, "x")


def test_connection_rejects_foreign_endpoint():
    fabric, a, b, conn = make_pair()
    c = fabric.endpoint(7, "other")
    with pytest.raises(ValueError):
        conn.put_small(c, "t", b"")


# ---------------------------------------------------------------------------
# Transfer scheduler
# ---------------------------------------------------------------------------

def test_scheduler_single_flow_matches_wire_time():
    ic = GeminiInterconnect()
    sched = TransferScheduler(ic, max_concurrent=4)
    reqs = [TransferRequest(sender=0, nbytes=16 * MiB)]
    out = sched.schedule(reqs)
    assert len(out) == 1
    expected = ic.params.latency + 16 * MiB / min(ic.params.peak_bw, ic.injection_bw)
    assert out[0].finish == pytest.approx(expected, rel=0.01)


def test_scheduler_conserves_work():
    """Total bytes / ejection bandwidth lower-bounds the makespan."""
    ic = GeminiInterconnect()
    sched = TransferScheduler(ic, max_concurrent=4)
    reqs = [TransferRequest(i, 8 * MiB) for i in range(16)]
    span = sched.makespan(reqs)
    assert span >= (16 * 8 * MiB) / ic.injection_bw


def test_scheduler_concurrency_bound_respected():
    ic = GeminiInterconnect()
    sched = TransferScheduler(ic, max_concurrent=2)
    reqs = [TransferRequest(i, 4 * MiB) for i in range(8)]
    out = sched.schedule(reqs)
    # At any finish instant, count overlapping transfers.
    for t in out:
        overlapping = sum(
            1 for o in out if o.start < t.finish and o.finish > t.start
        )
        assert overlapping <= 2 + 1  # admission at completion instants may touch


def test_scheduler_bounded_concurrency_no_slower_than_flood():
    """With one shared ejection link, limiting concurrency does not hurt
    the makespan (it helps interference; see coupled-run model)."""
    ic = GeminiInterconnect()
    reqs = [TransferRequest(i, 8 * MiB) for i in range(12)]
    flood = TransferScheduler(ic, max_concurrent=12).makespan(reqs)
    limited = TransferScheduler(ic, max_concurrent=3).makespan(reqs)
    assert limited <= flood * 1.05


def test_scheduler_empty_and_validation():
    ic = GeminiInterconnect()
    sched = TransferScheduler(ic)
    assert sched.makespan([]) == 0.0
    with pytest.raises(ValueError):
        TransferScheduler(ic, max_concurrent=0)
    with pytest.raises(ValueError):
        sched.schedule([TransferRequest(0, -5)])


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64 * MiB), min_size=1, max_size=20),
    k=st.integers(min_value=1, max_value=8),
)
def test_scheduler_property_all_finish_and_ordered(sizes, k):
    ic = InfinibandInterconnect()
    sched = TransferScheduler(ic, max_concurrent=k)
    reqs = [TransferRequest(i, s) for i, s in enumerate(sizes)]
    out = sched.schedule(reqs)
    assert len(out) == len(reqs)
    for t in out:
        assert t.finish > t.start >= 0.0
    # Work conservation within the shared link.
    assert max(t.finish for t in out) >= sum(sizes) / ic.injection_bw


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_rdma_channel_small_and_large_paths():
    _, a, b, conn = make_pair()
    ch = RdmaChannel(conn, sender=a)
    t_small = ch.send(b"tiny")
    t_large = ch.send(b"X" * (2 * MiB))
    assert ch.small_sends == 1 and ch.large_sends == 1
    assert t_large > t_small
    assert ch.recv() == b"tiny"
    assert ch.recv() == b"X" * (2 * MiB)
    assert ch.recv() is None
