"""Tests for the shared-memory transport: SPSC queue, buffer pool, channel."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitoring import PerfMonitor
from repro.machine.presets import SMOKY_NODE, TITAN_NODE
from repro.transport import (
    QueueClosed,
    QueueFull,
    ShmBufferPool,
    ShmChannel,
    ShmCostModel,
    SPSCQueue,
)
from repro.transport.buffers import LeaseError, Ownership, WireVector
from repro.transport.faults import FaultKind, TornSend, TransportFaultInjector
from repro.util import CACHE_LINE


# ---------------------------------------------------------------------------
# SPSC queue
# ---------------------------------------------------------------------------

def test_queue_entries_cache_line_aligned():
    q = SPSCQueue(slots=8, payload_size=100)
    assert q.entry_size % CACHE_LINE == 0
    assert q.entry_size >= 100 + 8


def test_queue_fifo_order():
    q = SPSCQueue(slots=4)
    for i in range(3):
        assert q.try_enqueue(f"msg{i}".encode())
    assert [q.try_dequeue() for _ in range(3)] == [b"msg0", b"msg1", b"msg2"]


def test_queue_full_and_empty_conditions():
    q = SPSCQueue(slots=2)
    assert q.try_enqueue(b"a")
    assert q.try_enqueue(b"b")
    assert not q.try_enqueue(b"c")  # full: next entry still FULL
    assert q.try_dequeue() == b"a"
    assert q.try_enqueue(b"c")      # slot freed
    assert q.try_dequeue() == b"b"
    assert q.try_dequeue() == b"c"
    assert q.try_dequeue() is None  # empty


def test_queue_wraps_many_times():
    q = SPSCQueue(slots=3)
    for i in range(100):
        assert q.try_enqueue(str(i).encode())
        assert q.try_dequeue() == str(i).encode()


def test_queue_oversized_message_rejected():
    q = SPSCQueue(slots=4, payload_size=16)
    with pytest.raises(ValueError):
        q.try_enqueue(b"x" * 17)


def test_queue_close_signals_end_of_stream():
    q = SPSCQueue(slots=4)
    q.try_enqueue(b"last")
    q.close()
    assert q.try_dequeue() == b"last"  # drained first
    with pytest.raises(QueueClosed):
        q.try_dequeue()
    with pytest.raises(QueueClosed):
        q.try_enqueue(b"late")


def test_queue_blocking_enqueue_times_out():
    q = SPSCQueue(slots=2)
    q.try_enqueue(b"a")
    q.try_enqueue(b"b")
    with pytest.raises(QueueFull):
        q.enqueue(b"c", timeout=0.01)


def test_queue_blocking_dequeue_times_out():
    q = SPSCQueue(slots=2)
    with pytest.raises(TimeoutError):
        q.dequeue(timeout=0.01)


def test_queue_stats_counters():
    q = SPSCQueue(slots=2)
    q.try_enqueue(b"ab")
    q.try_enqueue(b"cd")
    q.try_enqueue(b"ef")  # producer spin
    q.try_dequeue()
    assert q.stats.enqueued == 2
    assert q.stats.bytes_enqueued == 4
    assert q.stats.producer_spins == 1
    assert q.stats.dequeued == 1


def test_queue_validation():
    with pytest.raises(ValueError):
        SPSCQueue(slots=1)
    with pytest.raises(ValueError):
        SPSCQueue(payload_size=0)


def test_queue_cross_thread_stress():
    """Real producer/consumer threads move 2000 messages without loss,
    duplication, or reordering — the lock-free protocol at work."""
    q = SPSCQueue(slots=8, payload_size=64)
    n = 2000
    received = []

    def producer():
        for i in range(n):
            q.enqueue(f"{i:08d}".encode(), timeout=10)
        q.close()

    def consumer():
        while True:
            try:
                received.append(q.dequeue(timeout=10))
            except QueueClosed:
                return

    t1 = threading.Thread(target=producer)
    t2 = threading.Thread(target=consumer)
    t1.start(); t2.start()
    t1.join(20); t2.join(20)
    assert received == [f"{i:08d}".encode() for i in range(n)]


@settings(max_examples=30, deadline=None)
@given(msgs=st.lists(st.binary(min_size=0, max_size=64), max_size=50))
def test_queue_property_fifo(msgs):
    """Any interleaving of enqueue-then-dequeue preserves exact content."""
    q = SPSCQueue(slots=4, payload_size=64)
    out = []
    pending = list(msgs)
    while pending or len(q):
        while pending and q.try_enqueue(pending[0]):
            pending.pop(0)
        item = q.try_dequeue()
        if item is not None:
            out.append(item)
    assert out == list(msgs)


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

def test_pool_reuses_buffers():
    pool = ShmBufferPool()
    b1 = pool.acquire(1000)
    pool.release(b1.buffer_id)
    b2 = pool.acquire(900)  # same power-of-two bucket
    assert b2.buffer_id == b1.buffer_id
    assert pool.stats.allocations == 1
    assert pool.stats.reuses == 1


def test_pool_release_validation():
    pool = ShmBufferPool()
    b = pool.acquire(100)
    pool.release(b.buffer_id)
    with pytest.raises(ValueError):
        pool.release(b.buffer_id)
    with pytest.raises(KeyError):
        pool.release(9999)


def test_pool_reclamation_threshold():
    pool = ShmBufferPool(max_bytes=4096)
    bufs = [pool.acquire(2048) for _ in range(2)]
    for b in bufs:
        pool.release(b.buffer_id)
    # A differently-sized request forces a fresh allocation, pushing the
    # pool over its threshold and reclaiming the idle 2 KiB buffers.
    pool.acquire(8192)
    assert pool.stats.reclaimed >= 1
    assert pool.total_bytes <= 4096 + 8192


def test_pool_validation():
    with pytest.raises(ValueError):
        ShmBufferPool(max_bytes=0)
    pool = ShmBufferPool()
    with pytest.raises(ValueError):
        pool.acquire(0)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_channel_inline_small_messages():
    ch = ShmChannel()
    ch.send(b"hello")
    assert ch.recv() == b"hello"
    assert ch.inline_sends == 1
    assert ch.large_sends == 0


def test_channel_pool_path_for_large_messages():
    ch = ShmChannel()
    big = bytes(range(256)) * 64  # 16 KiB
    ch.send(big)
    wb = ch.recv()
    assert wb == big
    assert ch.large_sends == 1
    # One staging copy into the leased pool buffer; the consumer reads a
    # view of that buffer (the legacy path copied out a second time).
    assert ch.copies_per_large_message == 1
    assert wb.copies == 1
    assert ch.pool.stats.allocations == 1
    # The lease pins the buffer until the consumer releases the span.
    assert ch.pool.outstanding_leases == 1
    wb.release()
    assert ch.pool.outstanding_leases == 0
    ch.send(big)
    wb2 = ch.recv()
    assert wb2 == big
    wb2.release()
    assert ch.pool.stats.reuses == 1


def test_channel_numpy_payload():
    ch = ShmChannel()
    arr = np.arange(5000, dtype=np.float64)
    ch.send(arr)
    wb = ch.recv()
    out = wb.as_array(np.float64)
    np.testing.assert_array_equal(out, arr)
    wb.release()


def test_channel_xpmem_single_copy_cross_thread():
    """XPMEM path is synchronous: producer blocks until consumer detaches,
    so it must be exercised across threads."""
    ch = ShmChannel(use_xpmem=True)
    big = b"z" * 10000
    out = []
    copies = []

    def consumer():
        wb = ch.recv(timeout=10)
        copies.append(wb.copies)
        out.append(wb.tobytes())  # materialize before the detach
        wb.release()  # detach: unblocks the waiting producer

    t = threading.Thread(target=consumer)
    t.start()
    ch.send(big, timeout=10)
    t.join(10)
    assert out == [big]
    assert copies == [0]  # mapped pages: zero copies end to end
    assert ch.copies_per_large_message == 0
    assert ch.pool.stats.allocations == 0  # no pool buffer involved


def _sources():
    return [np.arange(n, dtype=np.float64) for n in (700, 900, 1100)]


def test_mapped_sendv_lets_one_thread_be_both_ends():
    """sendv → recv → release on the xpmem path never waits for a detach,
    copies nothing, leases nothing and leaves nothing mapped."""
    mon = PerfMonitor()
    ch = ShmChannel(use_xpmem=True, monitor=mon)
    sources = _sources()
    ch.sendv(sources)  # returns once the mapping is announced
    got = ch.recv()
    assert isinstance(got, WireVector) and len(got) == len(sources)
    assert (got.copies, got.ownership) == (0, Ownership.XPMEM)
    assert got.nbytes == sum(s.nbytes for s in sources)
    for span, src in zip(got, sources):
        arr = span.as_array(np.float64)
        assert (span.copies, span.ownership) == (0, Ownership.XPMEM)
        assert arr.flags.writeable is False and src.flags.writeable
        assert np.shares_memory(arr, src)
        np.testing.assert_array_equal(arr, src)
    assert list(ch._xpmem_segments) == [0]
    got.release()  # one release detaches the whole mapping
    assert got.released and all(span.released for span in got)
    assert ch._xpmem_segments == {}
    with pytest.raises(LeaseError):
        got.release()
    with pytest.raises(LeaseError):
        got[0].as_array()
    # One N-part delivery is one observation, on the xpmem path.
    hist = mon.metrics.histogram("transport.copies")
    assert (hist.count, hist.total) == (1, 0.0)
    assert mon.metrics.counter("transport.path.xpmem").value == 1
    # A mapping nobody received is unmapped by close().
    ch.sendv(sources)
    assert list(ch._xpmem_segments) == [1]
    ch.close()
    assert ch._xpmem_segments == {}
    assert ch.pool.stats.allocations == 0 and ch.large_sends == 2


def test_mapped_send_returns_only_after_the_consumer_detached():
    ch = ShmChannel(use_xpmem=True)
    big = np.arange(4096, dtype=np.float64)
    received, let_go, sent = (threading.Event() for _ in range(3))

    def consumer():
        wb = ch.recv(timeout=10)
        assert np.shares_memory(wb.as_array(), big)
        received.set()
        assert let_go.wait(10)
        wb.release()

    def producer():
        ch.send(big, timeout=10)
        sent.set()

    threads = [threading.Thread(target=f) for f in (consumer, producer)]
    for t in threads:
        t.start()
    assert received.wait(10)
    assert not sent.wait(0.05)  # attached, not detached: send() still blocked
    let_go.set()
    for t in threads:
        t.join(10)
    assert sent.is_set() and ch._xpmem_segments == {}
    # No consumer at all: the send times out and withdraws its mapping.
    with pytest.raises(TimeoutError):
        ch.send(big, timeout=0.02)
    assert ch._xpmem_segments == {} and ch.pool.stats.allocations == 0


def test_failed_mapped_send_withdraws_the_mapping():
    """Torn send = mapped, never announced; same cleanup when the
    announce itself times out.  Neither touches the pool."""
    ch = ShmChannel(
        queue=SPSCQueue(slots=2), use_xpmem=True,
        injector=TransportFaultInjector(fail_ops=[1], kinds=[FaultKind.TORN_SEND]),
    )
    sources = _sources()
    with pytest.raises(TornSend):
        ch.sendv(sources)
    assert ch._xpmem_segments == {} and len(ch.queue) == 0
    ch.sendv(sources)  # the retry
    ch.sendv(sources)
    with pytest.raises(QueueFull):  # both slots hold unreceived announces
        ch.sendv(sources, timeout=0.01)
    assert list(ch._xpmem_segments) == [1, 2]
    for _ in range(2):
        ch.recv().release()
    assert ch._xpmem_segments == {} and ch.pool.stats.allocations == 0


def test_channel_end_of_stream():
    ch = ShmChannel()
    ch.send(b"bye")
    ch.close()
    assert ch.recv() == b"bye"
    with pytest.raises(QueueClosed):
        ch.recv(timeout=0.1)


def test_channel_many_messages_mixed_sizes():
    ch = ShmChannel()
    msgs = [bytes([i % 251]) * (10 if i % 3 else 5000) for i in range(50)]
    consumed = []

    def consumer():
        for _ in msgs:
            consumed.append(ch.recv(timeout=10))

    t = threading.Thread(target=consumer)
    t.start()
    for m in msgs:
        ch.send(m, timeout=10)
    t.join(10)
    assert consumed == msgs


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def test_cost_model_cross_numa_slower():
    cm = ShmCostModel(SMOKY_NODE)
    same = cm.transfer_time(1 << 20, cross_numa=False)
    cross = cm.transfer_time(1 << 20, cross_numa=True)
    assert cross > same


def test_cost_model_xpmem_beats_two_copy_for_large():
    cm = ShmCostModel(TITAN_NODE)
    classic = cm.transfer_time(100 << 20, xpmem=False)
    xpmem = cm.transfer_time(100 << 20, xpmem=True)
    assert xpmem < classic
    # Roughly half: one copy instead of two.
    assert xpmem / classic == pytest.approx(0.5, abs=0.1)


def test_cost_model_small_message_latency():
    cm = ShmCostModel(SMOKY_NODE)
    assert cm.small_msg_time(False) < cm.small_msg_time(True)
    assert cm.transfer_time(0) == pytest.approx(cm.small_msg_time(False))


def test_cost_model_validation():
    cm = ShmCostModel(SMOKY_NODE)
    with pytest.raises(ValueError):
        cm.transfer_time(-1)
