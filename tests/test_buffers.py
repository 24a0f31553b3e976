"""Zero-copy buffer plane tests: leases, spans, vectors, copy counts.

Covers the lease lifecycle discipline (exactly one release, liveness
checks, sanitizer integration), :class:`WireVector` scatter-gather
semantics, the per-path ``transport.copies`` histogram (inline=2,
pool=1, xpmem=0), and a property test that the view-based codec paths
(:func:`encode_into` / :func:`decode_view`) are byte- and
value-identical to the legacy bytes codec.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs import sanitize
from repro.obs.sanitize import (
    LEASE_DOUBLE_RELEASE,
    LEASE_LEAK,
    LEASE_USE_AFTER_RELEASE,
)
from repro.core.monitoring import PerfMonitor
from repro.machine.interconnect import GeminiInterconnect
from repro.marshal import (
    Field,
    FieldKind,
    Format,
    FormatRegistry,
    decode_message,
    decode_view,
    encode_into,
    encode_message,
    encoded_size,
)
from repro.transport.buffers import (
    COPIES_INLINE,
    COPIES_POOL,
    COPIES_XPMEM,
    LeaseError,
    Ownership,
    WireBuffer,
    WireVector,
)
from repro.transport.rdma import NntiFabric, RdmaChannel
from repro.transport.shm import ShmBufferPool, ShmChannel


@pytest.fixture()
def san():
    was = sanitize.get()  # under FLEXIO_SANITIZE=1 the later tests keep one
    yield sanitize.enable(fresh=True)
    sanitize.disable()
    if was is not None:
        sanitize.enable()


def kinds(instance):
    return sorted({v.kind for v in instance.violations()})


# ---------------------------------------------------------------------------
# Lease lifecycle
# ---------------------------------------------------------------------------

def test_lease_acquire_fill_release():
    pool = ShmBufferPool()
    lease = pool.lease(1024)
    assert pool.outstanding_leases == 1
    lease.data[:4] = (1, 2, 3, 4)
    assert bytes(lease.view(4)) == b"\x01\x02\x03\x04"
    assert lease.capacity >= 1024
    lease.release()
    assert lease.released
    assert pool.outstanding_leases == 0
    # The buffer went back on the free list: the next lease reuses it.
    pool.lease(1024).release()
    assert pool.stats.reuses == 1


def test_lease_double_release_raises():
    pool = ShmBufferPool()
    lease = pool.lease(64)
    lease.release()
    with pytest.raises(LeaseError):
        lease.release()
    # The double release must not corrupt the pool's accounting.
    assert pool.outstanding_leases == 0


def test_lease_use_after_release_raises():
    pool = ShmBufferPool()
    lease = pool.lease(64)
    lease.release()
    with pytest.raises(LeaseError):
        lease.data
    with pytest.raises(LeaseError):
        lease.view()


def test_lease_context_manager_releases_once():
    pool = ShmBufferPool()
    with pool.lease(64) as lease:
        lease.data[0] = 7
    assert lease.released
    assert pool.outstanding_leases == 0


def test_sanitizer_flags_lease_violations(san):
    pool = ShmBufferPool()
    lease = pool.lease(64)
    lease.release()
    with pytest.raises(LeaseError):
        lease.release()
    with pytest.raises(LeaseError):
        lease.data
    assert LEASE_DOUBLE_RELEASE in kinds(san)
    assert LEASE_USE_AFTER_RELEASE in kinds(san)


def test_sanitizer_flags_leaked_lease(san):
    pool = ShmBufferPool()
    pool.lease(64)  # never released
    leaked = san.check_leases()
    assert [v.kind for v in leaked] == [LEASE_LEAK]


def test_sanitizer_clean_on_disciplined_use(san):
    pool = ShmBufferPool()
    with pool.lease(64):
        pass
    assert san.check_leases() == []
    assert san.violations() == []


# ---------------------------------------------------------------------------
# WireBuffer
# ---------------------------------------------------------------------------

def test_wirebuffer_wrap_is_a_view():
    arr = np.arange(16, dtype=np.uint8)
    wb = WireBuffer(arr)
    assert wb.nbytes == 16
    assert wb.ownership is Ownership.HEAP
    arr[0] = 99  # the span aliases the source, no copy was taken
    assert wb.as_array()[0] == 99
    assert wb.as_array(np.uint32).shape == (4,)
    assert bytes(wb.view) == arr.tobytes()
    assert wb == arr
    assert wb == arr.tobytes()
    assert len(wb) == 16


def test_wirebuffer_release_discipline():
    pool = ShmBufferPool()
    lease = pool.lease(32)
    wb = WireBuffer.from_lease(lease, 8)
    assert wb.copies == COPIES_POOL
    wb.release()
    assert lease.released  # releasing the span releases the lease
    with pytest.raises(LeaseError):
        wb.as_array()
    with pytest.raises(LeaseError):
        wb.release()


def test_wirebuffer_on_release_callback_fires_once():
    fired = []
    wb = WireBuffer(b"abc", ownership=Ownership.XPMEM,
                    on_release=lambda: fired.append(1))
    wb.release()
    assert fired == [1]


# ---------------------------------------------------------------------------
# WireVector
# ---------------------------------------------------------------------------

def test_wirevector_length_iteration_and_lazy_nbytes():
    vec = WireVector([b"ab", np.arange(3, dtype=np.uint8)])
    assert len(vec) == 2
    assert vec.nbytes == 5
    assert [p.nbytes for p in vec] == [2, 3]
    assert vec[1].nbytes == 3
    vec.append(b"cdef")  # invalidates the cached total
    assert vec.nbytes == 9
    dest = np.zeros(16, dtype=np.uint8)
    end = vec.copy_into(dest, offset=1)
    assert end == 10
    assert bytes(dest[1:10]) == b"ab\x00\x01\x02cdef"
    assert vec.tobytes() == b"ab\x00\x01\x02cdef"


def test_wirevector_spans_are_made_on_demand_and_share_its_liveness(monkeypatch):
    """Parts are byte views: building and walking a vector makes no span.
    A span made by indexing carries the vector's ownership and copies,
    is the same object the next time, and is released with the vector;
    one made after release is born released."""
    made = []
    real_init = WireBuffer.__init__

    def counting_init(self, *args, **kw):
        made.append(self)
        real_init(self, *args, **kw)

    monkeypatch.setattr(WireBuffer, "__init__", counting_init)
    sources = [np.arange(4, dtype=np.float64), np.arange(6, dtype=np.int32)]
    vec = WireVector(sources, ownership=Ownership.XPMEM, copies=COPIES_XPMEM)
    views = vec.views()
    assert made == []
    assert [v.dtype for v in views] == [np.uint8, np.uint8]
    assert all(np.shares_memory(v, src) for v, src in zip(views, sources))
    first = vec[0]
    assert made == [first] and vec[0] is first and next(iter(vec)) is first
    assert (first.ownership, first.copies) == (Ownership.XPMEM, COPIES_XPMEM)
    np.testing.assert_array_equal(first.as_array(np.float64), sources[0])
    vec.release()
    assert first.released and vec[1].released
    for span in (first, vec[1]):
        with pytest.raises(LeaseError):
            span.as_array()
    with pytest.raises(LeaseError):
        vec.views()


def test_wirevector_walks_mixed_parts_and_releases_a_leased_one_once():
    pool = ShmBufferPool()
    lease = pool.lease(8)
    lease.data[:8] = np.arange(8, dtype=np.uint8)
    leased = WireBuffer.from_lease(lease, 8)
    vec = WireVector([b"ab", leased])
    vec.append(np.arange(3, dtype=np.uint8))
    assert [bytes(v) for v in vec.views()] == [b"ab", bytes(range(8)), b"\x00\x01\x02"]
    assert vec[1] is leased  # a span handed in stays itself
    # A slice is its spans (a transactional prepare is a rank's slice).
    assert vec[0:3:2] == [vec[0], vec[2]] and vec[1:][0] is leased
    assert WireVector(vec[1:]).tobytes() == bytes(range(8)) + b"\x00\x01\x02"
    assert pool.outstanding_leases == 1
    vec.release()
    assert leased.released and lease.released and pool.outstanding_leases == 0
    with pytest.raises(LeaseError):
        vec.release()
    # A part its consumer released first is not released a second time.
    again = pool.lease(8)
    part = WireBuffer.from_lease(again, 8)
    vec = WireVector([part])
    part.release()
    vec.release()
    assert again.released and pool.outstanding_leases == 0


def test_wirevector_empty():
    vec = WireVector()
    assert len(vec) == 0
    assert vec.nbytes == 0
    assert vec.tobytes() == b""


# ---------------------------------------------------------------------------
# Per-path copy counts (the transport.copies histogram)
# ---------------------------------------------------------------------------

def _copies_hist(mon):
    return mon.metrics.histogram("transport.copies")


def test_shm_inline_counts_two_copies():
    mon = PerfMonitor()
    ch = ShmChannel(monitor=mon)
    ch.send(b"small")
    wb = ch.recv()
    assert wb.copies == COPIES_INLINE
    h = _copies_hist(mon)
    assert (h.count, h.total) == (1, float(COPIES_INLINE))
    assert mon.metrics.counter("transport.path.inline").value == 1


def test_shm_pool_counts_one_copy():
    mon = PerfMonitor()
    ch = ShmChannel(monitor=mon)
    ch.send(b"x" * 50_000)
    wb = ch.recv()
    assert wb.copies == COPIES_POOL
    wb.release()
    h = _copies_hist(mon)
    assert (h.count, h.total) == (1, float(COPIES_POOL))
    assert mon.metrics.counter("transport.path.pool").value == 1


def test_shm_xpmem_counts_zero_copies_end_to_end():
    mon = PerfMonitor()
    ch = ShmChannel(use_xpmem=True, monitor=mon)
    got = []

    def consumer():
        wb = ch.recv(timeout=10)
        got.append((wb.copies, wb.ownership))
        wb.release()

    t = threading.Thread(target=consumer)
    t.start()
    ch.send(b"z" * 50_000, timeout=10)
    t.join(10)
    assert got == [(COPIES_XPMEM, Ownership.XPMEM)]
    h = _copies_hist(mon)
    assert h.count == 1
    assert h.total == 0.0  # zero copies observed, still one observation
    assert h.zero_count == 1
    assert mon.metrics.counter("transport.path.xpmem").value == 1


def test_rdma_paths_count_one_copy():
    mon = PerfMonitor()
    fabric = NntiFabric(GeminiInterconnect())
    a = fabric.endpoint(0, "sim-0")
    b = fabric.endpoint(5, "viz-0")
    conn = fabric.connect(a, b)
    ch = RdmaChannel(conn, sender=a, monitor=mon)
    ch.send(b"tiny")
    small = ch.recv()
    ch.send(b"y" * (1 << 20))
    bulk = ch.recv()
    assert small.copies == 1 and small.ownership is Ownership.HEAP
    assert bulk.copies == 1 and bulk.ownership is Ownership.RDMA
    bulk.release()
    h = _copies_hist(mon)
    assert (h.count, h.total) == (2, 2.0)


# ---------------------------------------------------------------------------
# View-based codec round trips
# ---------------------------------------------------------------------------

def _fmt():
    return Format(
        "buffers_prop",
        (
            Field("ts", FieldKind.INT64),
            Field("label", FieldKind.STRING),
            Field("flag", FieldKind.BOOL),
            Field("blob", FieldKind.BYTES),
            Field("offsets", FieldKind.LIST_INT64),
            Field("grid", FieldKind.ARRAY),
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    ts=st.integers(min_value=-(2**62), max_value=2**62),
    label=st.text(max_size=30),
    flag=st.booleans(),
    blob=st.binary(max_size=100),
    offsets=st.lists(
        st.integers(min_value=-(2**40), max_value=2**40), max_size=10
    ),
    grid=hnp.arrays(
        dtype=st.sampled_from([np.float64, np.int64, np.float32, np.uint8]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
    ),
)
def test_property_encode_into_matches_bytes_codec(
    ts, label, flag, blob, offsets, grid
):
    fmt = _fmt()
    record = {"ts": ts, "label": label, "flag": flag, "blob": blob,
              "offsets": offsets, "grid": grid}
    legacy = encode_message(fmt, record)
    need = encoded_size(fmt, record)
    assert need == len(legacy)
    with ShmBufferPool().lease(need) as lease:
        written = encode_into(fmt, record, lease.view(need))
        assert written == need
        # Byte-identical wire image through the leased buffer.
        assert bytes(lease.view(need)) == legacy
        got_fmt, got, consumed = decode_view(lease.data[:need], FormatRegistry())
    assert consumed == need
    assert got_fmt.format_id == fmt.format_id
    _, want = decode_message(legacy, FormatRegistry())
    assert got["ts"] == want["ts"]
    assert got["label"] == want["label"]
    assert got["flag"] == want["flag"]
    assert bytes(got["blob"]) == bytes(want["blob"])
    assert got["offsets"] == want["offsets"]
    np.testing.assert_array_equal(got["grid"], want["grid"])
    assert got["grid"].dtype == grid.dtype


def test_decode_view_arrays_are_views_not_copies():
    fmt = Format("v", (Field("a", FieldKind.ARRAY),))
    arr = np.arange(64, dtype=np.float32)
    wire = np.frombuffer(encode_message(fmt, {"a": arr}), dtype=np.uint8)
    _, rec, _ = decode_view(wire, FormatRegistry())
    assert rec["a"].base is not None  # a view over the wire image
    np.testing.assert_array_equal(rec["a"], arr)


def test_decode_view_accepts_wirebuffer():
    fmt = Format("wbv", (Field("a", FieldKind.ARRAY),))
    arr = np.arange(8, dtype=np.int64)
    wb = WireBuffer(encode_message(fmt, {"a": arr}))
    _, rec, _ = decode_view(wb, FormatRegistry())
    np.testing.assert_array_equal(rec["a"], arr)


def test_encode_into_rejects_short_destination():
    from repro.marshal import MarshalError

    fmt = Format("short", (Field("a", FieldKind.INT64),))
    record = {"a": 1}
    need = encoded_size(fmt, record)
    buf = bytearray(need - 1)
    with pytest.raises(MarshalError):
        encode_into(fmt, record, memoryview(buf))
