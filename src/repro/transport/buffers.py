"""Zero-copy buffer plane shared by the SHM and RDMA transports.

FlexIO's intra-node story is counted in copies — the 2-copy shm-pool
path vs the 1-copy XPMEM page mapping (paper Section II.D) — and its
RDMA path exists to avoid staging copies entirely.  This module gives
every layer a common vocabulary for *spans of wire memory* so payloads
flow producer → consumer without intermediate ``bytes(...)``
materialization:

* :class:`WireBuffer` — one contiguous span with explicit ownership
  (heap, pool-leased, xpmem-mapped, registered-RDMA), a liveness
  contract (access after :meth:`~WireBuffer.release` raises), and the
  number of copies the payload underwent on its way here.
* :class:`WireVector` — a scatter-gather list of byte views, spans made
  on demand; transports gather it straight into a slot or a leased
  buffer, never through a ``b"".join``.
* :class:`BufferLease` / :class:`LeasePool` — the one size-bucketed
  free list behind the SHM buffer pool and the RDMA registration
  cache, and its acquire/release protocol: exactly one release per
  lease, and the concurrency sanitizer tracks leaks and
  use-after-release when enabled.
* :class:`Channel` — the ``send``/``sendv``/``recv`` skeleton of the
  :class:`~repro.transport.shm.ShmChannel`,
  :class:`~repro.transport.tcp.TcpChannel` and
  :class:`~repro.transport.rdma.RdmaChannel` rungs: spans, counters,
  the fault consult, and every delivery's copy count in the
  ``transport.copies`` histogram.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from repro.analysis import sanitize
from repro.obs.names import F_TRANSPORT_PATH, metric_name, validate_metric
from repro.transport.faults import FaultKind, fault_exception, record_injected

__all__ = [
    "Ownership",
    "LeaseError",
    "BufferLease",
    "LeasePool",
    "PoolBuffer",
    "WireBuffer",
    "WireVector",
    "Channel",
    "as_byte_view",
    "emit_gauges",
    "COPIES_XPMEM",
    "COPIES_POOL",
    "COPIES_INLINE",
]

#: Copy counts per delivery path (the paper's Section II.D accounting):
#: an xpmem-mapped span reaches the consumer with no transport copy, the
#: pool path stages once in shared memory, and inline slot messages are
#: copied in and copied out.
COPIES_XPMEM = 0
COPIES_POOL = 1
COPIES_INLINE = 2


class Ownership(enum.Enum):
    """Who owns the memory behind a :class:`WireBuffer`."""

    HEAP = "heap"    #: plain process memory, garbage-collector owned
    POOL = "pool"    #: leased from a producer-owned shm buffer pool
    XPMEM = "xpmem"  #: mapped view of the producer's source pages
    RDMA = "rdma"    #: leased registered-RDMA memory


class LeaseError(RuntimeError):
    """Lease-discipline violation: double release or use after release."""


def as_byte_view(part: Union[bytes, bytearray, memoryview, np.ndarray]) -> np.ndarray:
    """A flat uint8 view of one wire part — copy-free for bytes,
    memoryviews, and contiguous arrays; only non-contiguous arrays are
    compacted."""
    if isinstance(part, WireBuffer):
        return part.as_array()
    if isinstance(part, np.ndarray):
        arr = part if part.flags.c_contiguous else np.ascontiguousarray(part)
        return arr.reshape(-1).view(np.uint8)
    return np.frombuffer(part, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------

class BufferLease:
    """Exclusive hold on one pooled buffer: acquire → fill/read → release.

    Exactly one :meth:`release` per lease; a second raises
    :class:`LeaseError`, and any access after release raises too.  Both
    conditions are also reported to the concurrency sanitizer when it is
    active, and :meth:`Sanitizer.check_leases` flags leases never
    released at all (leaks).
    """

    __slots__ = ("pool", "buffer_id", "nbytes", "setup_time", "label",
                 "_data", "_released")

    def __init__(
        self,
        pool: "LeasePool",
        buffer_id: int,
        data: np.ndarray,
        nbytes: int,
        setup_time: float = 0.0,
        label: str = "",
    ) -> None:
        self.pool = pool
        self.buffer_id = buffer_id
        #: Requested payload bytes (the backing buffer may be larger).
        self.nbytes = int(nbytes)
        #: Allocation/registration cost paid acquiring this lease (s).
        self.setup_time = setup_time
        self.label = label or f"lease#{buffer_id}"
        self._data = data
        self._released = False
        san = sanitize.get()
        if san is not None:
            san.note_lease_acquired(self, self.label)

    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    @property
    def capacity(self) -> int:
        """Full size of the backing buffer."""
        return self._data.nbytes

    def _check_live(self, what: str) -> None:
        if self._released:
            san = sanitize.get()
            if san is not None:
                san.note_lease_use_after_release(self.label, what)
            raise LeaseError(f"{what} on released {self.label}")

    @property
    def data(self) -> np.ndarray:
        """The full-capacity backing array (liveness-checked)."""
        self._check_live("data access")
        return self._data

    def view(self, nbytes: Optional[int] = None) -> memoryview:
        """A writable memoryview over the first ``nbytes`` (default: the
        leased length)."""
        self._check_live("view")
        n = self.nbytes if nbytes is None else int(nbytes)
        return memoryview(self._data)[:n]

    def release(self) -> None:
        """Return the buffer to its pool; exactly once per lease."""
        if self._released:
            san = sanitize.get()
            if san is not None:
                san.note_lease_double_release(self.label)
            raise LeaseError(f"double release of {self.label}")
        self._released = True
        san = sanitize.get()
        if san is not None:
            san.note_lease_released(self)
        self.pool._lease_released(self)

    def __enter__(self) -> "BufferLease":
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._released:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "released" if self._released else "live"
        return f"<BufferLease {self.label} {self.nbytes}B {state}>"


class PoolBuffer:
    """One buffer of a :class:`LeasePool`: its id, its bucket size, and
    its memory, allocated on first use — a pool driven only for its
    accounting (``acquire``/``release`` in the cost models) never pays
    for pages it does not touch."""

    __slots__ = ("buffer_id", "size", "in_use", "_data")

    def __init__(self, buffer_id: int, size: int) -> None:
        self.buffer_id = buffer_id
        self.size = size
        self.in_use = True
        self._data: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = np.zeros(self.size, dtype=np.uint8)
        return self._data


class LeasePool(abc.ABC):
    """A size-bucketed free list of reusable buffers, and the
    acquire/release protocol behind :class:`BufferLease`.

    A request rounds up to a power of two no smaller than ``floor`` (the
    paper's "closest size" search) and is served from that size's free
    list before anything is allocated.  Past ``max_bytes`` held, idle
    buffers are reclaimed, largest first.  Releasing a free buffer is
    refused.  One lock guards the free lists and the lease count.

    :class:`~repro.transport.shm.ShmBufferPool` and
    :class:`~repro.transport.rdma.RegistrationCache` keep their public
    ``acquire``/``release`` faces and what their ``stats`` count
    (:meth:`_account`); :meth:`emit_stats` publishes those stats.
    """

    #: Smallest bucket, in bytes.
    floor = 1
    #: Metric family of :meth:`emit_stats`; also names the lock and the leases.
    prefix = ""
    #: Gauge, under ``prefix``, of the bytes the pool holds.
    held_gauge = ""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._buffers: dict[int, PoolBuffer] = {}
        self._free: dict[int, list[PoolBuffer]] = {}  # size -> idle buffers
        self._next_id = 0
        self._total_bytes = 0
        self._outstanding = 0
        self._lock = sanitize.make_lock(self.prefix)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def outstanding_leases(self) -> int:
        """Leases acquired and not yet released."""
        with self._lock:
            return self._outstanding

    def _bucket(self, nbytes: int) -> int:
        return max(self.floor, 1 << (nbytes - 1).bit_length())

    def _acquire(self, nbytes: int) -> tuple[PoolBuffer, float]:
        """A buffer of at least ``nbytes``, reused before allocated, and
        the setup time :meth:`_account` charged for it."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        size = self._bucket(nbytes)
        with self._lock:
            free = self._free.get(size)
            if free:
                buf = free.pop()
                buf.in_use = True
                return buf, self._account(buf, reused=True)
            buf = PoolBuffer(self._next_id, size)
            self._next_id += 1
            self._buffers[buf.buffer_id] = buf
            self._total_bytes += size
            setup = self._account(buf, reused=False)
            if self._total_bytes > self.max_bytes:
                self._reclaim_locked()
            return buf, setup

    @abc.abstractmethod
    def _account(self, buf: PoolBuffer, reused: bool) -> float:
        """Count one acquisition in ``stats`` (under the lock); returns
        the setup time it cost."""

    def _release(self, buf: PoolBuffer) -> None:
        """Put ``buf`` back on its free list; a free buffer is refused."""
        with self._lock:
            if not buf.in_use:
                raise ValueError(f"buffer {buf.buffer_id} already free")
            buf.in_use = False
            self._free.setdefault(buf.size, []).append(buf)

    def _reclaim_locked(self) -> None:
        """Drop idle buffers, largest first, until under ``max_bytes``."""
        idle = sorted(
            (b for bs in self._free.values() for b in bs), key=lambda b: -b.size
        )
        for buf in idle:
            if self._total_bytes <= self.max_bytes:
                break
            self._free[buf.size].remove(buf)
            del self._buffers[buf.buffer_id]
            self._total_bytes -= buf.size
            self.stats.reclaimed += 1

    # -- BufferLease protocol ----------------------------------------------
    def lease(self, nbytes: int) -> BufferLease:
        """Acquire a buffer of at least ``nbytes`` under a lease; its
        ``setup_time`` is what the acquisition cost."""
        buf, setup = self._acquire(nbytes)
        with self._lock:
            self._outstanding += 1
        return BufferLease(self, buf.buffer_id, buf.data, nbytes, setup,
                           f"{self.prefix}#{buf.buffer_id}")

    def _lease_released(self, lease: BufferLease) -> None:
        with self._lock:
            self._outstanding -= 1
        self._release(self._buffers[lease.buffer_id])

    def emit_stats(self, monitor, prefix: Optional[str] = None) -> None:
        """Snapshot ``stats`` and the bytes held into ``monitor.metrics``."""
        emit_gauges(monitor, prefix or self.prefix, self.stats,
                    **{self.held_gauge: self._total_bytes})


def emit_gauges(monitor, prefix: str, *stats, **extra) -> None:
    """Publish every field of each ``stats`` dataclass, then ``extra``,
    as ``<prefix>.<name>`` gauges in ``monitor.metrics``."""
    values = {f.name: getattr(s, f.name) for s in stats for f in dataclasses.fields(s)}
    values.update(extra)
    for name, value in values.items():
        gauge = validate_metric(f"{prefix}.{name}")
        monitor.metrics.gauge(gauge).set(value)


# ---------------------------------------------------------------------------
# Wire spans
# ---------------------------------------------------------------------------

class WireBuffer:
    """One contiguous span of wire memory with ownership and lifetime.

    Wraps a flat uint8 view of the payload.  ``copies`` records how many
    memcpys the payload underwent producer → consumer (0 xpmem, 1 pool,
    2 inline).  When the span is backed by a :class:`BufferLease` or
    carries an ``on_release`` callback (xpmem detach), the consumer owns
    the obligation to call :meth:`release`; access after release raises
    :class:`LeaseError`.  A span dropped without release is returned by
    the garbage collector as a safety net, but the sanitizer still sees
    the underlying lease leak if the release never ran.
    """

    __slots__ = ("_arr", "nbytes", "ownership", "lease", "copies",
                 "_on_release", "_released", "__weakref__")

    def __init__(
        self,
        data: Union[bytes, bytearray, memoryview, np.ndarray],
        *,
        ownership: Ownership = Ownership.HEAP,
        lease: Optional[BufferLease] = None,
        copies: int = 0,
        on_release: Optional[Callable[[], None]] = None,
    ) -> None:
        self._arr = as_byte_view(data)
        self.nbytes = self._arr.nbytes
        self.ownership = ownership
        self.lease = lease
        self.copies = int(copies)
        self._on_release = on_release
        self._released = False

    # ------------------------------------------------------------------
    @classmethod
    def from_lease(
        cls,
        lease: BufferLease,
        nbytes: Optional[int] = None,
        *,
        ownership: Ownership = Ownership.POOL,
        copies: int = COPIES_POOL,
    ) -> "WireBuffer":
        """A span over the first ``nbytes`` of a leased buffer; releasing
        the span releases the lease."""
        n = lease.nbytes if nbytes is None else int(nbytes)
        return cls(lease.data[:n], ownership=ownership, lease=lease,
                   copies=copies)

    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def _check_live(self, what: str) -> None:
        if self._released or (self.lease is not None and self.lease.released):
            san = sanitize.get()
            if san is not None:
                san.note_lease_use_after_release(repr(self), what)
            raise LeaseError(f"{what} on released {self!r}")

    def as_array(
        self,
        dtype=None,
        shape=None,
    ) -> np.ndarray:
        """The payload as a numpy view (no copy).

        With ``dtype``/``shape`` the uint8 span is reinterpreted — the
        consumer-side ``np.frombuffer`` of the zero-copy story.
        """
        self._check_live("as_array")
        arr = self._arr
        if dtype is not None:
            arr = arr.view(np.dtype(dtype))
        if shape is not None:
            arr = arr.reshape(shape)
        return arr

    @property
    def view(self) -> memoryview:
        """A memoryview of the payload (no copy)."""
        self._check_live("view")
        return memoryview(self._arr)

    def tobytes(self) -> bytes:
        """Materialize the span — the explicit escape hatch for cold
        paths and assertions; hot paths carry the view instead."""
        self._check_live("tobytes")
        return self._arr.tobytes()  # flexlint: ok(FXL006) the one sanctioned materialization point

    def release(self) -> None:
        """End this span's lifetime: return the lease / detach the
        mapping.  Exactly once; a second call raises."""
        if self._released:
            san = sanitize.get()
            if san is not None:
                san.note_lease_double_release(repr(self))
            raise LeaseError(f"double release of {self!r}")
        self._released = True
        if self.lease is not None and not self.lease.released:
            self.lease.release()
        if self._on_release is not None:
            self._on_release()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.nbytes

    def __eq__(self, other: object) -> bool:
        """Content equality against bytes-likes and other spans (for
        assertions; does not materialize either side)."""
        if isinstance(other, WireBuffer):
            if other._released:
                return NotImplemented
            other = other._arr
        if isinstance(other, (bytes, bytearray, memoryview, np.ndarray)):
            if self._released:
                return NotImplemented
            theirs = as_byte_view(other)
            return (self.nbytes == theirs.nbytes
                    and bool(np.array_equal(self._arr, theirs)))
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def __enter__(self) -> "WireBuffer":
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._released:
            self.release()

    def __del__(self) -> None:
        # Safety net: a span the consumer dropped without release would
        # otherwise pin its pool buffer / xpmem segment forever.
        try:
            if not self._released and (
                self.lease is not None or self._on_release is not None
            ):
                self.release()
        except Exception:  # flexlint: ok(FXL001) GC safety net: __del__ must never raise
            pass

    def __repr__(self) -> str:
        state = "released" if self._released else "live"
        return (f"<WireBuffer {self.ownership.value} {self.nbytes}B "
                f"copies={self.copies} {state}>")


class WireVector:
    """A scatter-gather list of flat uint8 byte views (a :class:`WireBuffer`
    handed in, a leased span say, stays itself), walked by :meth:`views`;
    :meth:`copy_into` gathers them into a destination — the *one*
    producer-side copy of the pool and RDMA paths.  Indexing or iterating
    makes a part's span on demand, once, sharing the vector's ownership,
    copies and liveness.  A vector a channel *delivers* (an N-part xpmem
    mapping) says who owns its memory and how many copies it took, and is
    released once, whole.  The total length is lazy (reset by :meth:`append`).
    """

    __slots__ = ("_parts", "_nbytes", "ownership", "copies",
                 "_on_release", "_released")

    def __init__(
        self,
        parts: Iterable = (),
        *,
        ownership: Ownership = Ownership.HEAP,
        copies: int = 0,
        on_release: Optional[Callable[[], None]] = None,
    ) -> None:
        self._parts: list = [
            p if isinstance(p, WireBuffer) else as_byte_view(p) for p in parts
        ]
        self._nbytes: Optional[int] = None
        self.ownership = ownership
        self.copies = int(copies)
        self._on_release = on_release
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """End a delivered vector's lifetime: every part span, then the
        mapping behind them.  Exactly once; a second call raises."""
        if self._released:
            raise LeaseError(f"double release of {self!r}")
        self._released = True
        for part in self._parts:
            if isinstance(part, WireBuffer) and not part.released:
                part.release()
        if self._on_release is not None:
            self._on_release()

    def append(self, part) -> None:
        self._parts.append(part if isinstance(part, WireBuffer) else as_byte_view(part))
        self._nbytes = None

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all parts (lazy, cached)."""
        if self._nbytes is None:
            self._nbytes = sum(p.nbytes for p in self._parts)
        return self._nbytes

    def views(self) -> list[np.ndarray]:
        """Every part's flat uint8 view, in order; makes no span."""
        if self._released:
            raise LeaseError(f"views of released {self!r}")
        return [p.as_array() if isinstance(p, WireBuffer) else p for p in self._parts]

    def _span(self, idx: int) -> WireBuffer:
        part = self._parts[idx]
        if not isinstance(part, WireBuffer):  # made once; after release, born released
            part = WireBuffer(part, ownership=self.ownership, copies=self.copies)
            part._released, self._parts[idx] = self._released, part
        return part

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[WireBuffer]:
        return map(self._span, range(len(self._parts)))

    def __getitem__(self, idx):
        if isinstance(idx, slice):  # a list of spans
            return [self._span(i) for i in range(len(self._parts))[idx]]
        return self._span(idx)

    def copy_into(self, dest: np.ndarray, offset: int = 0) -> int:
        """Gather all parts into ``dest`` (flat uint8) starting at
        ``offset``; returns the offset past the last byte written."""
        for v in self.views():
            n = v.nbytes
            dest[offset : offset + n] = v
            offset += n
        return offset

    def tobytes(self) -> bytes:
        """Materialize the gathered payload (cold paths only)."""
        out = np.empty(self.nbytes, dtype=np.uint8)
        self.copy_into(out)
        return out.tobytes()  # flexlint: ok(FXL006) cold-path materialization of a gathered vector

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WireVector {len(self._parts)} parts, {self.nbytes}B>"


# ---------------------------------------------------------------------------
# Channel ABC
# ---------------------------------------------------------------------------

class Channel(abc.ABC):
    """The transport contract, and the skeleton every rung shares.

    ``send``/``sendv`` accept bytes, memoryviews, contiguous arrays,
    :class:`WireBuffer`, or :class:`WireVector`, coerce them to one
    :class:`WireVector`, and never materialize an intermediate
    ``bytes``; ``recv`` returns a :class:`WireBuffer` whose ownership
    tells the consumer whether (and how) to release it.  Around every
    rung's movement the skeleton keeps the ``<rung>.send`` / ``.sendv`` /
    ``.recv`` spans, the ``<rung>.bytes_sent`` / ``messages_sent``
    counters, the one fault consult per send, and each delivery's copy
    count in the ``transport.copies`` histogram of the bound monitor.

    A rung implements :meth:`_transmit` and :meth:`_recv`: how it moves
    bytes, and the fault kinds it acts out (:meth:`_acts_out`) where
    every other injected kind is raised before anything moves.
    """

    #: Rung name: prefixes the span and counter names, and is the
    #: ``transport`` of the rung's ``transport.fault`` events.
    rung = ""
    #: The rung prices its own movement: :meth:`_transmit` records the
    #: simulated time, and a send gets no wall span.
    simulated = False
    #: Optional PerfMonitor and fault injector; rungs set them in ``__init__``.
    monitor = None
    injector = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        rung = cls.rung
        if rung:
            cls._send_op, cls._sendv_op = f"{rung}.send", f"{rung}.sendv"
            cls._recv_op = f"{rung}.recv"
            cls._bytes_sent = validate_metric(f"{rung}.bytes_sent")
            cls._messages_sent = validate_metric(f"{rung}.messages_sent")

    def send(self, payload, timeout: float = 5.0):
        """Move one payload to the consumer."""
        vec = payload if isinstance(payload, WireVector) else WireVector((payload,))
        return self._send(self._send_op, vec, timeout, True)

    def sendv(self, parts, timeout: float = 5.0):
        """Gather ``parts`` into one message and move it."""
        vec = parts if isinstance(parts, WireVector) else WireVector(parts)
        return self._send(self._sendv_op, vec, timeout, False)

    def _send(self, op: str, vec: WireVector, timeout: float, sync: bool):
        total = vec.nbytes
        mon = self.monitor
        if mon is None:
            return self._transmit(vec, total, timeout, sync, self._consult(total))
        if self.simulated:
            out = self._transmit(vec, total, timeout, sync, self._consult(total))
        else:
            with mon.span("transport", op, nbytes=total, parts=len(vec)):
                out = self._transmit(vec, total, timeout, sync, self._consult(total))
        mon.metrics.counter(self._bytes_sent).inc(total)
        mon.metrics.counter(self._messages_sent).inc()
        return out

    def _consult(self, total: int):
        """The one fault consult per send: draw from the injector, account
        the fault, and raise its typed exception — unless the rung acts
        it out, in which case the kind is returned for :meth:`_transmit`."""
        injector = self.injector
        if injector is None:
            return None
        kind = injector.next_fault()
        if kind is None:
            return None
        metrics = None if self.monitor is None else self.monitor.metrics
        record_injected(metrics, self.rung, kind, nbytes=total, stream=injector.stream)
        if self._acts_out(kind, total):
            return kind
        raise fault_exception(kind, f"injected {kind.value} on {self.rung} send ({total} B)")

    def _acts_out(self, kind: FaultKind, total: int) -> bool:
        """Whether :meth:`_transmit` acts ``kind`` out on a ``total``-byte
        send (default: no kind — each is raised before anything moves)."""
        return False

    @abc.abstractmethod
    def _transmit(self, vec: WireVector, total: int, timeout: float, sync: bool,
                  fault: Optional[FaultKind]):
        """Move ``vec`` (``total`` bytes) — or act out ``fault``.  ``sync``
        is set for a one-part ``send``; the result is the send's."""

    def recv(self, timeout: float = 5.0) -> Optional[WireBuffer]:
        """The next delivered span (None when nothing is pending and the
        transport is non-blocking)."""
        mon = self.monitor
        if mon is None:
            return self._recv(timeout)[0]
        with mon.span("transport", self._recv_op) as sp:
            out, path = self._recv(timeout)
            if out is not None:
                sp.add_bytes(out.nbytes)
                sp.set_attr("path", path)
                sp.set_attr("copies", out.copies)
                mon.metrics.histogram("transport.copies").observe(float(out.copies))
                mon.metrics.counter(metric_name(F_TRANSPORT_PATH, path)).inc()
        return out

    @abc.abstractmethod
    def _recv(self, timeout: float) -> tuple[Optional[WireBuffer], str]:
        """The next delivery and its path name (``(None, "")``: none pending)."""

    def close(self) -> None:  # pragma: no cover - subclasses override
        """Release transport resources (default: nothing to do)."""
