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
* :class:`WireVector` — a scatter-gather list of spans with a lazily
  computed total length; transports gather it straight into a slot or a
  leased buffer, never through a ``b"".join``.
* :class:`BufferLease` / :class:`LeasePool` — the acquire/release
  protocol that unifies the SHM buffer pool and the RDMA registration
  cache: exactly one release per lease, reclamation stays the pool's
  business, and the concurrency sanitizer tracks leaks and
  use-after-release when enabled.
* :class:`Channel` — the ``send``/``sendv``/``recv`` ABC both
  :class:`~repro.transport.shm.ShmChannel` and
  :class:`~repro.transport.rdma.RdmaChannel` implement; every delivery
  reports its copy count into the ``transport.copies`` histogram.
"""

from __future__ import annotations

import abc
import enum
import threading
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from repro.analysis import sanitize
from repro.obs.names import F_TRANSPORT_PATH, metric_name

__all__ = [
    "Ownership",
    "LeaseError",
    "BufferLease",
    "LeasePool",
    "WireBuffer",
    "WireVector",
    "Channel",
    "as_byte_view",
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


class LeasePool(abc.ABC):
    """The acquire/release protocol behind :class:`BufferLease`.

    Implemented by :class:`~repro.transport.shm.ShmBufferPool` and
    :class:`~repro.transport.rdma.RegistrationCache`; both keep their
    own free lists and reclamation thresholds, this base only tracks
    lease accounting.
    """

    def __init__(self) -> None:
        self._lease_mu = threading.Lock()
        self._outstanding = 0

    @abc.abstractmethod
    def lease(self, nbytes: int) -> BufferLease:
        """Acquire a buffer of at least ``nbytes`` under a lease."""

    @abc.abstractmethod
    def _return_buffer(self, lease: BufferLease) -> None:
        """Put the released buffer back on the pool's free list."""

    # ------------------------------------------------------------------
    def _make_lease(
        self,
        buffer_id: int,
        data: np.ndarray,
        nbytes: int,
        setup_time: float = 0.0,
        label: str = "",
    ) -> BufferLease:
        with self._lease_mu:
            self._outstanding += 1
        return BufferLease(self, buffer_id, data, nbytes, setup_time, label)

    def _lease_released(self, lease: BufferLease) -> None:
        with self._lease_mu:
            self._outstanding -= 1
        self._return_buffer(lease)

    @property
    def outstanding_leases(self) -> int:
        """Leases acquired and not yet released."""
        with self._lease_mu:
            return self._outstanding


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
    def wrap(cls, payload, **span) -> "WireBuffer":
        """Coerce any payload shape (bytes, memoryview, ndarray, or an
        existing span) into a :class:`WireBuffer` without copying;
        ``span`` (ownership, copies) describes a raw payload only."""
        if isinstance(payload, WireBuffer):
            return payload
        return cls(payload, **span)

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
    """A scatter-gather list of :class:`WireBuffer` spans.

    The total length is computed lazily and cached (invalidated by
    :meth:`append`); :meth:`copy_into` gathers every part straight into
    a destination buffer — the *one* producer-side copy of the pool and
    RDMA paths.  A vector a channel *delivers* (an N-part xpmem mapping)
    also says who owns its memory and how many copies it took — its raw
    parts become spans that say the same — and is released once, whole.
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
        self._parts: list[WireBuffer] = [
            WireBuffer.wrap(p, ownership=ownership, copies=copies) for p in parts
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
            if not part.released:
                part.release()
        if self._on_release is not None:
            self._on_release()

    def append(self, part) -> None:
        self._parts.append(WireBuffer.wrap(part))
        self._nbytes = None

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all parts (lazy, cached)."""
        if self._nbytes is None:
            self._nbytes = sum(p.nbytes for p in self._parts)
        return self._nbytes

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[WireBuffer]:
        return iter(self._parts)

    def __getitem__(self, idx: int) -> WireBuffer:
        return self._parts[idx]

    def copy_into(self, dest: np.ndarray, offset: int = 0) -> int:
        """Gather all parts into ``dest`` (flat uint8) starting at
        ``offset``; returns the offset past the last byte written."""
        for p in self._parts:
            n = p.nbytes
            dest[offset : offset + n] = p.as_array()
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
    """The transport contract: scatter-gather sends, span deliveries.

    ``send``/``sendv`` accept bytes, memoryviews, contiguous arrays,
    :class:`WireBuffer`, or :class:`WireVector` and never materialize an
    intermediate ``bytes``; ``recv`` returns a :class:`WireBuffer` whose
    ownership tells the consumer whether (and how) to release it.  Every
    delivery reports its copy count into the ``transport.copies``
    histogram of the bound monitor.
    """

    #: Optional PerfMonitor; subclasses set it in ``__init__``.
    monitor = None

    @abc.abstractmethod
    def send(self, payload, timeout: float = 5.0):
        """Move one payload to the consumer."""

    @abc.abstractmethod
    def sendv(self, parts, timeout: float = 5.0):
        """Gather ``parts`` into one message and move it."""

    @abc.abstractmethod
    def recv(self, timeout: float = 5.0) -> Optional[WireBuffer]:
        """The next delivered span (None when nothing is pending and the
        transport is non-blocking)."""

    def close(self) -> None:  # pragma: no cover - subclasses override
        """Release transport resources (default: nothing to do)."""

    # ------------------------------------------------------------------
    def observe_delivery(self, wb: WireBuffer, path: str = "") -> None:
        """Record one delivery's copy count into ``transport.copies``."""
        mon = self.monitor
        if mon is not None:
            mon.metrics.histogram("transport.copies").observe(float(wb.copies))
            if path:
                mon.metrics.counter(metric_name(F_TRANSPORT_PATH, path)).inc()
