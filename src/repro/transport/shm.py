"""Shared-memory intra-node transport (paper Section II.D).

Four pieces:

1. :class:`SPSCQueue` — a FastForward-inspired single-producer
   single-consumer, circular, lock-free FIFO.  Producer and consumer keep
   *separate* head/tail indices (never shared), each entry occupies its own
   cache-line-aligned region, and a per-entry status flag (EMPTY/FULL) is
   the only coordination: the producer stores payload then flips the flag
   to FULL; the consumer polls the flag, copies out, and flips it back to
   EMPTY.  The layout math (alignment, padding, flag placement) follows the
   paper even though Python's GIL supplies the memory-ordering guarantees a
   C implementation would need fences for.

2. :class:`ShmBufferPool` — producer-owned pool of reusable buffers indexed
   by a per-size free list; large messages are gathered into a leased pool
   buffer and announced via a small control message through the queue, and
   the consumer receives a :class:`~repro.transport.buffers.WireBuffer`
   view over the shared buffer (one staging copy; releasing the span
   returns the buffer).  The XPMEM path instead "maps" the producer's
   source buffer into the consumer (zero-copy handoff of a read-only
   view), so the transport itself performs no copy at all.

3. :class:`ShmArena` — the pool between *processes* on one node: one
   memfd generation of slots with a free list, which the directory daemon
   fills and its same-node peers map by name.

4. :class:`ShmCostModel` — prices the same operations for discrete-event
   runs: per-message queue latencies by NUMA relationship, and per-copy
   memcpy costs from the node's memory bandwidth.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import os
import re
import struct
import threading
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.analysis import sanitize
from repro.obs.names import F_SHM_POOL, F_SHM_QUEUE
from repro.transport.buffers import (
    COPIES_INLINE,
    COPIES_POOL,
    COPIES_XPMEM,
    BufferLease,
    Channel,
    LeasePool,
    Ownership,
    PoolBuffer,
    WireBuffer,
    WireVector,
    as_byte_view,
    emit_gauges,
)
from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    TornSend,
    TransportFaultInjector,
    TransportTimeout,
)
from repro.util import CACHE_LINE, align_up

if TYPE_CHECKING:  # a cost-model annotation: the data path runs no machine model
    from repro.machine.topology import NodeType

_EMPTY = 0
_FULL = 1

# Per-entry header: 1-byte status flag + 3 pad + 4-byte payload length.
_HDR = struct.Struct("<B3xI")


class QueueFull(TransportTimeout):
    """Blocking enqueue found no EMPTY entry before its deadline.

    A :class:`~repro.transport.faults.TransportTimeout`, so retry code
    catches SHM enqueue and dequeue timeouts (and RDMA timeouts) as one
    type; still a ``RuntimeError`` for pre-existing callers.
    """


class QueueEmpty(TransportTimeout):
    """Blocking dequeue found no FULL entry before its deadline."""


class QueueClosed(RuntimeError):
    """Operation on a queue whose producer has closed it."""


@dataclass
class QueueStats:
    """Instrumentation counters (feed the performance-monitoring layer)."""

    enqueued: int = 0
    dequeued: int = 0
    bytes_enqueued: int = 0
    producer_spins: int = 0
    consumer_spins: int = 0


class SPSCQueue:
    """Lock-free single-producer single-consumer circular byte queue.

    ``slots`` entries of ``payload_size`` bytes each; every entry is padded
    to a multiple of the cache-line size and starts on a cache-line
    boundary so adjacent entries never share a line (no false sharing
    between the producer writing entry *i* and the consumer reading entry
    *i-1*).
    """

    def __init__(self, slots: int = 64, payload_size: int = 240) -> None:
        if slots < 2:
            raise ValueError("need at least 2 slots")
        if payload_size < 1:
            raise ValueError("payload_size must be positive")
        self.slots = int(slots)
        self.payload_size = int(payload_size)
        #: Bytes per entry: header + payload, padded out to full cache lines.
        self.entry_size = align_up(_HDR.size + payload_size, CACHE_LINE)
        self._buf = np.zeros(self.slots * self.entry_size, dtype=np.uint8)
        self._mv = memoryview(self._buf)
        # Producer-private and consumer-private cursors (deliberately NOT
        # shared state — FastForward's key idea).
        self._head = 0  # next entry to enqueue (producer only)
        self._tail = 0  # next entry to dequeue (consumer only)
        self._closed = False
        self.stats = QueueStats()
        # Concurrency sanitizer, captured at construction so the disabled
        # path costs one None check per operation (FLEXIO_SANITIZE=1).
        # It learns producer/consumer thread ownership from the first
        # try_enqueue/try_dequeue and flags SPSC-discipline violations.
        self._san = sanitize.get()

    # ------------------------------------------------------------------
    def _entry(self, idx: int) -> int:
        return idx * self.entry_size

    # -- producer side ----------------------------------------------------
    def try_enqueue(self, data: Union[bytes, bytearray, memoryview]) -> bool:
        """Enqueue without blocking; returns False if the next entry is FULL.

        The payload is sliced straight into the slot — no ``bytes(...)``
        coercion, so memoryviews and contiguous arrays enqueue with the
        single producer→slot copy (only non-contiguous arrays are
        compacted first by :func:`as_byte_view`).
        """
        view = as_byte_view(data)
        return self.try_enqueuev((view,), view.nbytes)

    def try_enqueuev(self, views: Sequence[np.ndarray], total: Optional[int] = None) -> bool:
        """Vectored enqueue: gather ``views`` (flat uint8 arrays) into one
        slot with one copy per part and no intermediate join."""
        if self._san is not None:
            self._san.note_spsc(self, "producer")
        if self._closed:
            raise QueueClosed("enqueue on closed queue")
        if total is None:
            total = sum(v.nbytes for v in views)
        if total > self.payload_size:
            raise ValueError(
                f"message of {total} B exceeds slot payload {self.payload_size} B"
            )
        base = self._entry(self._head)
        if self._buf[base] != _EMPTY:
            self.stats.producer_spins += 1
            return False
        # Write payload first, status flag last (release ordering).
        _HDR.pack_into(self._mv, base, _EMPTY, total)
        off = base + _HDR.size
        for v in views:
            n = v.nbytes
            self._buf[off : off + n] = v
            off += n
        self._buf[base] = _FULL
        self._head = (self._head + 1) % self.slots
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += total
        return True

    def enqueue(self, data: Union[bytes, bytearray, memoryview], timeout: float = 5.0) -> None:
        """Blocking enqueue; spins (with micro-sleeps) until an entry frees."""
        view = as_byte_view(data)
        self.enqueuev((view,), view.nbytes, timeout=timeout)

    def enqueuev(
        self,
        views: Sequence[np.ndarray],
        total: Optional[int] = None,
        timeout: float = 5.0,
    ) -> None:
        """Blocking vectored enqueue; spins until an entry frees."""
        if total is None:
            total = sum(v.nbytes for v in views)
        deadline = time.monotonic() + timeout
        while not self.try_enqueuev(views, total):
            if time.monotonic() > deadline:
                raise QueueFull(f"queue full for {timeout}s")
            time.sleep(1e-6)

    def close(self) -> None:
        """Producer signals End-of-Stream; pending entries remain readable."""
        self._closed = True

    # -- consumer side ----------------------------------------------------
    def try_dequeue(self) -> Optional[bytes]:
        """Dequeue without blocking; None if the next entry is EMPTY."""
        if self._san is not None:
            self._san.note_spsc(self, "consumer")
        base = self._entry(self._tail)
        if self._buf[base] != _FULL:
            self.stats.consumer_spins += 1
            if self._closed:
                raise QueueClosed("end of stream")
            return None
        _, length = _HDR.unpack_from(self._mv, base)
        pstart = base + _HDR.size
        out = bytes(self._mv[pstart : pstart + length])  # flexlint: ok(FXL006) the slot must be copied out before it is handed back to the producer (inline path's second copy)
        # Copy out first, then release the entry to the producer.
        self._buf[base] = _EMPTY
        self._tail = (self._tail + 1) % self.slots
        self.stats.dequeued += 1
        return out

    def dequeue(self, timeout: float = 5.0) -> bytes:
        """Blocking dequeue; raises :class:`QueueClosed` at end of stream."""
        deadline = time.monotonic() + timeout
        while True:
            item = self.try_dequeue()
            if item is not None:
                return item
            if time.monotonic() > deadline:
                raise QueueEmpty(f"queue empty for {timeout}s")
            time.sleep(1e-6)

    def __len__(self) -> int:
        """Entries currently FULL (approximate under concurrency)."""
        return int(np.count_nonzero(self._buf[:: self.entry_size] == _FULL))

    def emit_stats(self, monitor, prefix: str = F_SHM_QUEUE) -> None:
        """Snapshot counters + current depth into ``monitor.metrics``."""
        emit_gauges(monitor, prefix, self.stats, depth=len(self))


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

@dataclass
class PoolStats:
    allocations: int = 0
    reuses: int = 0
    reclaimed: int = 0
    peak_bytes: int = 0


class ShmBufferPool(LeasePool):
    """Producer-owned pool of large-message buffers with per-size free lists.

    ``acquire`` rounds the request up to the next power of two and serves
    from the free list when possible (the "closest size" search of the
    paper); ``release`` returns a buffer for reuse.  ``max_bytes`` is the
    configurable threshold that triggers reclamation of idle buffers.
    :meth:`lease` wraps the same acquire/release cycle in the buffer
    plane's :class:`~repro.transport.buffers.BufferLease` protocol; the
    free lists are :class:`~repro.transport.buffers.LeasePool`'s, shared
    with the RDMA registration cache.
    """

    prefix = F_SHM_POOL
    held_gauge = "occupancy_bytes"

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        super().__init__(max_bytes)
        self.stats = PoolStats()

    def acquire(self, nbytes: int) -> PoolBuffer:
        """Get a buffer of at least ``nbytes`` (reuse before allocate)."""
        return self._acquire(nbytes)[0]

    def release(self, buffer_id: int) -> None:
        """Return a buffer to its free list."""
        buf = self._buffers.get(buffer_id)
        if buf is None:
            raise KeyError(f"unknown buffer id {buffer_id}")
        self._release(buf)

    def _account(self, buf: PoolBuffer, reused: bool) -> float:
        if reused:
            self.stats.reuses += 1
        else:
            self.stats.allocations += 1
            self.stats.peak_bytes = max(self.stats.peak_bytes, self._total_bytes)
        return 0.0


class ShmArena:
    """One generation of same-node slots: an anonymous memfd another
    process on this node (same uid and pid namespace) maps through
    ``/proc/<pid>/fd/<n>`` — no name outlives its maker.  Sized by the
    first run it has to hold (run + ⅛, page-rounded, per slot); slots are
    recycled through ``free`` (a fresh tmpfs page is a fault per 4 KB on
    both sides) and mapped, never ``pwritev``-ed."""

    _serial = itertools.count(1)
    #: A name: the memfd, and the serial that keeps a reused fd number apart.
    _NAME = re.compile(r"(/proc/\d+/fd/\d+)@\d+")

    def __init__(self, run_nbytes: int, slots: int = 1) -> None:
        page = mmap.PAGESIZE
        self.capacity = -(-(run_nbytes + run_nbytes // 8) // page) * page
        fd = os.memfd_create("flexio-pool")
        weakref.finalize(self, os.close, fd)  # the mapping goes with ``arr``
        os.ftruncate(fd, self.capacity * slots)
        self.arr = np.frombuffer(mmap.mmap(fd, 0), dtype=np.uint8)
        self.name = f"/proc/{os.getpid()}/fd/{fd}@{next(self._serial)}"
        self.free = [i * self.capacity for i in range(slots)]

    @staticmethod
    def map(name: str, write: bool = False) -> np.ndarray:
        """All of arena ``name``, mapped ``PROT_READ`` unless ``write``: the
        one place a name is checked and opened.  ``ValueError``: no arena has
        that name; :class:`PeerDisconnected` (retriable): the arena is gone."""
        match = ShmArena._NAME.fullmatch(name)
        if match is None:
            raise ValueError(f"not a same-node arena: {name!r}")
        try:
            with open(match.group(1), "r+b" if write else "rb") as fh:
                prot = mmap.PROT_READ | (mmap.PROT_WRITE if write else 0)
                return np.frombuffer(mmap.mmap(fh.fileno(), 0, prot=prot), dtype=np.uint8)
        except (OSError, ValueError) as exc:
            raise PeerDisconnected(f"arena {name} is gone: {exc}") from exc


# ---------------------------------------------------------------------------
# Channel: small messages through the queue, large ones through the pool
# ---------------------------------------------------------------------------

_CTRL = struct.Struct("<BQQ")  # path, buffer_id/token, length
_PATH_INLINE = 0
_PATH_POOL = 1
_PATH_XPMEM = 2


#: Span/counter path names per control-message path constant.
_PATH_NAMES = {_PATH_INLINE: "inline", _PATH_POOL: "pool", _PATH_XPMEM: "xpmem"}


class ShmChannel(Channel):
    """One-directional intra-node data channel (producer → consumer).

    Small payloads ride inline in queue entries (copied into the slot,
    copied out of it: 2 copies).  Large payloads take one of two paths,
    one control message each whether the message has one part
    (``send``) or many (``sendv``):

    * **pool** (default): the producer gathers straight into a leased
      pool buffer (the single staging copy), sends a control message,
      and the consumer receives a :class:`WireBuffer` *view* over the
      shared buffer — releasing the span returns the lease.  One copy,
      fully asynchronous.
    * **xpmem** (``use_xpmem``): the producer maps read-only views of
      its source parts under one token (modelling ``xpmem_make`` /
      ``xpmem_attach`` page mapping) and the consumer's delivery
      attaches to those pages — zero transport copies, no pool buffer —
      until its release detaches them (``close()`` unmaps what was never
      received).  The sources must not be modified before that.
      ``send`` waits for the detach (the paper's synchronous semantics);
      ``sendv`` returns once the mapping is announced, so one thread can
      be both ends of its own channel.

    Neither path joins parts on the producer side.  ``recv`` raises
    :class:`QueueClosed` at end of stream; a mapped message of N > 1
    parts has no contiguous span, so it arrives as one
    :class:`WireVector` of read-only spans, released once.  Every
    delivery reports its copy count (inline=2, pool=1, xpmem=0) into the
    ``transport.copies`` histogram of the bound monitor.
    """

    rung = "shm"

    def __init__(
        self,
        queue: Optional[SPSCQueue] = None,
        pool: Optional[ShmBufferPool] = None,
        use_xpmem: bool = False,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.queue = SPSCQueue() if queue is None else queue  # an empty queue is falsy
        self.pool = pool or ShmBufferPool()
        self.use_xpmem = use_xpmem
        #: Optional PerfMonitor: send/recv become spans (when tracing is
        #: on) and the queue/pool counters are published on close().
        self.monitor = monitor
        #: Optional deterministic fault source consulted before sends.
        self.injector = injector
        self._inline_max = self.queue.payload_size - _CTRL.size
        #: Live mappings: token -> (read-only part views, detach event,
        #: the sanitizer's record of them — None unless FLEXIO_SANITIZE=1).
        self._xpmem_segments: dict[int, tuple] = {}
        self._next_token = 0
        self._token_lock = sanitize.make_lock("shm.xpmem_token")
        self._san = sanitize.get()  # captured: one None check when disabled
        #: Pool leases announced to the consumer but not yet received:
        #: buffer_id -> lease (handed over to the consumer's WireBuffer).
        self._in_flight: dict[int, BufferLease] = {}
        #: Copies performed per large message on each path (observable).
        self.copies_per_large_message = COPIES_XPMEM if use_xpmem else COPIES_POOL
        self.large_sends = 0
        self.inline_sends = 0

    # -- producer ---------------------------------------------------------
    def _acts_out(self, kind: FaultKind, total: int) -> bool:
        """A torn *large* send is modelled faithfully: part of the
        payload really written into a leased pool buffer, or the source
        pages really mapped, but the control message never sent, so the
        consumer can never observe the partial state and the producer
        sees a typed :class:`TornSend` with the lease released / the
        mapping withdrawn (no leak across retries)."""
        return kind is FaultKind.TORN_SEND and total > self._inline_max

    def _transmit(self, vec: WireVector, total: int, timeout: float, sync: bool,
                  fault: Optional[FaultKind]) -> None:
        if total <= self._inline_max:
            # One gather write: control header + every view, straight
            # into the queue slot (no join, no intermediate bytes).
            hdr = as_byte_view(_CTRL.pack(_PATH_INLINE, 0, total))
            self.queue.enqueuev(
                (hdr, *vec.views()),
                _CTRL.size + total,
                timeout=timeout,
            )
            self.inline_sends += 1
            return
        if self.use_xpmem:
            self._send_mapped(vec, total, timeout, sync, fault is not None)
        else:
            self._send_pool(vec, total, timeout, fault is not None)
        self.large_sends += 1

    def _send_pool(self, vec: WireVector, total: int, timeout: float, torn: bool) -> None:
        lease = self.pool.lease(total)
        # Publish the lease before the control message goes out so the
        # consumer can never observe a buffer_id we don't know about.
        self._in_flight[lease.buffer_id] = lease
        try:
            if torn:
                lease.data[: max(1, total // 2)] = 0
                raise TornSend(f"injected torn send after {total // 2}/{total} B")
            vec.copy_into(lease.data)  # gather: the single staging copy
            self.queue.enqueue(
                _CTRL.pack(_PATH_POOL, lease.buffer_id, total), timeout=timeout
            )
        except BaseException:  # flexlint: ok(FXL001) lease cleanup must cover every raise, then re-raises
            # The control message never went out: reclaim the lease so a
            # failed or timed-out send cannot leak the pool buffer
            # (retries re-lease from the free list).
            self._in_flight.pop(lease.buffer_id, None)
            lease.release()
            raise

    def _send_mapped(
        self, vec: WireVector, total: int, timeout: float, sync: bool, torn: bool
    ) -> None:
        with self._token_lock:
            token = self._next_token
            self._next_token += 1
        # "Map" the source pages: read-only views of every part, no copy.
        views = [np.frombuffer(memoryview(v).toreadonly(), dtype=np.uint8)
                 for v in vec.views()]
        record = None if self._san is None else (  # the mapping thread names the stream
            f"shm.xpmem#{token} mapped by {threading.current_thread().name}",
            self._san.lend(*views))
        detached = threading.Event()
        self._xpmem_segments[token] = (views, detached, record)
        announced = False
        try:
            if torn:
                raise TornSend(f"injected torn send: {total} B mapped, never announced")
            self.queue.enqueue(_CTRL.pack(_PATH_XPMEM, token, total), timeout=timeout)
            if sync and not detached.wait(timeout):
                raise TimeoutError("xpmem consumer did not detach in time")
            announced = True
        finally:
            if not announced:
                self._unmap(token)  # withdrawn: nothing stays mapped across retries

    def _unmap(self, token: int) -> None:
        """Detach one mapping (consumer release, failed send, ``close``);
        a second call for the same token finds nothing to do."""
        segment = self._xpmem_segments.pop(token, None)
        if segment is not None:
            views, detached, record = segment
            if record is not None:
                self._san.check_lent(sanitize.XPMEM_SOURCE_MUTATED, *record, *views)
            detached.set()

    def close(self) -> None:
        self.queue.close()
        # A producer shutting down with announcements never consumed must
        # not leak leases or mappings, or wedge xpmem waiters.
        for buffer_id in list(self._in_flight):
            lease = self._in_flight.pop(buffer_id, None)
            if lease is not None and not lease.released:
                lease.release()
        for token in list(self._xpmem_segments):
            self._unmap(token)
        if self.monitor is not None:
            self.emit_stats()

    def emit_stats(self, monitor=None) -> None:
        """Publish queue/pool counters into a monitor's metrics registry
        (so ``report()`` shows the transport instead of it being a set of
        write-only fields)."""
        mon = monitor or self.monitor
        if mon is None:
            raise ValueError("no monitor bound to this channel")
        self.queue.emit_stats(mon)
        self.pool.emit_stats(mon)
        emit_gauges(mon, "shm.channel", inline_sends=self.inline_sends,
                    large_sends=self.large_sends)

    # -- consumer ---------------------------------------------------------
    def _recv(self, timeout: float) -> tuple[Union[WireBuffer, WireVector], str]:
        msg = self.queue.dequeue(timeout=timeout)  # inline copy-out lives in the queue
        path, token, length = _CTRL.unpack_from(msg, 0)
        if path == _PATH_INLINE:
            payload = np.frombuffer(
                msg, dtype=np.uint8, count=length, offset=_CTRL.size
            )  # view over the dequeued copy — no third copy
            wb = WireBuffer(payload, ownership=Ownership.HEAP, copies=COPIES_INLINE)
        elif path == _PATH_POOL:
            lease = self._in_flight.pop(int(token))
            wb = WireBuffer.from_lease(
                lease, length, ownership=Ownership.POOL, copies=COPIES_POOL
            )
        elif path == _PATH_XPMEM:
            token = int(token)
            views = self._xpmem_segments[token][0]
            # Attach to the producer's pages; release() detaches.
            mapped = dict(
                ownership=Ownership.XPMEM, copies=COPIES_XPMEM,
                on_release=functools.partial(self._unmap, token),
            )
            wb = (WireBuffer(views[0], **mapped) if len(views) == 1
                  else WireVector(views, **mapped))
        else:
            raise ValueError(f"corrupt control message path {path}")
        return wb, _PATH_NAMES[path]


# ---------------------------------------------------------------------------
# Cost model (for discrete-event runs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShmCostModel:
    """Prices intra-node movement for the simulator.

    Parameters default to the transport's measured behaviour class: a
    cache-speed hop inside one L3, a slower hop across NUMA domains, and
    memcpy throughput set by the node's memory bandwidth.
    """

    node_type: NodeType
    #: Queue message latency when producer and consumer share an L3 (s).
    latency_same_numa: float = 0.2e-6
    #: Queue message latency across NUMA domains (coherence traffic) (s).
    latency_cross_numa: float = 0.6e-6

    def copy_bw(self, cross_numa: bool) -> float:
        """Effective single-stream memcpy bandwidth (bytes/s)."""
        bw = self.node_type.mem_bw_local
        if cross_numa:
            bw *= self.node_type.numa_remote_factor
        return bw

    def small_msg_time(self, cross_numa: bool) -> float:
        return self.latency_cross_numa if cross_numa else self.latency_same_numa

    def transfer_time(
        self, nbytes: int, cross_numa: bool = False, xpmem: bool = False
    ) -> float:
        """Time to move ``nbytes`` producer → consumer.

        Classic path: control message + two memcpys.  XPMEM path: control
        message + segment attach + one memcpy.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        t = self.small_msg_time(cross_numa)
        copies = 1 if xpmem else 2
        if xpmem:
            t += 1.5e-6  # xpmem_make/attach page-mapping cost
        t += copies * (nbytes / self.copy_bw(cross_numa))
        return t
