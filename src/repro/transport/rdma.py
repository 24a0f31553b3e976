"""RDMA inter-node transport above an NNTI-like portability layer
(paper Section II.E).

The pieces and their paper counterparts:

* :class:`NntiFabric` / :class:`NntiEndpoint` / :class:`NntiConnection` —
  the uniform Connect / Register / Put / Get API that NNTI provides above
  ibverbs, Portals, and uGNI.  Data really moves (bytes land in the peer's
  mailbox); *time* is priced by the machine's interconnect model.

* :class:`RegistrationCache` — the persistent buffer + registration cache:
  allocated/registered buffers are kept on free lists and reused, so only
  cold acquisitions pay the allocation+registration cost that Figure 4
  shows dominating dynamic transfers.  A configurable byte threshold
  triggers reclamation (deregistration) of idle buffers.

* :class:`TransferScheduler` — receiver-directed Get scheduling: the
  receiver fetches from at most ``max_concurrent`` senders at a time, and
  concurrently active flows share its ejection bandwidth (max-min on the
  single shared link).  Bounding concurrency shortens the contention window
  seen by the simulation's own MPI traffic.

* :class:`RdmaChannel` — the two-path channel: small messages via Put into
  the peer's message queue (FMA on Gemini), large messages via a control
  message + receiver-directed Get (BTE on Gemini).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.machine.interconnect import Interconnect
from repro.obs.names import F_RDMA_REGCACHE, metric_name
from repro.transport.buffers import (
    BufferLease,
    Channel,
    LeasePool,
    Ownership,
    WireBuffer,
    WireVector,
)
from repro.transport.faults import (
    TransportFaultInjector,
    fault_exception,
    record_injected,
)

#: Copy counts the RDMA paths report into ``transport.copies``: bulk
#: transfers stage once (the gather into registered send memory; the
#: Get itself is DMA, not a CPU copy), small Puts stage once into the
#: peer's message ring.
COPIES_RDMA_BULK = 1
COPIES_RDMA_SMALL = 1


# ---------------------------------------------------------------------------
# Registration cache
# ---------------------------------------------------------------------------

@dataclass
class RegBuffer:
    """An allocated-and-registered RDMA buffer.

    ``data`` is the registered memory itself, allocated lazily on the
    first lease so pure cost-model users (``acquire``/``release`` for
    timing) never pay for backing pages they don't touch.
    """

    buffer_id: int
    size: int
    in_use: bool = True
    data: Optional[np.ndarray] = None

    def ensure_data(self) -> np.ndarray:
        if self.data is None:
            self.data = np.zeros(self.size, dtype=np.uint8)
        return self.data


@dataclass
class RegCacheStats:
    hits: int = 0
    misses: int = 0
    reclaimed: int = 0
    setup_time_paid: float = 0.0
    setup_time_saved: float = 0.0

    def emit(self, monitor, prefix: str = F_RDMA_REGCACHE) -> None:
        """Publish a snapshot of these counters into ``monitor.metrics``."""
        m = monitor.metrics
        m.gauge(metric_name(prefix, "hits")).set(self.hits)
        m.gauge(metric_name(prefix, "misses")).set(self.misses)
        m.gauge(metric_name(prefix, "reclaimed")).set(self.reclaimed)
        m.gauge(metric_name(prefix, "setup_time_paid")).set(self.setup_time_paid)
        m.gauge(metric_name(prefix, "setup_time_saved")).set(self.setup_time_saved)


class RegistrationCache(LeasePool):
    """Persistent send/receive buffer pool with registration reuse.

    Two faces of the same free lists: the original ``acquire``/``release``
    pair (used by the cost model's :meth:`NntiConnection.get_bulk`), and
    the buffer plane's :meth:`lease` protocol, which also hands out the
    registered memory itself so channels gather payloads straight into
    it.
    """

    def __init__(self, interconnect: Interconnect, max_bytes: int = 512 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        LeasePool.__init__(self)
        self.interconnect = interconnect
        self.max_bytes = int(max_bytes)
        self._free: dict[int, list[RegBuffer]] = {}
        self._all: dict[int, RegBuffer] = {}
        self._next_id = 0
        self._total_bytes = 0
        self.stats = RegCacheStats()

    @staticmethod
    def _bucket(nbytes: int) -> int:
        size = 4096
        while size < nbytes:
            size <<= 1
        return size

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def setup_cost(self, nbytes: int) -> float:
        """Alloc + register cost this cache avoids on a hit."""
        ic = self.interconnect
        return ic.allocation_time(nbytes) + ic.registration_time(nbytes)

    def acquire(self, nbytes: int) -> tuple[RegBuffer, float]:
        """Return ``(buffer, setup_time)``; setup_time is 0 on a cache hit."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        size = self._bucket(nbytes)
        free = self._free.get(size)
        if free:
            buf = free.pop()
            buf.in_use = True
            self.stats.hits += 1
            self.stats.setup_time_saved += self.setup_cost(size)
            return buf, 0.0
        buf = RegBuffer(self._next_id, size)
        self._next_id += 1
        self._all[buf.buffer_id] = buf
        self._total_bytes += size
        cost = self.setup_cost(size)
        self.stats.misses += 1
        self.stats.setup_time_paid += cost
        if self._total_bytes > self.max_bytes:
            self._reclaim()
        return buf, cost

    def release(self, buf: RegBuffer) -> None:
        if not buf.in_use:
            raise ValueError(f"buffer {buf.buffer_id} already free")
        buf.in_use = False
        self._free.setdefault(buf.size, []).append(buf)

    # -- BufferLease protocol ----------------------------------------------
    def lease(self, nbytes: int) -> BufferLease:
        """Acquire registered memory under a lease; ``setup_time`` on the
        lease carries the registration cost (0 on a cache hit)."""
        buf, setup = self.acquire(nbytes)
        return self._make_lease(
            buf.buffer_id, buf.ensure_data(), nbytes,
            setup_time=setup, label=f"rdma.reg#{buf.buffer_id}",
        )

    def _return_buffer(self, lease: BufferLease) -> None:
        self.release(self._all[lease.buffer_id])

    def _reclaim(self) -> None:
        """Deregister idle buffers, largest first, until under threshold."""
        idle = sorted(
            (b for bs in self._free.values() for b in bs), key=lambda b: -b.size
        )
        for buf in idle:
            if self._total_bytes <= self.max_bytes:
                break
            self._free[buf.size].remove(buf)
            del self._all[buf.buffer_id]
            self._total_bytes -= buf.size
            self.stats.reclaimed += 1

    def emit_stats(self, monitor, prefix: str = F_RDMA_REGCACHE) -> None:
        """Snapshot hit/miss/reclaim counters + registered bytes into
        ``monitor.metrics``."""
        self.stats.emit(monitor, prefix)
        monitor.metrics.gauge(
            metric_name(prefix, "registered_bytes")
        ).set(self._total_bytes)


# ---------------------------------------------------------------------------
# NNTI-like endpoints and connections
# ---------------------------------------------------------------------------

class NntiEndpoint:
    """One process's attachment point to the fabric."""

    def __init__(self, fabric: "NntiFabric", node_id: int, name: str) -> None:
        self.fabric = fabric
        self.node_id = node_id
        self.name = name
        #: Incoming small-message queue (the RDMA Put target ring).
        self.mailbox: deque[tuple[str, bytes]] = deque()
        self.reg_cache = RegistrationCache(fabric.interconnect)

    def poll(self) -> Optional[tuple[str, bytes]]:
        """Pop one delivered small message, or None."""
        return self.mailbox.popleft() if self.mailbox else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NntiEndpoint {self.name} on node {self.node_id}>"


class NntiConnection:
    """A connected endpoint pair with two-way message queues."""

    def __init__(self, fabric: "NntiFabric", a: NntiEndpoint, b: NntiEndpoint) -> None:
        self.fabric = fabric
        self.a = a
        self.b = b

    def _peer(self, me: NntiEndpoint) -> NntiEndpoint:
        if me is self.a:
            return self.b
        if me is self.b:
            return self.a
        raise ValueError(f"{me!r} is not an endpoint of this connection")

    def put_small(self, src: NntiEndpoint, tag: str, data: bytes) -> float:
        """RDMA Put of a small message into the peer's queue; returns time."""
        peer = self._peer(src)
        ic = self.fabric.interconnect
        if src.node_id == peer.node_id:
            # Same node: NNTI still works, at loopback cost.
            t = ic.params.small_msg_overhead
        else:
            t = ic.small_put_time(min(len(data), ic.params.small_msg_threshold))
        peer.mailbox.append((tag, bytes(data)))  # flexlint: ok(FXL006) the Put really lands in the peer's message ring (identity for bytes input)
        return t

    def get_bulk(
        self, dst: NntiEndpoint, data: bytes, concurrent_flows: int = 1
    ) -> tuple[bytes, float]:
        """Receiver-directed Get: ``dst`` fetches ``data`` from the peer.

        Returns ``(payload, time)``.  Both sides' buffers come from their
        registration caches, so steady-state transfers pay no setup.
        """
        src = self._peer(dst)
        ic = self.fabric.interconnect
        nbytes = len(data)
        send_buf, t_src = src.reg_cache.acquire(max(nbytes, 1))
        recv_buf, t_dst = dst.reg_cache.acquire(max(nbytes, 1))
        t = max(t_src, t_dst)  # setups proceed in parallel on the two hosts
        t += ic.params.control_msg_time  # sender's "data ready" notification
        if src.node_id == dst.node_id:
            t += nbytes / ic.params.peak_bw  # loopback DMA
        else:
            t += ic.bulk_transfer_time(nbytes, concurrent_flows)
        src.reg_cache.release(send_buf)
        dst.reg_cache.release(recv_buf)
        return bytes(data), t  # flexlint: ok(FXL006) the Fig. 4 timing API (figures/fig4.py) returns an owned copy; the channel path uses leases


class NntiFabric:
    """Factory/registry of endpoints and connections on one interconnect."""

    def __init__(self, interconnect: Interconnect) -> None:
        self.interconnect = interconnect
        self._endpoints: dict[str, NntiEndpoint] = {}

    def endpoint(self, node_id: int, name: str) -> NntiEndpoint:
        if name in self._endpoints:
            raise ValueError(f"endpoint name {name!r} already taken")
        ep = NntiEndpoint(self, node_id, name)
        self._endpoints[name] = ep
        return ep

    def lookup(self, name: str) -> NntiEndpoint:
        return self._endpoints[name]

    def connect(self, a: NntiEndpoint, b: NntiEndpoint) -> NntiConnection:
        return NntiConnection(self, a, b)


# ---------------------------------------------------------------------------
# Receiver-directed transfer scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferRequest:
    """One pending bulk Get: which sender, how many bytes."""

    sender: int
    nbytes: int


@dataclass
class ScheduledTransfer:
    """Outcome of scheduling one request."""

    sender: int
    nbytes: int
    start: float
    finish: float


class TransferScheduler:
    """Schedules a receiver's bulk Gets under a concurrency bound.

    Active flows share the receiver's ejection bandwidth max-min (one
    shared link, so: equal split capped by per-flow peak).  The schedule is
    computed by progressive filling — exact for this topology.
    """

    def __init__(
        self,
        interconnect: Interconnect,
        max_concurrent: int = 4,
        endpoint_bandwidth: Optional[float] = None,
    ) -> None:
        """``endpoint_bandwidth`` overrides the receiver's ejection
        bandwidth — e.g. a node's injection split among the co-located
        receiver processes sharing its NIC."""
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if endpoint_bandwidth is not None and endpoint_bandwidth <= 0:
            raise ValueError("endpoint_bandwidth must be positive")
        self.interconnect = interconnect
        self.max_concurrent = max_concurrent
        self.endpoint_bandwidth = endpoint_bandwidth

    def schedule(
        self, requests: Sequence[TransferRequest], start_time: float = 0.0
    ) -> list[ScheduledTransfer]:
        """Compute start/finish times for every request (FIFO admission)."""
        ic = self.interconnect
        peak = ic.params.peak_bw
        latency = ic.params.latency
        ejection = (
            self.endpoint_bandwidth
            if self.endpoint_bandwidth is not None
            else ic.injection_bw
        )
        pending = deque(enumerate(requests))
        active: dict[int, list] = {}  # idx -> [sender, remaining, start]
        results: dict[int, ScheduledTransfer] = {}
        now = float(start_time)

        def admit() -> None:
            while pending and len(active) < self.max_concurrent:
                idx, req = pending.popleft()
                if req.nbytes < 0:
                    raise ValueError("transfer size must be >= 0")
                active[idx] = [req.sender, float(req.nbytes), now + ic.params.latency]

        admit()
        while active:
            rate = min(peak, ejection / len(active))
            # Next event: the flow with least remaining bytes completes.
            idx_done = min(active, key=lambda i: active[i][1])
            sender, remaining, started = active[idx_done]
            dt = remaining / rate
            # No flow finishes faster than its own bytes at peak bandwidth
            # after its start: progressive filling can drain a late-admitted
            # flow's bytes before its latency elapses, which would otherwise
            # yield an unphysical zero-duration transfer.
            finish = max(
                max(now, started) + dt,
                started + requests[idx_done].nbytes / peak,
            )
            if requests[idx_done].nbytes == 0:
                finish = max(finish, started + latency)
            for i, entry in active.items():
                if i != idx_done:
                    entry[1] -= rate * dt
                    if entry[1] < 0:
                        entry[1] = 0.0
            now = finish
            results[idx_done] = ScheduledTransfer(sender, requests[idx_done].nbytes, started, finish)
            del active[idx_done]
            admit()

        return [results[i] for i in range(len(requests))]

    def makespan(self, requests: Sequence[TransferRequest]) -> float:
        """Total time to drain all requests."""
        if not requests:
            return 0.0
        return max(t.finish for t in self.schedule(requests))


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

class RdmaChannel(Channel):
    """One-directional inter-node channel mirroring :class:`ShmChannel`.

    ``send`` really moves bytes to the receiver and returns the simulated
    time the operation costs; ``recv`` pops delivered
    :class:`~repro.transport.buffers.WireBuffer` spans.  Small messages
    go through Put into the peer's message ring (one staging copy).
    Large messages gather straight into leased registered send memory
    (the one CPU copy), are "transferred" by DMA into leased registered
    receive memory, and arrive as a span over the receiver's registered
    buffer — releasing it returns the registration lease.
    """

    def __init__(
        self,
        connection: NntiConnection,
        sender: NntiEndpoint,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.connection = connection
        self.sender = sender
        self.receiver = connection._peer(sender)
        self._delivered: deque[WireBuffer] = deque()
        self.small_sends = 0
        self.large_sends = 0
        #: Optional PerfMonitor: each send records a ``transport`` event
        #: carrying the *simulated* transfer time, and ``emit_stats``
        #: publishes both endpoints' registration-cache counters.
        self.monitor = monitor
        #: Optional deterministic fault source consulted before sends
        #: (send timeout, torn send, peer disconnect, registration
        #: failure — the failure modes a real fabric surfaces).
        self.injector = injector

    def _maybe_inject_fault(self, nbytes: int) -> None:
        if self.injector is None:
            return
        kind = self.injector.next_fault()
        if kind is None:
            return
        record_injected(
            self.monitor, "rdma", kind, nbytes=nbytes, stream=self.injector.stream
        )
        raise fault_exception(
            kind, f"injected {kind.value} on rdma send ({nbytes} B)"
        )

    def send(
        self,
        payload: Union[bytes, memoryview, np.ndarray, WireBuffer],
        concurrent_flows: int = 1,
        timeout: Optional[float] = None,
    ) -> float:
        """Move ``payload`` to the receiver; returns elapsed (simulated) time.

        ``timeout`` exists for signature parity with
        :meth:`ShmChannel.send` (the drain pipeline passes one); time is
        simulated here, so it only bounds injected-fault semantics.
        """
        vec = payload if isinstance(payload, WireVector) else WireVector((payload,))
        return self._sendv(vec, concurrent_flows)

    def sendv(
        self, parts, concurrent_flows: int = 1, timeout: Optional[float] = None
    ) -> float:
        """Vectored send: one protocol round (Put or control+Get) moves
        every part of a step, mirroring :meth:`ShmChannel.sendv` — the
        parts gather straight into registered send memory, with no
        intermediate join."""
        vec = parts if isinstance(parts, WireVector) else WireVector(parts)
        return self._sendv(vec, concurrent_flows)

    def _sendv(self, vec: WireVector, concurrent_flows: int) -> float:
        total = vec.nbytes
        self._maybe_inject_fault(total)
        ic = self.connection.fabric.interconnect
        if total <= ic.params.small_msg_threshold:
            # Gather into the Put source; the ring entry is the consumer's
            # final buffer (delivered as a view over it).
            data = vec.tobytes()  # flexlint: ok(FXL006) small Puts stage through the peer's message ring by design
            t = self.connection.put_small(self.sender, "data", data)
            # Deliver straight to the channel (the mailbox entry is ours).
            self.receiver.mailbox.pop()
            wb = WireBuffer(data, ownership=Ownership.HEAP, copies=COPIES_RDMA_SMALL)
            self._delivered.append(wb)
            self.small_sends += 1
            path = "put_small"
        else:
            t, wb = self._send_bulk(vec, total, concurrent_flows)
            self._delivered.append(wb)
            self.large_sends += 1
            path = "get_bulk"
        if self.monitor is not None:
            self.monitor.record(
                "transport", "rdma.send",
                start=self.monitor.clock(), duration=t,
                nbytes=total, path=path,
            )
            self.monitor.metrics.counter("rdma.bytes_sent").inc(total)
            self.monitor.metrics.counter("rdma.messages_sent").inc()
        return t

    def _send_bulk(
        self, vec: WireVector, total: int, concurrent_flows: int
    ) -> tuple[float, WireBuffer]:
        """Control message + receiver-directed Get over leased registered
        buffers on both hosts (setups proceed in parallel)."""
        ic = self.connection.fabric.interconnect
        send_lease = self.sender.reg_cache.lease(total)
        try:
            recv_lease = self.receiver.reg_cache.lease(total)
        except BaseException:  # flexlint: ok(FXL001) lease cleanup must cover every raise, then re-raises
            send_lease.release()
            raise
        try:
            t = max(send_lease.setup_time, recv_lease.setup_time)
            vec.copy_into(send_lease.data)  # copy 1: gather into registered memory
            t += ic.params.control_msg_time  # sender's "data ready" notification
            if self.sender.node_id == self.receiver.node_id:
                t += total / ic.params.peak_bw  # loopback DMA
            else:
                t += ic.bulk_transfer_time(total, concurrent_flows)
            # The Get itself: NIC-driven DMA into the receiver's registered
            # buffer — priced above, not counted as a CPU copy.
            recv_lease.data[:total] = send_lease.data[:total]
            # Ownership of recv_lease moves into the WireBuffer here; the
            # consumer's release() returns the registration to the cache.
            wb = WireBuffer.from_lease(
                recv_lease, total, ownership=Ownership.RDMA, copies=COPIES_RDMA_BULK
            )
        except BaseException:  # flexlint: ok(FXL001) lease cleanup must cover every raise, then re-raises
            try:
                send_lease.release()
            finally:
                recv_lease.release()
            raise
        send_lease.release()
        return t, wb

    def recv(self, timeout: Optional[float] = None) -> Optional[WireBuffer]:
        """Pop the next delivered span (``timeout`` accepted for signature
        parity with :class:`~repro.transport.shm.ShmChannel`; delivery
        here is synchronous, so there is nothing to wait on).  Bulk spans
        must be released by the consumer to return the registration
        lease."""
        if not self._delivered:
            return None
        wb = self._delivered.popleft()
        self.observe_delivery(
            wb, "put_small" if wb.ownership is Ownership.HEAP else "get_bulk"
        )
        return wb

    def close(self) -> None:
        """Drop undelivered spans, returning any registration leases."""
        while self._delivered:
            wb = self._delivered.popleft()
            if not wb.released:
                wb.release()

    def emit_stats(self, monitor=None) -> None:
        """Publish both endpoints' registration-cache counters and the
        channel's send counts into a monitor's metrics registry."""
        mon = monitor or self.monitor
        if mon is None:
            raise ValueError("no monitor bound to this channel")
        self.sender.reg_cache.emit_stats(mon, prefix=f"rdma.regcache.{self.sender.name}")
        self.receiver.reg_cache.emit_stats(mon, prefix=f"rdma.regcache.{self.receiver.name}")
        mon.metrics.gauge("rdma.channel.small_sends").set(self.small_sends)
        mon.metrics.gauge("rdma.channel.large_sends").set(self.large_sends)
