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
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.machine.interconnect import Interconnect
from repro.obs.names import F_RDMA_REGCACHE, metric_name
from repro.transport.buffers import (
    Channel,
    LeasePool,
    Ownership,
    PoolBuffer,
    WireBuffer,
    WireVector,
    emit_gauges,
)
from repro.transport.faults import FaultKind, TransportFaultInjector

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
class RegCacheStats:
    hits: int = 0
    misses: int = 0
    reclaimed: int = 0
    setup_time_paid: float = 0.0
    setup_time_saved: float = 0.0


class RegistrationCache(LeasePool):
    """Persistent send/receive buffer pool with registration reuse.

    Two faces of the same free lists (:class:`LeasePool`'s, shared with
    the SHM buffer pool): the original ``acquire``/``release`` pair
    (used by the cost model's :meth:`NntiConnection.get_bulk`), and the
    buffer plane's :meth:`lease` protocol, which also hands out the
    registered memory itself so channels gather payloads straight into
    it.
    """

    floor = 4096
    prefix = F_RDMA_REGCACHE
    held_gauge = "registered_bytes"

    def __init__(self, interconnect: Interconnect, max_bytes: int = 512 * 1024 * 1024) -> None:
        super().__init__(max_bytes)
        self.interconnect = interconnect
        self.stats = RegCacheStats()

    def setup_cost(self, nbytes: int) -> float:
        """Alloc + register cost this cache avoids on a hit."""
        ic = self.interconnect
        return ic.allocation_time(nbytes) + ic.registration_time(nbytes)

    def acquire(self, nbytes: int) -> tuple[PoolBuffer, float]:
        """Return ``(buffer, setup_time)``; setup_time is 0 on a cache hit."""
        return self._acquire(nbytes)

    def release(self, buf: PoolBuffer) -> None:
        self._release(buf)

    def _account(self, buf: PoolBuffer, reused: bool) -> float:
        cost = self.setup_cost(buf.size)
        if reused:
            self.stats.hits += 1
            self.stats.setup_time_saved += cost
            return 0.0
        self.stats.misses += 1
        self.stats.setup_time_paid += cost
        return cost


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

    def get_bulk(self, dst: NntiEndpoint, data: bytes) -> tuple[bytes, float]:
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
            t += ic.bulk_transfer_time(nbytes)
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

    ``send``/``sendv`` really move bytes to the receiver — one protocol
    round (Put or control+Get) per message, every part gathered
    straight into registered send memory with no intermediate join —
    and return the simulated time the operation costs, which is also
    what a send records in place of a wall span.  ``timeout`` is
    accepted for signature parity; time is simulated here, so there is
    nothing to wait on.  ``recv`` pops delivered
    :class:`~repro.transport.buffers.WireBuffer` spans (None when none
    is pending).  Small messages go through Put into the peer's message
    ring (one staging copy).  Large messages gather straight into leased
    registered send memory (the one CPU copy), are "transferred" by DMA
    into leased registered receive memory, and arrive as a span over the
    receiver's registered buffer — releasing it returns the
    registration lease.
    """

    rung = "rdma"
    simulated = True

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

    def _transmit(self, vec: WireVector, total: int, timeout: float, sync: bool,
                  fault: Optional[FaultKind]) -> float:
        ic = self.connection.fabric.interconnect
        if total <= ic.params.small_msg_threshold:
            # Gather into the Put source; the ring entry is the consumer's
            # final buffer (delivered as a view over it).
            data = vec.tobytes()  # flexlint: ok(FXL006) small Puts stage through the peer's message ring by design
            t = self.connection.put_small(self.sender, "data", data)
            # Deliver straight to the channel (the mailbox entry is ours).
            self.receiver.mailbox.pop()
            wb = WireBuffer(data, ownership=Ownership.HEAP, copies=COPIES_RDMA_SMALL)
            self.small_sends += 1
            path = "put_small"
        else:
            t, wb = self._send_bulk(vec, total)
            self.large_sends += 1
            path = "get_bulk"
        self._delivered.append(wb)
        if self.monitor is not None:
            self.monitor.record(
                "transport", "rdma.send",
                start=self.monitor.clock(), duration=t,
                nbytes=total, path=path,
            )
        return t

    def _send_bulk(self, vec: WireVector, total: int) -> tuple[float, WireBuffer]:
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
                t += ic.bulk_transfer_time(total)
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

    def _recv(self, timeout: float) -> tuple[Optional[WireBuffer], str]:
        """Bulk spans must be released by the consumer to return the
        registration lease."""
        if not self._delivered:
            return None, ""
        wb = self._delivered.popleft()
        return wb, "put_small" if wb.ownership is Ownership.HEAP else "get_bulk"

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
        for ep in (self.sender, self.receiver):
            ep.reg_cache.emit_stats(mon, prefix=metric_name(F_RDMA_REGCACHE, ep.name))
        emit_gauges(mon, "rdma.channel", small_sends=self.small_sends,
                    large_sends=self.large_sends)
