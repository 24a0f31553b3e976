"""The directory daemon: FlexIO's control plane as a real socket server.

Two asyncio listeners share one event loop (run in a daemon thread via
:meth:`DirectoryDaemon.start`, or in the foreground via the
``python -m repro.net.server`` CLI); every accepted connection is one
:class:`_Conn`, and each frame is answered in the loop turn that completed
it — a bulk PUBLISH lands in the array the broker then stores:

* the **control port** speaks the :mod:`repro.net.protocol` frames for
  session setup (HELLO → WELCOME with a bearer-token check against the
  tenant table), directory traffic (REGISTER / LOOKUP / HEARTBEAT),
  and named-stream OPEN/CLOSE;
* the **data port** is a store-and-forward step broker: a writer's
  connection ATTACHes to an open stream and PUBLISHes steps, a
  reader's connection FETCHes them — so two unrelated OS processes
  exchange multi-step data without ever sharing memory.  Peers on the
  daemon's own node do share it: a bulk run moves through a slot of a
  :class:`_SlotPool` and the frame carries only where it is.

Every hosted stream carries its own
:class:`~repro.core.monitoring.PerfMonitor` whose series are labeled
with the owning tenant, and the embedded
:class:`~repro.obs.live.LiveTelemetryServer` exposes them at
``/metrics`` next to per-stream health verdicts — admission-control
rejections (bad token, quota exceeded) are typed
:class:`~repro.core.directory.AdmissionError` values on the Python
side and ``ERROR`` frames with the taxonomy kind on the wire.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import itertools
import mmap
import os
import secrets
import signal
import threading
import time
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.analysis import sanitize
from repro.core.directory import (
    AdmissionError,
    CoordinatorInfo,
    DirectoryError,
    TenantDirectory,
    TenantSpec,
)
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import CodeletError, combine_predicates, parse_predicate
from repro.core.stepstore import Outcome, StepStore
from repro.net.protocol import (
    CKPT_HEAD,
    CKPT_REG,
    CKPT_SESSION,
    CKPT_STEP,
    CKPT_STREAM,
    CKPT_TENANT,
    CKPT_VERSION,
    MISS_REPLY,
    Frame,
    MsgType,
    ProtocolError,
    block_bounds,
    decode_frame,
    decode_record,
    decode_var,
    encode_frame,
    encode_record,
)
from repro.obs import recorder as flight
from repro.obs.events import (
    EV_FAULT,
    EV_NET_CHECKPOINT,
    EV_NET_CONNECT,
    EV_NET_DISCONNECT,
    EV_NET_DRAIN,
    EV_NET_DUP_PUBLISH,
    EV_NET_FETCH_HELD,
    EV_NET_POOL_CREATE,
    EV_NET_POOL_RETIRE,
    EV_NET_RESTORE,
    EV_NET_RESUME,
    EV_NET_RETRY_AFTER,
    EV_NET_STEP_FETCH,
    EV_NET_STEP_PUBLISH,
    EV_NET_STREAM_OPEN,
)
from repro.obs.live import LiveTelemetryServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
    F_FAULTS_INJECTED,
    M_FAULTS_INJECTED_TOTAL,
    M_NET_BLOCKS_BOUNDED_BY_DAEMON,
    M_NET_FETCH_HOLDS_EXPIRED,
    M_NET_FETCHES_HELD,
    M_NET_FRAMES_REFUSED,
    M_NET_LOOP_LAG_MS,
    M_NET_POOL_SLOTS_FREE,
    M_NET_READERS_PARKED,
    M_NET_STEPS_FETCHED_BY_REF,
    M_NET_STEPS_PUBLISHED_BY_REF,
    M_PLUGIN_BLOCKS_SKIPPED,
    metric_name,
)
from repro.transport.buffers import as_byte_view
from repro.transport.faults import (
    FaultKind,
    TransportFaultInjector,
    parse_fault_spec,
)
from repro.transport.tcp import FRAME_PREFIX, INLINE_MAX, MAX_FRAME, unpace_loopback

__all__ = ["HostedStream", "DirectoryDaemon", "parse_tenant_arg", "main"]

#: Server banner sent in WELCOME frames.
SERVER_VERSION = "flexio-directoryd/3"

#: Bound on retained steps per hosted stream (oldest dropped first).
DEFAULT_RETAIN_STEPS = 64

#: Back-off the daemon suggests in RETRY_AFTER frames while draining.
DEFAULT_RETRY_AFTER_S = 0.25

#: Longest the daemon holds one FETCH, whatever ``wait`` it asks for.
MAX_FETCH_HOLD_S = 10.0


#: A connection's receive scratch: any frame up to ``INLINE_MAX`` of body,
#: header and prefix included, arrives whole in it.
_SCRATCH = INLINE_MAX + 4096


class _Conn(asyncio.BufferedProtocol):
    """One accepted connection: whole frames in, each answered in the loop
    turn that completed it.

    Inbound it is a frame assembler (no socket, no clock).  The transport
    receives into a per-connection scratch; every whole frame in it is
    copied out once and handed to ``handler(conn, raw)`` right there, in
    ``buffer_updated``.  A frame longer than the scratch gets its *own*
    ``np.empty(length)`` — the array the broker goes on to store: what was
    read of it is copied in, the rest lands in place.  A prefix over
    ``MAX_FRAME``, or one the allocator cannot honour, is refused before
    anything is allocated.  While the connection owes a reply it cannot
    give yet (:meth:`owe` … :meth:`settle`) or its transport is over the
    write high-water mark, frames wait unparsed and reading pauses once
    one scratch (or one large frame) is buffered: a peer that pipelines
    without reading cannot grow the daemon.  Outbound, a frame up to
    ``INLINE_MAX`` is one write, a larger one's parts go back to back:
    frames never interleave.
    """

    def __init__(self, daemon: "DirectoryDaemon", handler) -> None:
        self._daemon = daemon
        #: The connection's state: what its next frame means.
        self.handler = handler
        self._scratch = np.empty(_SCRATCH, dtype=np.uint8)
        self._body: Optional[np.ndarray] = None  # a large frame, its own array
        # Bytes land at ``_into[_end:]``: the scratch, unparsed from
        # ``_start`` on — or the large frame's array, ``_end`` bytes in.
        self._into = memoryview(self._scratch)
        self._start = self._end = 0
        self.owing = self.closing = False
        self._blocked = self._paused = self._pumping = False
        # What the handlers keep per connection.
        self.session: Optional[_Session] = None   # control: after HELLO
        self.bye = False
        self.stream: Optional[HostedStream] = None  # data: after ATTACH
        self.reader = self.colocated = False
        self.grant: Optional[tuple] = None   # a writer's unused slot
        self.pinned = None  # the payload last served: kept until the next request

    def connection_made(self, transport) -> None:
        self.transport = transport
        unpace_loopback(transport.get_extra_info("socket"))
        self._daemon._conns.add(self)

    # -- inbound -----------------------------------------------------------
    def get_buffer(self, sizehint: int) -> memoryview:
        return self._into[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        self._pump()

    def eof_received(self) -> bool:
        # The peer sends no more: every whole frame was handled as it came,
        # what is written still leaves, a frame cut short and a reply still
        # owed (a parked FETCH) are dropped — the transport closes now.
        self.closing = True
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closing = True
        self._daemon._conn_lost(self)

    def owe(self) -> None:
        """The frame being handled is answered later: hold the rest back."""
        self.owing = True

    def settle(self, *reply) -> None:
        """The owed reply has gone (or goes now: ``reply``, a frame's
        parts): handle what queued behind it."""
        if reply:
            self.write_frame(*reply)
        self.owing = False
        self._pump()

    def hang_up(self) -> None:
        self.closing = True
        self.transport.close()

    def _pump(self) -> None:
        if self._pumping:  # a handler settled this connection: the loop below goes on
            return
        self._pumping = True
        try:
            while not (self.owing or self._blocked or self.closing):
                raw = self._next_frame()
                if raw is None:
                    break
                self.handler(self, raw)
        finally:
            self._pumping = False
        if self.closing:
            return
        held = self.owing or self._blocked
        if held and not self._paused and self._end == len(self._into):  # full
            self._paused = True
            self.transport.pause_reading()
        elif self._paused and not held:
            self._paused = False
            self.transport.resume_reading()

    def _next_frame(self) -> Optional[np.ndarray]:
        """The next whole frame, or None until more bytes arrive."""
        body = self._body
        if body is not None:  # whole once its last byte is in
            if self._end < len(body):
                return None
            self._body, self._into, self._end = None, memoryview(self._scratch), 0
            return body
        start, have = self._start, self._end - self._start
        if have >= FRAME_PREFIX.size:
            (length,) = FRAME_PREFIX.unpack_from(self._scratch, start)
            end = start + FRAME_PREFIX.size + length
            if end <= self._end:  # whole, here: copied out once
                self._start = end
                return self._scratch[start + FRAME_PREFIX.size:end].copy()
            if FRAME_PREFIX.size + length > len(self._scratch):
                self._large(length)
                return None
        # Part of a frame that fits: move it to the front, wait for the rest.
        self._scratch[:have] = self._scratch[start:self._end]
        self._start, self._end = 0, have
        return None

    def _large(self, length: int) -> None:
        """Start a frame longer than the scratch in its own array."""
        body = None
        if length <= MAX_FRAME:
            try:
                body = np.empty(length, dtype=np.uint8)
            except MemoryError:
                pass  # refused below, like a prefix over the bound
        if body is None:
            # A prefix is a claim, not a fact: typed refusal, then close.
            self._daemon.metrics.counter(M_NET_FRAMES_REFUSED).inc()
            self.write_frame(encode_frame(MsgType.ERROR, {
                "kind": "protocol", "message": f"frame of {length} B refused"}))
            return self.hang_up()
        read = self._scratch[self._start + FRAME_PREFIX.size:self._end]
        body[:len(read)] = read
        self._body, self._into = body, memoryview(body)
        self._start, self._end = 0, len(read)

    # -- outbound ----------------------------------------------------------
    def pause_writing(self) -> None:
        self._blocked = True

    def resume_writing(self) -> None:
        self._blocked = False
        self._pump()

    def write_frame(self, *parts) -> None:
        if self.closing:
            return
        views = [as_byte_view(p) for p in parts]
        total = sum(v.nbytes for v in views)
        # Up to INLINE_MAX, one segment: the peer wakes once, to the whole
        # frame.  A larger one: prefix + header, then the payload uncopied.
        head = len(views) if total <= INLINE_MAX else 1
        self.transport.write(b"".join((FRAME_PREFIX.pack(total), *views[:head])))
        for view in views[head:]:
            self.transport.write(view.data)


class _SlotPool:
    """One generation of a hosted stream's shared-memory slots: an
    anonymous memfd a same-uid peer on this node maps through
    ``/proc/<pid>/fd/<n>`` — no name outlives the daemon.  Sized by the
    first run it has to hold; slots are recycled (a fresh tmpfs page is a
    fault per 4 KB on both sides) and mapped, never ``pwritev``-ed."""

    _serial = itertools.count(1)

    def __init__(self, run_nbytes: int, slots: int) -> None:
        page = mmap.PAGESIZE
        self.capacity = -(-(run_nbytes + run_nbytes // 8) // page) * page
        fd = os.memfd_create("flexio-pool")
        weakref.finalize(self, os.close, fd)  # the mapping goes with ``arr``
        os.ftruncate(fd, self.capacity * slots)
        self.arr = np.frombuffer(mmap.mmap(fd, 0), dtype=np.uint8)
        #: fd numbers are reused: the serial makes the name one generation's.
        self.name = f"/proc/{os.getpid()}/fd/{fd}@{next(self._serial)}"
        self.free = [i * self.capacity for i in range(slots)]


class _Hold(NamedTuple):
    """One parked FETCH: the step it asked for, its clamped ``wait``, the
    timer that expires it, and ``end(outcome, detail)``, which answers it."""

    step: int
    wait: float
    timer: asyncio.TimerHandle
    end: Callable


class HostedStream:
    """One named stream brokered by the daemon.

    Duck-typed like an in-process stream state (``monitor``, ``closed``,
    ``error``, ``active_transport``) so the live-telemetry server and
    :class:`~repro.obs.health.HealthBoard` sample it unchanged; the
    ``tenant`` attribute labels every metric series.
    """

    def __init__(self, tenant: str, name: str, retain_steps: int = DEFAULT_RETAIN_STEPS) -> None:
        self.tenant = tenant
        self.name = name
        self.stream_id = f"{tenant}/{name}"
        self.monitor = PerfMonitor()
        #: ``shm`` while the latest step sits in a pool slot.
        self.active_transport = "tcp"
        #: step -> (var count, the net.var run: a uint8 view of the frame
        #: that carried it, or of the pool slot it was published into;
        #: ``bytes`` once pruned or restored); what a reader is told about
        #: any step is this store's ``lookup``.
        self.store = StepStore(retain=int(retain_steps))
        #: The current pool generation (None until a same-node writer
        #: publishes a run over ``INLINE_MAX``) and, for every slot in use,
        #: ``id(its view) -> (pool, offset, nbytes, sanitizer digest | None)``.
        self.pool: Optional[_SlotPool] = None
        self._slots: dict[int, tuple] = {}
        self._san = sanitize.get()  # captured: one None check when disabled
        #: Highest publish sequence number applied; republished frames
        #: with seq <= last_seq are acknowledged but not re-stored, so a
        #: writer that resends after a lost OK never duplicates a step.
        self.last_seq = 0
        self._labels = {"tenant": tenant}
        # This stream's series, resolved once each: a registry look-up sorts
        # and joins the label dict into its key every time, 8 times a step.
        metrics = self.monitor.metrics
        self.counter = functools.cache(functools.partial(metrics.counter, labels=self._labels))
        self.gauge = functools.cache(functools.partial(metrics.gauge, labels=self._labels))
        #: Attached-reader pushdown predicates, keyed per data connection
        #: (None = reader attached without one, which disables pruning),
        #: and what they combine to — asked at every publish and every ack.
        self._reader_preds: dict[int, object] = {}
        self._prune = None
        #: Attached readers with a FETCH parked here, and its hold.
        self.parked: dict[_Conn, _Hold] = {}

    @property
    def closed(self) -> bool:
        return self.store.closed

    @property
    def error(self) -> Optional[str]:
        return self.store.failed

    # ------------------------------------------------------------------
    def publish(self, step: int, count: int, payload: "np.ndarray | bytes",
                eos: bool, seq: int = 0, slot: Optional[tuple] = None) -> bool:
        """Store one step; returns False for a suppressed duplicate.
        ``slot`` is the granted ``(pool, offset)`` that ``payload`` views:
        kept while that view object lives, given back at once when the
        step is not stored as that view (duplicate, pruned to ``bytes``)."""
        if 0 < seq <= self.last_seq:
            self.counter("net.dup_publishes").inc()
            flight.record(
                EV_NET_DUP_PUBLISH, stream=self.stream_id, step=step, seq=seq
            )
            if slot is not None:
                self.give_back(*slot)
            return False
        self.last_seq = max(seq, self.last_seq)
        self.store.append(step, (count, payload), len(payload))
        if eos:
            self.store.end(step + 1)
        by_ref = slot is not None and isinstance(payload, np.ndarray)
        self.active_transport = "shm" if by_ref else "tcp"
        if by_ref:
            # The stored object is the one the slot's life hangs on.
            digest = None
            if self._san is not None:  # the write that just landed hit no slot in use
                for ref in self._slots.values():
                    self._checked(*ref)
                digest = zlib.crc32(payload)
            self._slots[key := id(payload)] = (*slot, len(payload), digest)
            stream = weakref.ref(self)  # a dropped stream's pools die with it
            weakref.finalize(payload, lambda: (s := stream()) and s._slot_dead(key))
            self.counter(M_NET_STEPS_PUBLISHED_BY_REF).inc()
        elif slot is not None:
            self.give_back(*slot)
        self.counter("net.steps_published").inc()
        self.counter("net.bytes_published").inc(len(payload))
        self.gauge("net.retained_steps").set(len(self.store))
        flight.record(
            EV_NET_STEP_PUBLISH, stream=self.stream_id, step=step, nbytes=len(payload)
        )
        self.wake()  # last: a slot-backed step is answered by reference
        return True

    def fetch(self, step: int) -> Optional[tuple[int, "np.ndarray | bytes"]]:
        """Step ``step``'s ``(var count, payload)``, counted as served;
        None on a miss (the store's ``lookup`` says which kind)."""
        outcome, got = self.store.lookup(step)
        if outcome is not Outcome.HIT:
            return None
        self.counter("net.steps_fetched").inc()
        self.counter("net.bytes_fetched").inc(len(got[1]))
        flight.record(EV_NET_STEP_FETCH, stream=self.stream_id, step=step)
        return got

    # -- the same-node rung: pool slots -----------------------------------
    # The lifetime rule, once: a slot is in use from its grant until the
    # one view object stored for it is collected — the store holds that
    # object while the step is retained, a reader's connection while the
    # step is pinned to it — or until an unused grant is given back.
    def grant(self, held: Optional[tuple] = None,
              run_nbytes: int = 0) -> Optional[tuple]:
        """The ``(pool, offset)`` one writer connection may publish its
        next step into: ``held`` while it is of the current generation,
        else a free slot, else None (no pool yet, or exhausted: the step
        comes inline).  ``run_nbytes`` is the inline run just stored — a
        large one no generation holds sizes the next; the old generation
        dies with its last view."""
        if run_nbytes > INLINE_MAX and (
                self.pool is None or run_nbytes > self.pool.capacity):
            old = self.pool
            try:
                self.pool = _SlotPool(run_nbytes, self.store.retain + 4)
            except OSError:
                return held  # no memfd to be had: inline, as before
            if old is not None:
                flight.record(EV_NET_POOL_RETIRE, stream=self.stream_id, pool=old.name)
            flight.record(EV_NET_POOL_CREATE, stream=self.stream_id,
                          pool=self.pool.name, capacity=self.pool.capacity)
        if held is not None and held[0] is self.pool:
            return held  # (a retired generation's grant is simply dropped)
        if self.pool is None or not self.pool.free:
            return None
        slot = self.pool, self.pool.free.pop()
        self.gauge(M_NET_POOL_SLOTS_FREE).set(len(self.pool.free))
        return slot

    def give_back(self, pool: _SlotPool, offset: int) -> None:
        pool.free.append(offset)
        self.gauge(M_NET_POOL_SLOTS_FREE).set(len(self.pool.free))

    def slot_of(self, payload) -> Optional[tuple]:
        """``(pool, offset)`` when ``payload`` is a stored slot view."""
        ref = self._slots.get(id(payload))
        return None if ref is None else self._checked(*ref)

    def _slot_dead(self, key: int) -> None:
        self.give_back(*self._checked(*self._slots.pop(key)))

    def _checked(self, pool: _SlotPool, offset: int, nbytes: int, digest) -> tuple:
        """``(pool, offset)`` of a slot in use.  Sanitizer: at every fetch,
        every later publish and when freed, it holds what was published."""
        if digest is not None:
            self._san.check_slot(f"{self.stream_id}@{offset}", digest,
                                 pool.arr[offset:offset + nbytes])
        return pool, offset

    # -- reader predicate pushdown -------------------------------------
    def register_reader(self, key: int, predicate) -> None:
        """Track one attached reader's pushdown predicate (or None)."""
        self._reader_preds[key] = predicate
        self._combine()

    def drop_reader(self, key: int) -> None:
        self._reader_preds.pop(key, None)
        self._combine()

    def prune_predicate(self):
        """The combined block predicate the broker may prune against.

        None — i.e. never prune — unless at least one reader is attached
        and *every* attached reader registered a predicate: a block is a
        safe drop only when each consumer proves it empty.
        """
        return self._prune

    def _combine(self) -> None:
        preds = list(self._reader_preds.values())
        self._prune = combine_predicates(preds) if preds and None not in preds else None

    def end(self) -> None:
        """The writer's CLOSE: clean end just past the last step."""
        self.store.end()
        self.wake()

    def fail(self, reason: str) -> None:
        """Directory eviction callback: lease expired → typed stream end."""
        self.store.fail(reason)
        self.wake()

    def wake(self, drain: bool = False) -> None:
        """Called after anything that can change what ``store.lookup``
        answers a parked reader — publish, end, fail, and the daemon's
        drain (``drain``: not yet is an answer too).  Each parked reader's
        step is looked up again and, unless it is still not yet, answered
        here, in place.  Loop thread only."""
        for hold in list(self.parked.values()):
            outcome, detail = self.store.lookup(hold.step)
            if outcome is not Outcome.NOT_YET or drain:
                hold.end(outcome, detail)

    def unpark(self, conn: _Conn) -> Optional[_Hold]:
        """Take ``conn``'s hold off this stream, its timer with it."""
        hold = self.parked.pop(conn, None)
        if hold is not None:
            hold.timer.cancel()
            self.gauge(M_NET_READERS_PARKED).set(len(self.parked))
        return hold


def prune_step_payload(raw: np.ndarray, offset: int, count: int,
                       predicate, stream: HostedStream) -> tuple[int, "np.ndarray | bytes"]:
    """Drop ``net.var`` spans the combined reader predicate proves empty.

    Walks the PUBLISH frame's var run by ``decode_var`` offsets and
    rebuilds the stored payload from the surviving spans — the payload
    is sliced, never re-encoded, so kept blocks stay byte-identical.  A
    writer stamps bounds once a reply has asked it to; a block published
    inside that one-step window is bounded here (a slot is mapped here
    too), so outcomes do not depend on who did.  A span nobody can bound
    is always kept.  Each dropped span counts toward the stream's
    ``plugin.blocks_skipped`` series.
    """
    kept: list[np.ndarray] = []
    skipped = bounded = 0
    start = offset
    for _ in range(count):
        rec, end = decode_var(raw, offset)
        bounds = (rec["vmin"], rec["vmax"]) if rec["has_stats"] else block_bounds(rec["data"])
        if bounds is not None and not rec["has_stats"]:
            bounded += 1
        if bounds is not None and not predicate.might_match(rec["name"], *map(float, bounds)):
            skipped += 1
        else:
            kept.append(raw[offset:end])
        offset = end
    if bounded:
        stream.counter(M_NET_BLOCKS_BOUNDED_BY_DAEMON).inc(bounded)
    if not skipped:
        # The frame's own array, or the slot's one view: stored as it landed.
        return count, raw[start:] if start else raw
    stream.counter(M_PLUGIN_BLOCKS_SKIPPED).inc(skipped)
    return count - skipped, b"".join(
        s.tobytes() for s in kept  # flexlint: ok(FXL006) store of store-and-forward
    )


def _handler(method):
    """A connection state: ``method(self, conn, raw, frame)`` is called
    with each whole frame, decoded; one that does not decode is refused."""

    @functools.wraps(method)
    def handle(self, conn: _Conn, raw: np.ndarray) -> None:
        try:
            frame = decode_frame(raw)
        except ProtocolError as exc:
            return self._refuse(conn, "protocol", str(exc))
        return method(self, conn, raw, frame)

    return handle


def _coordinator(rec: dict, contact=None) -> CoordinatorInfo:
    """The writer coordinator a REGISTER or an OPEN for write names."""
    return CoordinatorInfo(rec["program"], int(rec["rank"]), int(rec["num_ranks"]),
                           contact=contact)


@dataclass
class _Session:
    session_id: str
    tenant: str
    spec: TenantSpec
    client: str = ""
    #: Server-issued resume token: a reconnecting client presents it in
    #: HELLO to adopt this session instead of minting a fresh one.
    resume: str = ""
    streams: list[str] = field(default_factory=list)


class DirectoryDaemon:
    """The asyncio control+data daemon behind ``flexio://`` URIs.

    ``tenants`` seeds the tenant table; with none given a single open
    tenant ``"public"`` (no token, no quotas) is created so
    single-tenant deployments work out of the box.  ``clock`` threads
    through to every per-tenant :class:`DirectoryServer` so lease reap
    stays deterministic under test.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        control_port: int = 0,
        data_port: int = 0,
        tenants: Optional[list[TenantSpec]] = None,
        clock: Optional[Callable[[], float]] = None,
        lease_interval: float = 0.2,
        retain_steps: int = DEFAULT_RETAIN_STEPS,
        telemetry: bool = True,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: float = 0.0,
        checkpoint_sync: bool = False,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.host = host
        self.control_port = control_port  # 0 → ephemeral; fixed after start
        self.data_port = data_port
        self.metrics = MetricsRegistry()
        self.directory = TenantDirectory(clock=clock, metrics=self.metrics)
        for spec in tenants if tenants is not None else [TenantSpec("public")]:
            self.directory.add_tenant(spec)
        self.lease_interval = lease_interval
        self.retain_steps = retain_steps
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = float(checkpoint_interval)
        #: Synchronous durability: checkpoint before acking each PUBLISH,
        #: so an acked step survives even a hard daemon kill.
        self.checkpoint_sync = bool(checkpoint_sync)
        #: Frame-layer fault source for the daemon's *outbound* frames
        #: (replies, STEP_DATA) — the server half of the chaos taxonomy.
        self.injector = injector
        #: Same-node proof: only a peer sharing this node, uid and pid
        #: namespace — one that can map a pool — reads the nonce WELCOME
        #: names.  No ``memfd_create``: no path, everyone gets inline frames.
        self._nonce, self._nonce_path = secrets.token_hex(8), ""
        if hasattr(os, "memfd_create"):
            fd = os.memfd_create("flexio-nonce")
            weakref.finalize(self, os.close, fd)
            os.write(fd, self._nonce.encode())
            self._nonce_path = f"/proc/{os.getpid()}/fd/{fd}"
        self._streams: dict[str, HostedStream] = {}
        self._sessions: dict[str, _Session] = {}
        self._resume: dict[str, str] = {}  # resume token -> session_id
        self._session_counter = itertools.count(1)
        self._draining = False
        self._conns: set[_Conn] = set()
        self.telemetry: Optional[LiveTelemetryServer] = (
            LiveTelemetryServer(states=self._stream_states) if telemetry else None
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: list[asyncio.AbstractServer] = []
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: One-thread pool for checkpoint file I/O; lazily created so
        #: daemons that never checkpoint pay nothing.
        self._ckpt_executor: Optional[ThreadPoolExecutor] = None
        self._ckpt_tmp_seq = itertools.count()

    # -- telemetry plumbing ------------------------------------------------
    def _stream_states(self) -> dict[str, object]:
        states: dict[str, object] = dict(self._streams)
        # A process-level pseudo-stream: daemon-wide series (sessions,
        # admission rejections, lease evictions) render without a stream label.
        states[""] = SimpleNamespace(monitor=SimpleNamespace(metrics=self.metrics),
                                     closed=False, error=None, active_transport="")
        return states

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "DirectoryDaemon":
        """Bind both listeners and serve from a daemon thread."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._serve_thread, name="flexio-directoryd", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(f"daemon failed to start: {self._startup_error!r}")
        if not self._ready.is_set():
            raise RuntimeError("daemon did not start within 10s")
        if self.telemetry is not None:
            self.telemetry.start()
        return self

    def _serve_thread(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._bind())
        # flexlint: ok(FXL001) any bind failure must unblock start(), whatever its type
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        tasks = [loop.create_task(self._reap_loop())]
        if self.checkpoint_path and self.checkpoint_interval > 0:
            tasks.append(loop.create_task(self._checkpoint_loop()))
        try:
            loop.run_forever()
        finally:
            for server in self._servers:
                server.close()
            # Connections too: one parked in a held FETCH, or idle between
            # frames, would keep its socket (and 3.12's ``wait_closed``)
            # open past stop().
            for conn in list(self._conns):
                conn.hang_up()
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            for server in self._servers:
                loop.run_until_complete(server.wait_closed())
            loop.close()

    async def _bind(self) -> None:
        loop = asyncio.get_running_loop()
        control = await loop.create_server(
            lambda: _Conn(self, self._hello), self.host, self.control_port
        )
        self.control_port = control.sockets[0].getsockname()[1]
        data = await loop.create_server(
            lambda: _Conn(self, self._attach), self.host, self.data_port
        )
        self.data_port = data.sockets[0].getsockname()[1]
        self._servers = [control, data]

    async def _reap_loop(self) -> None:
        loop = asyncio.get_running_loop()
        lag = self.metrics.gauge(M_NET_LOOP_LAG_MS)
        while True:
            due = loop.time() + self.lease_interval
            await asyncio.sleep(self.lease_interval)
            # How late the tick ran: what a frame waits for the loop now.
            lag.set(max(0.0, loop.time() - due) * 1e3)
            reaped = self.directory.reap_all()
            for tenant, names in reaped.items():
                for name in names:
                    self.metrics.counter(
                        "net.lease_evictions", labels={"tenant": tenant}
                    ).inc()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            await self.checkpoint_async()

    def stop(self) -> None:
        if self.telemetry is not None:
            self.telemetry.stop()
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self._loop = None
        self._servers = []
        self._thread = None
        self._ready.clear()
        if self._ckpt_executor is not None:
            self._ckpt_executor.shutdown(wait=True)
            self._ckpt_executor = None

    # -- frame I/O ---------------------------------------------------------
    def _reply(self, conn: _Conn, *parts) -> None:
        """Write one frame to ``conn`` — or act out the fault injected into it."""
        kind = None if self.injector is None else self.injector.next_fault()
        if kind is None:
            conn.write_frame(*parts)
        else:
            self._inject_outbound(conn, kind, parts)

    def _inject_outbound(self, conn: _Conn, kind: FaultKind, parts) -> None:
        """Act out one injected fault on an outbound frame: it is dropped,
        torn, delayed, or the connection is killed instead."""
        blob = b"".join(as_byte_view(p) for p in parts)  # chaos-only path
        total = len(blob)
        self.metrics.counter(metric_name(F_FAULTS_INJECTED, kind.value)).inc()
        self.metrics.counter(M_FAULTS_INJECTED_TOTAL).inc()
        flight.record(EV_FAULT, kind=kind.value, transport="daemon", nbytes=total)
        if kind is FaultKind.DROPPED_FRAME:
            return  # the reply silently never leaves; peer times out
        if kind is FaultKind.DELAYED_FRAME:
            conn.owe()  # what the peer sends meanwhile waits behind it
            self._loop.call_later(0.05, conn.settle, *parts)
            return
        if kind is FaultKind.TORN_FRAME:
            conn.transport.write(FRAME_PREFIX.pack(total) + blob[: max(1, total // 2)])
        # TORN_FRAME (the peer sees a truncated stream), CONN_RESET /
        # HALF_OPEN and any send-side kind: kill the connection; the peer
        # observes a disconnect and reconnects.
        conn.hang_up()

    def _send_error(self, conn, kind: str, message: str) -> None:
        self._reply(conn, encode_frame(MsgType.ERROR, {"kind": kind, "message": message}))

    def _refuse(self, conn, kind: str, message: str) -> None:
        """A typed ERROR, then hang up: the peer broke the protocol."""
        self._send_error(conn, kind, message)
        conn.hang_up()

    def _send_admission_error(self, conn, exc: AdmissionError) -> None:
        kind = exc.kind.value if exc.kind is not None else "admission"
        self._send_error(conn, kind, str(exc))

    def _send_retry_after(self, conn, reason: str,
                          delay: float = DEFAULT_RETRY_AFTER_S) -> None:
        flight.record(EV_NET_RETRY_AFTER, reason=reason, delay=delay)
        self._reply(
            conn, encode_frame(MsgType.RETRY_AFTER, {"delay": delay, "reason": reason})
        )

    def _conn_lost(self, conn: _Conn) -> None:
        """Whatever a connection held goes with it — in the turn it ends."""
        self._conns.discard(conn)
        stream = conn.stream
        if stream is None:
            # A session is NOT bound to its control socket: it dies only on
            # a clean BYE (or daemon restart without a checkpoint).  A socket
            # that drops mid-session leaves it resumable via its token.
            if conn.session is not None:
                if conn.bye:
                    self._sessions.pop(conn.session.session_id, None)
                    self._resume.pop(conn.session.resume, None)
                flight.record(EV_NET_DISCONNECT, tenant=conn.session.tenant)
            return
        stream.unpark(conn)  # a parked reader stops steering pruning now
        if conn.reader:
            stream.drop_reader(id(conn))
        if conn.grant is not None:
            stream.give_back(*conn.grant)
        conn.grant = conn.pinned = None

    # -- control plane -----------------------------------------------------
    @_handler
    def _hello(self, conn: _Conn, raw, frame: Frame) -> None:
        """A control connection's first frame: HELLO, answered WELCOME."""
        if frame.msg_type is not MsgType.HELLO:
            return self._refuse(conn, "protocol", "expected HELLO")
        if self._draining:
            self._send_retry_after(conn, "draining")
            return conn.hang_up()
        tenant = frame.record["tenant"]
        token = frame.record["token"] or None
        try:
            spec = self.directory.authenticate(tenant, token)
        except AdmissionError as exc:
            self._send_admission_error(conn, exc)
            return conn.hang_up()
        resume_token = frame.record["resume"]
        resumed = False
        session = None
        if resume_token:
            sid = self._resume.get(resume_token)
            if sid is not None:
                candidate = self._sessions.get(sid)
                if candidate is not None and candidate.tenant == tenant:
                    session = candidate
                    resumed = True
        if session is None:
            session = _Session(
                session_id=f"s{next(self._session_counter)}",
                tenant=tenant,
                spec=spec,
                client=frame.record["client"],
                resume=secrets.token_hex(8),
            )
            self._sessions[session.session_id] = session
            self._resume[session.resume] = session.session_id
            self.metrics.counter("net.sessions", labels={"tenant": tenant}).inc()
        else:
            self.metrics.counter("net.resumes", labels={"tenant": tenant}).inc()
            flight.record(
                EV_NET_RESUME, session=session.session_id, tenant=tenant
            )
        flight.record(EV_NET_CONNECT, tenant=tenant, client=session.client)
        conn.session, conn.handler = session, self._control
        self._reply(conn, encode_frame(MsgType.WELCOME, {
            "session": session.session_id,
            "server": SERVER_VERSION,
            "data_port": self.data_port,
            "resume": session.resume,
            "resumed": resumed,
            "pool": self._nonce_path,
        }))

    @_handler
    def _control(self, conn: _Conn, raw, frame: Frame) -> None:
        rec = frame.record
        session = conn.session
        tenant = session.tenant
        if frame.msg_type is MsgType.BYE:
            conn.bye = True
            return conn.hang_up()
        if self._draining and frame.msg_type in (MsgType.OPEN, MsgType.REGISTER):
            # Drain refuses *new* work but still serves lookups, closes
            # and heartbeats so in-flight sessions can wind down.
            return self._send_retry_after(conn, "draining")
        try:
            if frame.msg_type is MsgType.REGISTER:
                self.directory.register(tenant, rec["stream"], _coordinator(rec),
                                        lease=rec["lease"] if rec["lease"] > 0 else None)
                self._ack(conn, "registered")
            elif frame.msg_type is MsgType.LOOKUP:
                info = self.directory.lookup(tenant, rec["stream"])
                self._reply(conn, encode_frame(MsgType.LOOKUP_REPLY, {
                    "program": info.program,
                    "rank": info.coordinator_rank,
                    "num_ranks": info.num_ranks,
                }))
            elif frame.msg_type is MsgType.HEARTBEAT:
                try:
                    self.directory.heartbeat(tenant, rec["stream"])
                    detail = "heartbeat"
                except DirectoryError:
                    # Tolerant: reader-side and already-closed streams
                    # heartbeat too (the client's background thread does
                    # not know which names hold leases).
                    detail = "idle"
                self._ack(conn, detail)
            elif frame.msg_type is MsgType.OPEN:
                self._control_open(session, rec, conn)
            elif frame.msg_type is MsgType.CLOSE:
                stream = self._streams.get(rec["stream_id"])
                if stream is None:
                    return self._send_error(conn, "unknown_stream", rec["stream_id"])
                stream.end()
                try:
                    self.directory.unregister(stream.tenant, stream.name)
                except DirectoryError:
                    pass  # already reaped or never leased-registered
                self._ack(conn, "closed")
            else:
                self._send_error(
                    conn, "protocol", f"unexpected {frame.msg_type.name} on control port"
                )
        except AdmissionError as exc:
            self._send_admission_error(conn, exc)
        except DirectoryError as exc:
            self._send_error(conn, "directory", str(exc))

    def _control_open(self, session: _Session, rec: dict, conn) -> None:
        tenant = session.tenant
        name = rec["stream"]
        mode = rec["mode"]
        stream_id = f"{tenant}/{name}"
        if mode == "w":
            existing = self._streams.get(stream_id)
            if (existing is not None and not existing.closed
                    and stream_id in session.streams):
                # Idempotent re-OPEN: this session already owns the live
                # stream — a retried OPEN (lost reply) or a post-resume
                # re-attach must not hit the duplicate-registration check.
                pass
            else:
                stream = HostedStream(tenant, name, retain_steps=self.retain_steps)
                # Admission (quota + duplicate check) happens before the
                # stream becomes visible to readers.
                self.directory.register(tenant, name, _coordinator(rec, stream),
                                        lease=rec["lease"] if rec["lease"] > 0 else None)
                self._streams[stream_id] = stream
                session.streams.append(stream_id)
        elif mode == "r":
            hosted = self._streams.get(stream_id)
            if hosted is None:
                # Raises the typed not-found the client retry loop expects.
                self.directory.lookup(tenant, name)
                return self._send_error(conn, "unknown_stream", stream_id)
            if not hosted.closed:
                # Live stream: count the reader in the directory.  A
                # closed stream stays openable while steps are retained —
                # late analytics drain the store-and-forward tail to EOS.
                self.directory.lookup(tenant, name)
        else:
            return self._send_error(conn, "protocol", f"bad open mode {mode!r}")
        flight.record(EV_NET_STREAM_OPEN, stream=stream_id, mode=mode, tenant=tenant)
        self._reply(conn, encode_frame(MsgType.OPEN_REPLY, {
            "stream_id": stream_id,
            "data_port": self.data_port,
        }))

    # -- data plane --------------------------------------------------------
    @_handler
    def _attach(self, conn: _Conn, raw, frame: Frame) -> None:
        """A data connection's first frame: ATTACH binds it to a stream as
        its writer (every next frame a PUBLISH) or a reader (a FETCH)."""
        if frame.msg_type is not MsgType.ATTACH:
            return self._refuse(conn, "protocol", "expected ATTACH")
        session = self._sessions.get(frame.record["session"])
        if session is None:
            return self._refuse(conn, "auth", "unknown session")
        stream = self._streams.get(frame.record["stream_id"])
        if stream is None or stream.tenant != session.tenant:
            return self._refuse(conn, "unknown_stream", frame.record["stream_id"])
        if self._draining:
            self._send_retry_after(conn, "draining")
            return conn.hang_up()
        try:
            predicate = parse_predicate(frame.record["predicate"])
        except CodeletError as exc:
            return self._refuse(conn, "protocol", f"bad predicate spec: {exc}")
        conn.stream = stream
        conn.colocated = bool(self._nonce_path) and frame.record["nonce"] == self._nonce
        if frame.record["role"] == "w":
            # What the latest positive reply granted this connection, while
            # it is unused; back in the pool when the connection ends.
            conn.grant = stream.grant() if conn.colocated else None
            conn.handler = self._publish
            self._ack(conn, "attached", conn.grant, stream.prune_predicate() is not None)
        else:
            conn.reader, conn.handler = True, self._fetch
            self._ack(conn, "attached")
            stream.register_reader(id(conn), predicate)

    def _ack(self, conn: _Conn, detail: str, grant: Optional[tuple] = None,
             stats: bool = False) -> None:
        """The positive reply: OK, or GRANT to a writer that now holds a slot;
        ``stats`` asks a writer to stamp block bounds (a reader prunes)."""
        if grant is None:
            frame = encode_frame(MsgType.OK, {"detail": detail, "stats": stats})
        else:
            frame = encode_frame(MsgType.GRANT, {
                "detail": detail, "pool": grant[0].name, "offset": grant[1],
                "capacity": grant[0].capacity, "stats": stats})
        self._reply(conn, frame)

    def _owe(self, conn: _Conn, work, reply: Callable[[], None]) -> None:
        """``conn`` owes a reply until the coroutine ``work`` is done;
        ``reply()`` then gives it (a failure hangs up, and is logged)."""
        conn.owe()

        def done(task: asyncio.Task) -> None:
            if task.cancelled() or conn.closing:
                return
            if task.exception() is not None:
                conn.hang_up()
                task.result()  # raises: the loop's exception handler logs it
            reply()
            conn.settle()

        self._loop.create_task(work).add_done_callback(done)

    @_handler
    def _publish(self, conn: _Conn, raw: np.ndarray, frame: Frame) -> None:
        stream, rec, grant = conn.stream, frame.record, conn.grant
        by_ref = frame.msg_type is MsgType.PUBLISH_REF
        nbytes = int(rec["nbytes"]) if by_ref else 0
        if by_ref and (grant is None or not 0 <= nbytes <= grant[0].capacity
                       or (rec["pool"], rec["offset"]) != (grant[0].name, grant[1])):
            return self._refuse(conn, "protocol", "PUBLISH_REF outside the granted slot")
        if not by_ref and frame.msg_type is not MsgType.PUBLISH:
            return self._refuse(conn, "protocol", "writer must PUBLISH")
        if self._draining:
            return self._send_retry_after(conn, "draining")
        try:  # a referenced run is charged like the frame it replaces
            self.directory.charge_bytes(stream.tenant, raw.nbytes + nbytes)
        except AdmissionError as exc:
            return self._send_admission_error(conn, exc)
        if by_ref:
            (pool, offset), conn.grant, inline_run = grant, None, 0
            stored = self._store_step(
                stream, rec, pool.arr[offset:offset + nbytes], 0, (pool, offset))
        else:
            inline_run = raw.nbytes - frame.consumed  # a bulk one sizes the pool
            stored = self._store_step(stream, rec, raw, frame.consumed)
        try:  # publishing is the writer's liveness signal
            self.directory.heartbeat(stream.tenant, stream.name)
        except DirectoryError:
            pass  # unleased or already closed registration

        def ack() -> None:
            if conn.colocated:
                conn.grant = stream.grant(conn.grant, inline_run)
            self._ack(conn, "published" if stored else "duplicate", conn.grant,
                      stream.prune_predicate() is not None)

        if stored and self.checkpoint_sync and self.checkpoint_path:
            # Durability before acknowledgement: once the writer sees OK,
            # the step survives even a hard daemon kill.  The fsync+rename
            # runs off the loop, so other sessions' frames do not stall.
            return self._owe(conn, self.checkpoint_async(), ack)
        ack()

    @staticmethod
    def _store_step(stream: HostedStream, rec: dict, raw: np.ndarray, start: int,
                    slot: Optional[tuple] = None) -> bool:
        """Store the step whose ``net.var`` run is ``raw[start:]`` (a frame's
        tail, or all of a slot's view), pruned of what no reader wants."""
        count = int(rec["count"])
        payload = raw[start:] if start else raw  # the array as it landed: no copy
        predicate = stream.prune_predicate()
        if predicate is not None and count:
            try:
                count, payload = prune_step_payload(raw, start, count, predicate, stream)
            except ProtocolError:
                # Malformed var run: store verbatim; the reader's
                # decode surfaces the real error.
                pass
        return stream.publish(int(rec["step"]), count, payload, bool(rec["eos"]),
                              seq=int(rec["seq"]), slot=slot)

    @_handler
    def _fetch(self, conn: _Conn, raw, frame: Frame) -> None:
        conn.pinned = None  # a new request: the step served last is let go
        if frame.msg_type is not MsgType.FETCH:
            return self._refuse(conn, "protocol", "reader must FETCH")
        self._serve_fetch(conn, int(frame.record["step"]), frame.record["wait"])

    def _serve_fetch(self, conn: _Conn, step: int, wait: float) -> None:
        """Answer one FETCH from ``stream.store.lookup(step)`` — or, while
        that says ``NOT_YET`` and the daemon is not draining, park it for
        up to ``wait`` seconds (clamped; NaN and negatives hold nothing):
        one record on ``stream.parked`` and one timer, answered by whatever
        ends the hold, in the loop turn that ends it."""
        stream = conn.stream
        outcome, detail = stream.store.lookup(step)
        hold = min(wait, MAX_FETCH_HOLD_S) if wait > 0 else 0.0
        if outcome is not Outcome.NOT_YET or not hold or self._draining:
            return self._answer(conn, step, outcome, detail)
        stream.counter(M_NET_FETCHES_HELD).inc()
        conn.owe()
        end = functools.partial(self._unpark, conn)
        timer = self._loop.call_at(self._loop.time() + hold, lambda: end(
            *stream.store.lookup(step)))
        stream.parked[conn] = _Hold(step, hold, timer, end)
        stream.gauge(M_NET_READERS_PARKED).set(len(stream.parked))

    def _unpark(self, conn: _Conn, outcome: Outcome, detail) -> None:
        """End ``conn``'s hold with ``outcome``: the one answer to its FETCH."""
        stream = conn.stream
        hold = stream.unpark(conn)
        if hold is None:
            return  # already ended (or the connection with it)
        if outcome is Outcome.NOT_YET and not self._draining:
            stream.counter(M_NET_FETCH_HOLDS_EXPIRED).inc()
        flight.record(EV_NET_FETCH_HELD, stream=stream.stream_id, step=hold.step,
                      wait=hold.wait, outcome=outcome.value)
        self._answer(conn, hold.step, outcome, detail)
        conn.settle()

    def _answer(self, conn: _Conn, step: int, outcome: Outcome, detail) -> None:
        """The reply to a FETCH of ``step``, from the store's outcome."""
        stream = conn.stream
        if outcome is Outcome.HIT:
            count, conn.pinned = stream.fetch(step)
            slot = stream.slot_of(conn.pinned)
            if slot is not None and conn.colocated:
                stream.counter(M_NET_STEPS_FETCHED_BY_REF).inc()
                return self._reply(conn, encode_frame(MsgType.STEP_REF, {
                    "step": step, "count": count, "pool": slot[0].name,
                    "offset": slot[1], "nbytes": len(conn.pinned)}))
            return self._reply(
                conn,
                encode_frame(MsgType.STEP_DATA, {"step": step, "count": count}),
                conn.pinned,
            )
        msg_type, kind = MISS_REPLY[outcome]
        if msg_type is MsgType.NOT_READY and self._draining:
            # No new publishes will land here; tell the reader to
            # back off and retry against the restarted daemon.
            self._send_retry_after(conn, "draining")
        elif msg_type in (MsgType.EOS, MsgType.NOT_READY):
            # The step index is their whole body.
            self._reply(conn, encode_frame(msg_type, {"step": step}))
        else:
            self._send_error(conn, kind, detail)

    # -- graceful drain ----------------------------------------------------
    def drain(self, delay: float = DEFAULT_RETRY_AFTER_S) -> None:
        """Enter drain mode: refuse new work, tell attached peers to back
        off for ``delay`` seconds.  Thread-safe; idempotent."""
        if self._loop is None or not self._thread:
            self._draining = True
            return
        fut = asyncio.run_coroutine_threadsafe(self._drain_async(delay), self._loop)
        fut.result(timeout=10.0)

    async def _drain_async(self, delay: float) -> None:
        if self._draining:
            return
        self._draining = True
        # A parked reader is answered RETRY_AFTER by its own hold ending;
        # the broadcast is for attached peers that are owed nothing.
        peers = [c for c in self._conns if c.stream is not None and not c.owing]
        for stream in self._streams.values():
            stream.wake(drain=True)
        flight.record(EV_NET_DRAIN, peers=len(peers), delay=delay)
        self.metrics.counter("net.drains").inc()
        frame = encode_frame(
            MsgType.RETRY_AFTER, {"delay": delay, "reason": "draining"}
        )
        for conn in peers:
            self._reply(conn, frame)

    # -- checkpoint / restore ----------------------------------------------
    def checkpoint(self, path: Optional[str] = None) -> str:
        """Write directory + tenant + broker state to ``path`` atomically.

        Synchronous shape for non-loop callers (the CLI's SIGTERM
        handler, tests).  Coroutines must use :meth:`checkpoint_async`
        instead: the ``fsync``/``os.replace`` here block, and FXL010
        flags any call to this from an ``async def``.
        """
        target = self._checkpoint_target(path)
        blob = self._checkpoint_blob()
        self._write_checkpoint_blob(blob, target)
        self._note_checkpoint(target, len(blob))
        return target

    async def checkpoint_async(self, path: Optional[str] = None) -> str:
        """Checkpoint from a coroutine without stalling the event loop.

        The state walk runs on the loop (so the snapshot is consistent —
        broker dicts are only mutated by the loop); the blocking
        write+fsync+rename runs on a dedicated one-thread executor,
        which also serializes concurrent checkpoints in FIFO order so an
        older snapshot can never overwrite a newer one.
        """
        target = self._checkpoint_target(path)
        blob = self._checkpoint_blob()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._checkpoint_executor(), self._write_checkpoint_blob, blob, target
        )
        self._note_checkpoint(target, len(blob))
        return target

    def _checkpoint_target(self, path: Optional[str]) -> str:
        target = path or self.checkpoint_path
        if not target:
            raise ValueError("no checkpoint path configured")
        return target

    def _checkpoint_executor(self) -> ThreadPoolExecutor:
        if self._ckpt_executor is None:
            self._ckpt_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="flexio-ckpt"
            )
        return self._ckpt_executor

    def _write_checkpoint_blob(self, blob: bytes, target: str) -> None:
        """Blocking half: atomic tmp+fsync+rename.  The tmp name carries
        a sequence number so overlapping checkpoints (sync-on-publish
        racing the interval loop) never share a scratch file."""
        tmp = f"{target}.tmp.{os.getpid()}.{next(self._ckpt_tmp_seq)}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def _note_checkpoint(self, target: str, nbytes: int) -> None:
        self.metrics.counter("net.checkpoints").inc()
        flight.record(
            EV_NET_CHECKPOINT, path=target, nbytes=nbytes,
            streams=len(self._streams), sessions=len(self._sessions),
        )

    def _checkpoint_blob(self) -> bytes:
        """The state walk: every tenant/session/registration/stream as
        bare codec messages (the same marshal plane the wire uses).
        Pure in-memory work — safe on the event loop."""
        parts: list[np.ndarray] = [encode_record(CKPT_HEAD, {
            "version": CKPT_VERSION, "wall": time.time(), "server": SERVER_VERSION,
        })]
        for spec in self.directory.specs():
            parts.append(encode_record(CKPT_TENANT, {
                "name": spec.name,
                "token": spec.token or "",
                "has_token": spec.token is not None,
                "max_streams": -1 if spec.max_streams is None else spec.max_streams,
                "bytes_per_s": (
                    -1.0 if spec.max_bytes_per_s is None else spec.max_bytes_per_s
                ),
                "max_leases": -1 if spec.max_leases is None else spec.max_leases,
            }))
        for sess in self._sessions.values():
            parts.append(encode_record(CKPT_SESSION, {
                "session": sess.session_id, "tenant": sess.tenant,
                "client": sess.client, "resume": sess.resume,
                "streams": ",".join(sess.streams),
            }))
        for tenant in self.directory.tenants():
            server = self.directory.server_for(tenant)
            for name, info, lease, remaining in server.entries():
                parts.append(encode_record(CKPT_REG, {
                    "tenant": tenant, "stream": name,
                    "program": info.program,
                    "rank": info.coordinator_rank,
                    "num_ranks": info.num_ranks,
                    "lease": 0.0 if lease is None else lease,
                    "remaining": 0.0 if remaining is None else remaining,
                }))
        for stream in self._streams.values():
            snap = stream.store.snapshot()
            parts.append(encode_record(CKPT_STREAM, {
                "stream_id": stream.stream_id, "tenant": stream.tenant,
                "name": stream.name, "last_seq": stream.last_seq,
                "last_step": snap["last"],
                "eos_step": -1 if snap["ended"] is None else snap["ended"],
                "failed": snap["failed"] is not None, "error": snap["failed"] or "",
                "retain": snap["retain"], "peak_nbytes": snap["peak_nbytes"],
                "count": len(snap["steps"]),
            }))
            # ``publish`` is the store's only appender: no entry is lost.
            for step, (count, payload), _nbytes, _lost in snap["steps"]:
                parts.append(encode_record(CKPT_STEP, {
                    "step": step, "count": count,
                    "payload": np.frombuffer(payload, dtype=np.uint8),
                }))
        return b"".join(p.tobytes() for p in parts)

    def restore(self, path: Optional[str] = None) -> None:
        """Load a checkpoint written by :meth:`checkpoint`.

        Call before :meth:`start`.  Tenants already configured keep
        their (possibly newer) specs; checkpointed sessions become
        resumable again; leased registrations resume with their
        *remaining* TTL, not a fresh lease period.
        """
        source = path or self.checkpoint_path
        if not source:
            raise ValueError("no checkpoint path configured")
        with open(source, "rb") as fh:
            data = np.frombuffer(fh.read(), dtype=np.uint8)
        fmt, head, offset = decode_record(data, 0)
        if fmt.name != CKPT_HEAD.name or int(head["version"]) != CKPT_VERSION:
            raise ProtocolError(
                f"bad checkpoint head {fmt.name!r} v{head.get('version')}"
            )
        regs: list[dict] = []
        max_sid = 0
        while offset < data.nbytes:
            fmt, rec, offset = decode_record(data, offset)
            if fmt.name == CKPT_TENANT.name:
                if rec["name"] in self.directory.tenants():
                    continue  # live config wins over the checkpointed spec
                self.directory.add_tenant(TenantSpec(
                    rec["name"],
                    token=rec["token"] if rec["has_token"] else None,
                    max_streams=(
                        None if rec["max_streams"] < 0 else int(rec["max_streams"])
                    ),
                    max_bytes_per_s=(
                        None if rec["bytes_per_s"] < 0 else float(rec["bytes_per_s"])
                    ),
                    max_leases=(
                        None if rec["max_leases"] < 0 else int(rec["max_leases"])
                    ),
                ))
            elif fmt.name == CKPT_SESSION.name:
                sess = _Session(
                    session_id=rec["session"], tenant=rec["tenant"],
                    spec=self.directory.spec(rec["tenant"]),
                    client=rec["client"], resume=rec["resume"],
                    streams=[s for s in rec["streams"].split(",") if s],
                )
                self._sessions[sess.session_id] = sess
                if sess.resume:
                    self._resume[sess.resume] = sess.session_id
                sid = sess.session_id
                if sid.startswith("s") and sid[1:].isdigit():
                    max_sid = max(max_sid, int(sid[1:]))
            elif fmt.name == CKPT_REG.name:
                regs.append(dict(rec))  # applied after streams exist
            elif fmt.name == CKPT_STREAM.name:
                steps = []
                for _ in range(int(rec["count"])):
                    sfmt, srec, offset = decode_record(data, offset)
                    if sfmt.name != CKPT_STEP.name:
                        raise ProtocolError(
                            f"expected {CKPT_STEP.name}, got {sfmt.name}"
                        )
                    payload = np.asarray(srec["payload"], dtype=np.uint8).tobytes()
                    steps.append(
                        (int(srec["step"]), (int(srec["count"]), payload), len(payload))
                    )
                stream = HostedStream(rec["tenant"], rec["name"])
                stream.last_seq = int(rec["last_seq"])
                stream.store = StepStore.restore({
                    "retain": int(rec["retain"]), "last": int(rec["last_step"]),
                    "ended": None if rec["eos_step"] < 0 else int(rec["eos_step"]),
                    "failed": rec["error"] if rec["failed"] else None,
                    "peak_nbytes": int(rec["peak_nbytes"]), "steps": steps,
                })
                self._streams[stream.stream_id] = stream
            else:
                raise ProtocolError(f"unknown checkpoint record {fmt.name!r}")
        for rec in regs:
            contact = self._streams.get(f"{rec['tenant']}/{rec['stream']}")
            info = CoordinatorInfo(
                rec["program"], int(rec["rank"]), int(rec["num_ranks"]),
                contact=contact,
            )
            self.directory.register(
                rec["tenant"], rec["stream"], info,
                lease=rec["lease"] if rec["lease"] > 0 else None,
                remaining=rec["remaining"] if rec["lease"] > 0 else None,
            )
        self._session_counter = itertools.count(max_sid + 1)
        self.metrics.counter("net.restores").inc()
        flight.record(
            EV_NET_RESTORE, path=source,
            streams=len(self._streams), sessions=len(self._sessions),
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def parse_tenant_arg(arg: str) -> TenantSpec:
    """Parse ``name[,token=...][,max_streams=N][,bytes_per_s=R][,max_leases=N]``."""
    name, _, rest = arg.partition(",")
    if not name:
        raise ValueError("tenant spec needs a name")
    token = None
    max_streams = None
    max_bytes = None
    max_leases = None
    for piece in rest.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"bad tenant spec piece {piece!r} (expected key=value)")
        key = key.strip()
        if key == "token":
            token = value
        elif key == "max_streams":
            max_streams = int(value)
        elif key == "bytes_per_s":
            max_bytes = float(value)
        elif key == "max_leases":
            max_leases = int(value)
        else:
            raise ValueError(f"unknown tenant spec key {key!r}")
    return TenantSpec(name, token=token, max_streams=max_streams,
                      max_bytes_per_s=max_bytes, max_leases=max_leases)


_READY = "FLEXIO-DAEMON READY"


def parse_ready_line(line: str) -> tuple[str, int, int]:
    """``(host, control_port, data_port)`` from the READY line
    :func:`main` prints; ``ValueError`` naming the line if malformed."""
    try:
        if not line.startswith(_READY + " "):
            raise ValueError(line)
        fields = dict(f.split("=", 1) for f in line[len(_READY):].split())
        host, control = fields["control"].rsplit(":", 1)
        return host, int(control), int(fields["data"].rsplit(":", 1)[1])
    except (ValueError, KeyError, IndexError):
        raise ValueError(f"malformed daemon READY line: {line!r}") from None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.net.server", description="FlexIO directory daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, default=0)
    parser.add_argument("--data-port", type=int, default=0)
    parser.add_argument(
        "--tenant", action="append", default=[],
        help="tenant spec: name[,token=...][,max_streams=N]"
             "[,bytes_per_s=R][,max_leases=N]; repeatable",
    )
    parser.add_argument("--lease-interval", type=float, default=0.2)
    parser.add_argument("--retain-steps", type=int, default=DEFAULT_RETAIN_STEPS)
    parser.add_argument("--no-telemetry", action="store_true")
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file for durability (written on SIGTERM drain)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=0.0, metavar="S",
        help="also checkpoint every S seconds (0 = only on drain)",
    )
    parser.add_argument(
        "--checkpoint-sync", action="store_true",
        help="checkpoint before acking every PUBLISH (hard-kill durability)",
    )
    parser.add_argument(
        "--restore", action="store_true",
        help="restore state from --checkpoint at startup if the file exists",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=DEFAULT_RETRY_AFTER_S, metavar="S",
        help="RETRY_AFTER delay broadcast to peers during SIGTERM drain",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults on outbound frames: rate=R,seed=N,kinds=a|b",
    )
    args = parser.parse_args(argv)

    tenants = [parse_tenant_arg(a) for a in args.tenant] or None
    daemon = DirectoryDaemon(
        host=args.host,
        control_port=args.control_port,
        data_port=args.data_port,
        tenants=tenants,
        lease_interval=args.lease_interval,
        retain_steps=args.retain_steps,
        telemetry=not args.no_telemetry,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_sync=args.checkpoint_sync,
        injector=parse_fault_spec(args.faults),
    )
    if args.restore and args.checkpoint and os.path.exists(args.checkpoint):
        daemon.restore(args.checkpoint)
    daemon.start()
    telemetry_url = daemon.telemetry.url if daemon.telemetry is not None else "-"
    # Machine-parseable ready line: subprocess harnesses block on it and
    # read it back with parse_ready_line().
    print(
        f"{_READY} control={daemon.host}:{daemon.control_port} "
        f"data={daemon.host}:{daemon.data_port} telemetry={telemetry_url}",
        flush=True,
    )
    stop = threading.Event()
    drain_requested = threading.Event()

    def on_sigterm(*_):
        drain_requested.set()
        stop.set()

    try:
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        stop.wait()
    finally:
        if drain_requested.is_set():
            # Graceful SIGTERM: tell peers to back off, persist state,
            # then go down — a restarted daemon with --restore resumes.
            try:
                daemon.drain(args.drain_grace)
                if args.checkpoint:
                    daemon.checkpoint()
            except (OSError, RuntimeError) as exc:  # pragma: no cover
                print(f"FLEXIO-DAEMON DRAIN-ERROR {exc!r}", flush=True)
        daemon.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
