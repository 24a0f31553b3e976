"""The directory daemon: FlexIO's control plane as a real socket server.

Two asyncio listeners share one event loop (run in a daemon thread via
:meth:`DirectoryDaemon.start`, or in the foreground via the
``python -m repro.net.server`` CLI); every accepted connection is one
:class:`_Conn`, which receives each frame straight into the array the
broker then stores — a PUBLISH is never copied in user space:

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

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

#: Longest the daemon holds one FETCH, whatever ``wait`` it asks for — and
#: so the longest a reader whose socket died while parked stays attached.
MAX_FETCH_HOLD_S = 10.0


class _Conn(asyncio.BufferedProtocol):
    """One accepted connection: whole frames in, ordered writes out.

    Inbound it is a frame assembler (no socket, no clock): the transport
    receives into the unfilled rest of an 8-byte prefix scratch, then of
    the frame's *own* ``np.empty(length)`` — the array the broker goes on
    to store; :meth:`read_frame` hands whole frames to the handler task,
    ``None`` once no more will come (a frame cut short is dropped).
    Reading pauses while a second whole frame waits behind an unread
    one: a peer that pipelines without reading replies cannot grow the
    daemon, a request/reply peer never trips it.  Outbound, a frame's
    parts are queued back to back, so frames never interleave.
    """

    def __init__(self, daemon: "DirectoryDaemon", handler) -> None:
        self._daemon = daemon
        self._handler = handler
        self._prefix = np.empty(FRAME_PREFIX.size, dtype=np.uint8)
        self._body: Optional[np.ndarray] = None  # None: filling the prefix
        self._into = memoryview(self._prefix)
        self._got = 0
        self._frames: deque[np.ndarray] = deque()
        self._readable = asyncio.Event()  # a frame is queued, or none will be
        self._writable = asyncio.Event()  # clear between pause_/resume_writing
        self._writable.set()
        self._paused = self._ended = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        unpace_loopback(transport.get_extra_info("socket"))
        self._task = asyncio.get_running_loop().create_task(self._handler(self))
        self._task.add_done_callback(self._handler_done)  # the loop holds it weakly

    def _handler_done(self, task: asyncio.Task) -> None:
        if not task.cancelled() and task.exception() is not None:
            task.get_loop().call_exception_handler({
                "message": "flexio daemon: connection handler failed",
                "exception": task.exception(), "transport": self.transport,
            })
        self.transport.close()

    # -- inbound -----------------------------------------------------------
    def get_buffer(self, sizehint: int) -> memoryview:
        return self._into[self._got:]

    def buffer_updated(self, nbytes: int) -> None:
        self._got += nbytes
        if self._got < len(self._into):
            return
        self._got = 0
        frame = self._body
        if frame is None:  # the prefix is whole: the frame gets its own array
            (length,) = FRAME_PREFIX.unpack(self._prefix)
            if length <= MAX_FRAME:
                try:
                    frame = np.empty(length, dtype=np.uint8)
                except MemoryError:
                    pass  # refused below, like a prefix over the bound
            if frame is None:
                # A prefix is a claim, not a fact: typed refusal, then close.
                self._daemon.metrics.counter(M_NET_FRAMES_REFUSED).inc()
                self.write_frame(encode_frame(MsgType.ERROR, {
                    "kind": "protocol", "message": f"frame of {length} B refused"}))
                self.eof_received()
                self.transport.close()
                return
            if length:
                self._body, self._into = frame, memoryview(frame)
                return
        self._body, self._into = None, memoryview(self._prefix)
        self._frames.append(frame)
        self._readable.set()
        if len(self._frames) > 1 and not self._paused:
            self._paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._ended = True
        self._readable.set()
        return True  # replies may still go out; the handler's exit closes

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.eof_received()
        self._writable.set()  # a parked drain() finds the transport closing

    async def read_frame(self) -> Optional[np.ndarray]:
        await self._readable.wait()
        if not self._frames:
            return None
        frame = self._frames.popleft()
        if not self._frames:
            if not self._ended:
                self._readable.clear()
            if self._paused:
                self._paused = False
                self.transport.resume_reading()
        return frame

    # -- outbound ----------------------------------------------------------
    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def write_frame(self, *parts) -> None:
        views = [as_byte_view(p) for p in parts]
        total = sum(v.nbytes for v in views)
        # Prefix + first part (the small frame header): one segment, not two.
        self.transport.write(b"".join((FRAME_PREFIX.pack(total), views[0])))
        for view in views[1:]:
            self.transport.write(view.data)

    async def drain(self) -> None:
        await self._writable.wait()
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")


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
        #: What a held FETCH waits on: set, and replaced, by :meth:`wake`.
        self.changed = asyncio.Event()
        #: Attached readers whose handler is parked in a held FETCH.
        self.parked: set[_Conn] = set()

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
        self.wake()
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

    def wake(self) -> None:
        """Called after anything that can change what ``store.lookup``
        answers a parked reader — publish, end, fail, and the daemon's
        drain; each one looks its step up again.  Loop thread only."""
        self.changed.set()
        self.changed = asyncio.Event()


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
        self._attached: set[_Conn] = set()
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
        states[""] = _DaemonState(self.metrics)  # process-level series
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
            # Connection handlers too: one parked in a held FETCH, or idle
            # between frames, would keep its socket (and 3.12's
            # ``wait_closed``) open past stop().
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
            lambda: _Conn(self, self._handle_control), self.host, self.control_port
        )
        self.control_port = control.sockets[0].getsockname()[1]
        data = await loop.create_server(
            lambda: _Conn(self, self._handle_data), self.host, self.data_port
        )
        self.data_port = data.sockets[0].getsockname()[1]
        self._servers = [control, data]

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.lease_interval)
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
    async def _read_frame(self, conn: _Conn) -> Optional[tuple[np.ndarray, Frame]]:
        """The next frame, raw and decoded — or None, and the caller hangs up:
        no more will come, or this one was malformed (typed ERROR sent)."""
        raw = await conn.read_frame()
        if raw is None:
            return None
        try:
            return raw, decode_frame(raw)
        except ProtocolError as exc:
            await self._send_error(conn, "protocol", str(exc))
            return None

    async def _write_frame(self, conn: _Conn, *parts) -> None:
        if self.injector is not None:
            kind = self.injector.next_fault()
            if kind is not None and await self._inject_outbound(conn, kind, parts):
                return
        conn.write_frame(*parts)
        await conn.drain()

    async def _inject_outbound(self, conn: _Conn, kind: FaultKind, parts) -> bool:
        """Act out one injected fault on an outbound frame.

        Returns True when the frame must NOT be written normally (it was
        dropped, torn, or the connection was killed); False for kinds
        that only perturb timing.
        """
        blob = b"".join(as_byte_view(p) for p in parts)  # chaos-only path
        total = len(blob)
        self.metrics.counter(metric_name(F_FAULTS_INJECTED, kind.value)).inc()
        self.metrics.counter(M_FAULTS_INJECTED_TOTAL).inc()
        flight.record(EV_FAULT, kind=kind.value, transport="daemon", nbytes=total)
        if kind is FaultKind.DROPPED_FRAME:
            return True  # the reply silently never leaves; peer times out
        if kind is FaultKind.DELAYED_FRAME:
            await asyncio.sleep(0.05)
            return False
        if kind is FaultKind.TORN_FRAME:
            conn.transport.write(FRAME_PREFIX.pack(total) + blob[: max(1, total // 2)])
            conn.transport.close()  # torn mid-frame: peer sees a truncated stream
            return True
        # CONN_RESET / HALF_OPEN and any send-side kind: kill the
        # connection; the peer observes a disconnect and reconnects.
        conn.transport.close()
        return True

    async def _send_error(self, conn, kind: str, message: str) -> None:
        await self._write_frame(
            conn, encode_frame(MsgType.ERROR, {"kind": kind, "message": message})
        )

    async def _send_admission_error(self, conn, exc: AdmissionError) -> None:
        kind = exc.kind.value if exc.kind is not None else "admission"
        await self._send_error(conn, kind, str(exc))

    async def _send_retry_after(self, conn, reason: str,
                                delay: float = DEFAULT_RETRY_AFTER_S) -> None:
        flight.record(EV_NET_RETRY_AFTER, reason=reason, delay=delay)
        await self._write_frame(
            conn, encode_frame(MsgType.RETRY_AFTER, {"delay": delay, "reason": reason})
        )

    # -- control plane -----------------------------------------------------
    async def _handle_control(self, conn: _Conn) -> None:
        # A session is NOT bound to this socket: it dies only on a clean
        # BYE (or daemon restart without a checkpoint).  A socket that
        # drops mid-session leaves the session resumable via its token.
        session: Optional[_Session] = None
        clean_bye = False
        try:
            session = await self._control_hello(conn)
            if session is None:
                return
            while True:
                if (got := await self._read_frame(conn)) is None:
                    break
                frame = got[1]
                if frame.msg_type is MsgType.BYE:
                    clean_bye = True
                    break
                await self._dispatch_control(session, frame, conn)
        except (ConnectionError, asyncio.CancelledError):
            pass  # the peer is gone, or stop() ended this handler
        finally:
            if session is not None:
                if clean_bye:
                    self._sessions.pop(session.session_id, None)
                    self._resume.pop(session.resume, None)
                flight.record(EV_NET_DISCONNECT, tenant=session.tenant)

    async def _control_hello(self, conn: _Conn) -> Optional[_Session]:
        if (got := await self._read_frame(conn)) is None:
            return None
        frame = got[1]
        if frame.msg_type is not MsgType.HELLO:
            await self._send_error(conn, "protocol", "expected HELLO")
            return None
        if self._draining:
            await self._send_retry_after(conn, "draining")
            return None
        tenant = frame.record["tenant"]
        token = frame.record["token"] or None
        try:
            spec = self.directory.authenticate(tenant, token)
        except AdmissionError as exc:
            await self._send_admission_error(conn, exc)
            return None
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
        await self._write_frame(conn, encode_frame(MsgType.WELCOME, {
            "session": session.session_id,
            "server": SERVER_VERSION,
            "data_port": self.data_port,
            "resume": session.resume,
            "resumed": resumed,
            "pool": self._nonce_path,
        }))
        return session

    async def _dispatch_control(self, session: _Session, frame: Frame, conn) -> None:
        rec = frame.record
        tenant = session.tenant
        if self._draining and frame.msg_type in (MsgType.OPEN, MsgType.REGISTER):
            # Drain refuses *new* work but still serves lookups, closes
            # and heartbeats so in-flight sessions can wind down.
            await self._send_retry_after(conn, "draining")
            return
        try:
            if frame.msg_type is MsgType.REGISTER:
                info = CoordinatorInfo(
                    program=rec["program"],
                    coordinator_rank=int(rec["rank"]),
                    num_ranks=int(rec["num_ranks"]),
                )
                lease = rec["lease"] if rec["lease"] > 0 else None
                self.directory.register(tenant, rec["stream"], info, lease=lease)
                await self._ack(conn, "registered")
            elif frame.msg_type is MsgType.LOOKUP:
                info = self.directory.lookup(tenant, rec["stream"])
                await self._write_frame(conn, encode_frame(MsgType.LOOKUP_REPLY, {
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
                await self._ack(conn, detail)
            elif frame.msg_type is MsgType.OPEN:
                await self._control_open(session, rec, conn)
            elif frame.msg_type is MsgType.CLOSE:
                stream = self._streams.get(rec["stream_id"])
                if stream is None:
                    await self._send_error(conn, "unknown_stream", rec["stream_id"])
                    return
                stream.end()
                try:
                    self.directory.unregister(stream.tenant, stream.name)
                except DirectoryError:
                    pass  # already reaped or never leased-registered
                await self._ack(conn, "closed")
            else:
                await self._send_error(
                    conn, "protocol", f"unexpected {frame.msg_type.name} on control port"
                )
        except AdmissionError as exc:
            await self._send_admission_error(conn, exc)
        except DirectoryError as exc:
            await self._send_error(conn, "directory", str(exc))

    async def _control_open(self, session: _Session, rec: dict, conn) -> None:
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
                info = CoordinatorInfo(
                    program=rec["program"],
                    coordinator_rank=int(rec["rank"]),
                    num_ranks=int(rec["num_ranks"]),
                )
                lease = rec["lease"] if rec["lease"] > 0 else None
                stream = HostedStream(tenant, name, retain_steps=self.retain_steps)
                info = CoordinatorInfo(
                    info.program, info.coordinator_rank, info.num_ranks, contact=stream
                )
                # Admission (quota + duplicate check) happens before the
                # stream becomes visible to readers.
                self.directory.register(tenant, name, info, lease=lease)
                self._streams[stream_id] = stream
                session.streams.append(stream_id)
        elif mode == "r":
            hosted = self._streams.get(stream_id)
            if hosted is None:
                # Raises the typed not-found the client retry loop expects.
                self.directory.lookup(tenant, name)
                await self._send_error(conn, "unknown_stream", stream_id)
                return
            if not hosted.closed:
                # Live stream: count the reader in the directory.  A
                # closed stream stays openable while steps are retained —
                # late analytics drain the store-and-forward tail to EOS.
                self.directory.lookup(tenant, name)
        else:
            await self._send_error(conn, "protocol", f"bad open mode {mode!r}")
            return
        flight.record(EV_NET_STREAM_OPEN, stream=stream_id, mode=mode, tenant=tenant)
        await self._write_frame(conn, encode_frame(MsgType.OPEN_REPLY, {
            "stream_id": stream_id,
            "data_port": self.data_port,
        }))

    # -- data plane --------------------------------------------------------
    async def _handle_data(self, conn: _Conn) -> None:
        try:
            if (got := await self._read_frame(conn)) is None:
                return
            frame = got[1]
            if frame.msg_type is not MsgType.ATTACH:
                await self._send_error(conn, "protocol", "expected ATTACH")
                return
            session = self._sessions.get(frame.record["session"])
            if session is None:
                await self._send_error(conn, "auth", "unknown session")
                return
            stream = self._streams.get(frame.record["stream_id"])
            if stream is None or stream.tenant != session.tenant:
                await self._send_error(
                    conn, "unknown_stream", frame.record["stream_id"]
                )
                return
            if self._draining:
                await self._send_retry_after(conn, "draining")
                return
            role = frame.record["role"]
            try:
                predicate = parse_predicate(frame.record["predicate"])
            except CodeletError as exc:
                await self._send_error(
                    conn, "protocol", f"bad predicate spec: {exc}"
                )
                return
            colocated = bool(self._nonce_path) and frame.record["nonce"] == self._nonce
            self._attached.add(conn)
            reader_key = id(conn)
            try:
                if role == "w":
                    await self._serve_writer(session, stream, conn, colocated)
                else:
                    await self._ack(conn, "attached")
                    stream.register_reader(reader_key, predicate)
                    await self._serve_reader(stream, conn, colocated)
            finally:
                if role != "w":
                    stream.drop_reader(reader_key)
                self._attached.discard(conn)
        except (ConnectionError, asyncio.CancelledError):
            pass  # the peer is gone, or stop() ended this handler

    async def _ack(self, conn: _Conn, detail: str, grant: Optional[tuple] = None,
                   stats: bool = False) -> None:
        """The positive reply: OK, or GRANT to a writer that now holds a slot;
        ``stats`` asks a writer to stamp block bounds (a reader prunes)."""
        if grant is None:
            frame = encode_frame(MsgType.OK, {"detail": detail, "stats": stats})
        else:
            frame = encode_frame(MsgType.GRANT, {
                "detail": detail, "pool": grant[0].name, "offset": grant[1],
                "capacity": grant[0].capacity, "stats": stats})
        await self._write_frame(conn, frame)

    async def _serve_writer(self, session: _Session, stream: HostedStream,
                            conn: _Conn, colocated: bool) -> None:
        # What the latest positive reply granted this connection, if it is
        # still unused; back in the pool when the connection ends.
        grant = stream.grant() if colocated else None
        try:
            await self._ack(conn, "attached", grant, stream.prune_predicate() is not None)
            while True:
                if (got := await self._read_frame(conn)) is None:
                    return
                raw, frame = got
                rec, by_ref = frame.record, frame.msg_type is MsgType.PUBLISH_REF
                nbytes = int(rec["nbytes"]) if by_ref else 0
                if by_ref and (grant is None or not 0 <= nbytes <= grant[0].capacity
                               or (rec["pool"], rec["offset"]) != (grant[0].name, grant[1])):
                    await self._send_error(
                        conn, "protocol", "PUBLISH_REF outside the granted slot")
                    return
                if not by_ref and frame.msg_type is not MsgType.PUBLISH:
                    await self._send_error(conn, "protocol", "writer must PUBLISH")
                    return
                if self._draining:
                    await self._send_retry_after(conn, "draining")
                    continue
                try:  # a referenced run is charged like the frame it replaces
                    self.directory.charge_bytes(session.tenant, raw.nbytes + nbytes)
                except AdmissionError as exc:
                    await self._send_admission_error(conn, exc)
                    continue
                if by_ref:
                    (pool, offset), grant, inline_run = grant, None, 0
                    stored = self._store_step(
                        stream, rec, pool.arr[offset:offset + nbytes], 0, (pool, offset))
                else:
                    inline_run = raw.nbytes - frame.consumed  # a bulk one sizes the pool
                    stored = self._store_step(stream, rec, raw, frame.consumed)
                try:  # publishing is the writer's liveness signal
                    self.directory.heartbeat(session.tenant, stream.name)
                except DirectoryError:
                    pass  # unleased or already closed registration
                if stored and self.checkpoint_sync and self.checkpoint_path:
                    # Durability before acknowledgement: once the writer sees
                    # OK, the step survives even a hard daemon kill.  Async so
                    # the fsync+rename doesn't stall other sessions' frames.
                    await self.checkpoint_async()
                if colocated:
                    grant = stream.grant(grant, inline_run)
                await self._ack(conn, "published" if stored else "duplicate", grant,
                                stream.prune_predicate() is not None)
        finally:
            if grant is not None:
                stream.give_back(*grant)

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

    async def _serve_reader(self, stream: HostedStream, conn: _Conn,
                            colocated: bool) -> None:
        pinned = None  # the payload last served: not reusable before the next request
        while True:
            got = await self._read_frame(conn)
            pinned = None
            if got is None:
                return
            frame = got[1]
            if frame.msg_type is not MsgType.FETCH:
                await self._send_error(conn, "protocol", "reader must FETCH")
                return
            step = int(frame.record["step"])
            # The outcome that ended the hold is the one answered:
            # nothing awaits between this lookup and the reply below.
            outcome, detail = await self._held_lookup(
                stream, step, frame.record["wait"], conn)
            if outcome is Outcome.HIT:
                count, pinned = stream.fetch(step)
                slot = stream.slot_of(pinned)
                if slot is not None and colocated:
                    stream.counter(M_NET_STEPS_FETCHED_BY_REF).inc()
                    await self._write_frame(conn, encode_frame(MsgType.STEP_REF, {
                        "step": step, "count": count, "pool": slot[0].name,
                        "offset": slot[1], "nbytes": len(pinned)}))
                else:
                    await self._write_frame(
                        conn,
                        encode_frame(MsgType.STEP_DATA, {"step": step, "count": count}),
                        pinned,
                    )
                continue
            msg_type, kind = MISS_REPLY[outcome]
            if msg_type is MsgType.NOT_READY and self._draining:
                # No new publishes will land here; tell the reader to
                # back off and retry against the restarted daemon.
                await self._send_retry_after(conn, "draining")
            elif msg_type in (MsgType.EOS, MsgType.NOT_READY):
                # The step index is their whole body.
                await self._write_frame(conn, encode_frame(msg_type, {"step": step}))
            else:
                await self._send_error(conn, kind, detail)

    async def _held_lookup(self, stream: HostedStream, step: int, wait: float,
                           conn) -> tuple[Outcome, object]:
        """``stream.store.lookup(step)``, after parking for up to ``wait``
        seconds (clamped; NaN and negatives hold nothing) while it says
        ``NOT_YET`` and the daemon is not draining.  A reader woken for
        another step parks again for what is left of its hold."""
        outcome, detail = stream.store.lookup(step)
        hold = min(wait, MAX_FETCH_HOLD_S) if wait > 0 else 0.0
        if outcome is not Outcome.NOT_YET or not hold or self._draining:
            return outcome, detail
        stream.counter(M_NET_FETCHES_HELD).inc()
        parked = stream.gauge(M_NET_READERS_PARKED)
        clock = asyncio.get_running_loop().time
        deadline = clock() + hold
        stream.parked.add(conn)
        parked.set(len(stream.parked))
        try:
            while (outcome is Outcome.NOT_YET and not self._draining
                   and (left := deadline - clock()) > 0):
                try:
                    await asyncio.wait_for(stream.changed.wait(), left)
                except asyncio.TimeoutError:
                    pass
                outcome, detail = stream.store.lookup(step)
        finally:
            stream.parked.discard(conn)
            parked.set(len(stream.parked))
        if outcome is Outcome.NOT_YET and not self._draining:
            stream.counter(M_NET_FETCH_HOLDS_EXPIRED).inc()
        flight.record(EV_NET_FETCH_HELD, stream=stream.stream_id, step=step,
                      wait=hold, outcome=outcome.value)
        return outcome, detail

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
        # A parked reader is woken and answered RETRY_AFTER by its own
        # handler; the broadcast is for peers with no request outstanding.
        peers = set(self._attached)
        for stream in self._streams.values():
            peers -= stream.parked
            stream.wake()
        flight.record(EV_NET_DRAIN, peers=len(peers), delay=delay)
        self.metrics.counter("net.drains").inc()
        frame = encode_frame(
            MsgType.RETRY_AFTER, {"delay": delay, "reason": "draining"}
        )
        for conn in peers:
            try:
                await self._write_frame(conn, frame)
            except (ConnectionError, OSError):
                pass  # peer already gone; nothing to notify

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


class _DaemonState:
    """Process-level pseudo-stream so daemon-wide series (sessions,
    admission rejections, lease evictions) render without a stream label."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.monitor = _MetricsOnly(metrics)
        self.closed = False
        self.error = None
        self.active_transport = ""


class _MetricsOnly:
    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics


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
