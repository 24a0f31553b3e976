"""The directory daemon: FlexIO's control plane as a real socket server.

Two asyncio listeners share one event loop (run in a daemon thread via
:meth:`DirectoryDaemon.start`, or in the foreground via the
``python -m repro.net.server`` CLI); every accepted connection is one
:class:`_Conn`, and each frame is answered in the loop turn that completed
it — a bulk PUBLISH lands in the array the broker then stores:

* the **control port** speaks the :mod:`repro.net.protocol` frames for
  session setup (HELLO → WELCOME with a bearer-token check against the
  tenant table), named-stream OPEN (which registers a writer's stream
  and looks up a reader's), lease HEARTBEATs and the runs' DC chains
  (CHAIN);
* the **data port** is a store-and-forward step broker: a writer's
  connection ATTACHes to an open stream and PUBLISHes steps, a
  reader's connection FETCHes them — so two unrelated OS processes
  exchange multi-step data without ever sharing memory.  Peers on the
  daemon's own node do share it: a bulk run moves through a slot of a
  :class:`~repro.transport.shm.ShmArena` and the frame carries only
  where it is.

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
import json
import os
import secrets
import signal
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from repro.adios.api import Run, StepBarrier
from repro.core.directory import (
    AdmissionError,
    DirectoryError,
    TenantDirectory,
    TenantSpec,
    reap,
)
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import CodeletError, DCPlugin, PluginManager, PluginSide
from repro.core.stepstore import Outcome, StepStore
from repro.net.protocol import (
    CKPT_HEAD,
    CKPT_RUN,
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
from repro.obs import recorder as flight, sanitize
from repro.obs.events import (
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
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
)
from repro.transport.buffers import as_byte_view
from repro.transport.faults import (
    FaultKind,
    TransportFaultInjector,
    parse_fault_spec,
    record_injected,
)
from repro.transport.shm import ShmArena
from repro.transport.tcp import (
    FRAME_PREFIX, INLINE_MAX, FrameAssembler, FrameRefused, unpace_loopback
)

if TYPE_CHECKING:
    from repro.obs.live import LiveTelemetryServer

__all__ = ["HostedStream", "DirectoryDaemon", "parse_tenant_arg", "main"]

#: Server banner sent in WELCOME frames.
SERVER_VERSION = "flexio-directoryd/3"

#: Bound on retained steps per hosted stream (oldest dropped first).
DEFAULT_RETAIN_STEPS = 64

#: Back-off the daemon suggests in RETRY_AFTER frames while draining.
DEFAULT_RETRY_AFTER_S = 0.25

#: Longest the daemon holds one FETCH, whatever ``wait`` it asks for.
MAX_FETCH_HOLD_S = 10.0


class _Conn(asyncio.BufferedProtocol):
    """One accepted connection: whole frames in, each answered in the loop
    turn that completed it.

    Inbound it drives a :class:`~repro.transport.tcp.FrameAssembler` —
    the one every ``TcpChannel`` drives too: the transport receives into
    it, and every whole frame is handed to ``handler(conn, raw)`` right
    there, in ``buffer_updated`` (a large frame's array is the one the
    broker goes on to store).  A refused prefix is answered with a typed
    ``protocol`` ERROR and the connection closed.  While the connection
    owes a reply it cannot give yet (:meth:`owe` … :meth:`settle`) or its
    transport is over the write high-water mark, frames wait unparsed and
    reading pauses once one scratch (or one large frame) is buffered: a
    peer that pipelines without reading cannot grow the daemon.
    Outbound, a frame up to ``INLINE_MAX`` is one write, a larger one's
    parts go back to back: frames never interleave.
    """

    def __init__(self, daemon: "DirectoryDaemon", handler) -> None:
        self._daemon = daemon
        #: The connection's state: what its next frame means.
        self.handler = handler
        self._frames = FrameAssembler()
        self.owing = self.closing = False
        self._blocked = self._paused = self._pumping = False
        # What the handlers keep per connection.
        self.session: Optional[_Session] = None   # control: after HELLO
        self.bye = False
        self.stream: Optional[HostedStream] = None  # data: after ATTACH
        self.rank = 0  # the writer rank a data connection publishes for
        self.colocated = False
        self.grant: Optional[tuple] = None   # a writer's unused slot
        self.pinned = None  # the payload last served: kept until the next request
        self.chain = 0  # the run's chain generation the peer holds (ATTACH)

    def connection_made(self, transport) -> None:
        self.transport = transport
        unpace_loopback(transport.get_extra_info("socket"))
        self._daemon._conns.add(self)

    # -- inbound -----------------------------------------------------------
    def get_buffer(self, sizehint: int) -> memoryview:
        return self._frames.buffer()

    def buffer_updated(self, nbytes: int) -> None:
        self._frames.filled(nbytes)
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
                try:
                    raw = self._frames.next_frame()
                except FrameRefused as exc:  # typed refusal, then close
                    self._daemon.metrics.counter(M_NET_FRAMES_REFUSED).inc()
                    self.write_frame(encode_frame(MsgType.ERROR, {
                        "kind": "protocol", "message": str(exc)}))
                    return self.hang_up()
                if raw is None:
                    break
                self.handler(self, raw)
        finally:
            self._pumping = False
        if self.closing:
            return
        held = self.owing or self._blocked
        if held and not self._paused and self._frames.full:
            self._paused = True
            self.transport.pause_reading()
        elif self._paused and not held:
            self._paused = False
            self.transport.resume_reading()

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


class _Hold(NamedTuple):
    """One parked FETCH: the step it asked for, its clamped ``wait``, the
    timer that expires it, and ``end(outcome, detail)``, which answers it."""

    step: int
    wait: float
    timer: asyncio.TimerHandle
    end: Callable


class HostedStream(Run):
    """One named stream brokered by the daemon: the run its writer ranks share.

    Each writer rank is one data connection.  A rank joins at its OPEN
    (:meth:`join`); each PUBLISH lands its ``net.var`` run of the open
    step, ``(var count, run)``, and ends or closes the rank
    (:meth:`publish`), by the rule of every run.

    ``plugins`` is the run's DC chain (DESIGN §13, "The run's chain"):
    the daemon runs none of it, but prunes under its reader side (§16).

    Duck-typed like an in-process stream state (``monitor``, ``closed``,
    ``error``, ``active_transport``) so the live-telemetry server and
    :class:`~repro.obs.health.HealthBoard` sample it unchanged; the
    ``tenant`` attribute labels every metric series.
    """

    def __init__(self, tenant: str, name: str, retain_steps: int = DEFAULT_RETAIN_STEPS) -> None:
        self.tenant = tenant
        self.name = name
        self.stream_id = f"{tenant}/{name}"
        super().__init__(PluginManager(PerfMonitor()))
        #: ``shm`` while the latest step sits in a pool slot.
        self.active_transport = "tcp"
        #: step -> (var count, the step's runs: one rank's — a uint8 view of
        #: the frame that carried it, or of the pool slot it was published
        #: into, ``bytes`` once pruned or restored — or a tuple of several
        #: ranks' in rank order, the chain generation a run was pruned under
        #: or 0); what a reader is told about any step is this store's ``lookup``.
        self.store = StepStore(retain=int(retain_steps))
        #: Each joined writer rank's owning session.
        self.owners: dict[int, str] = {}
        #: Names of which a pruned run of the open step kept a block.
        self.shown: set[str] = set()
        #: Per writer rank, the highest publish sequence number applied;
        #: republished frames with seq <= it are acknowledged but not
        #: re-stored, so a rank that resends after a lost OK never lands twice.
        self.last_seq: dict[int, int] = {}
        #: The current pool generation (None until a same-node writer
        #: publishes a run over ``INLINE_MAX``) and, for every slot in use,
        #: ``id(its view) -> (pool, offset, nbytes, sanitizer digest | None)``.
        self.pool: Optional[ShmArena] = None
        self._slots: dict[int, tuple] = {}
        self._san = sanitize.get()  # captured: one None check when disabled
        self._labels = {"tenant": tenant}
        # This stream's series, resolved once each: a registry look-up sorts
        # and joins the label dict into its key every time, 8 times a step.
        metrics = self.monitor.metrics
        self.counter = functools.cache(functools.partial(metrics.counter, labels=self._labels))
        self.gauge = functools.cache(functools.partial(metrics.gauge, labels=self._labels))
        #: Attached readers that opted into pushdown.
        self.pushdown: set[_Conn] = set()
        #: Attached readers with a FETCH parked here, and its hold.
        self.parked: dict[_Conn, _Hold] = {}

    @property
    def closed(self) -> bool:
        return self.store.closed

    @property
    def predicate(self):
        """What a PUBLISH is pruned under: the run's reader-side block
        predicate while a pushdown reader is attached, else None."""
        return self.plugins.block_predicate(PluginSide.READER) if self.pushdown else None

    @property
    def error(self) -> Optional[str]:
        return self.store.failed

    # ------------------------------------------------------------------
    def join(self, rank: int, session: str) -> None:
        """Writer rank ``rank`` OPENed by ``session`` (any of the tenant's)
        joins the run; the same session opening it again is its OPEN
        retried.  A rank open elsewhere, or already closed, is refused."""
        owner = self.owners.setdefault(rank, session)
        if owner != session or rank in self.barrier.closed:
            raise DirectoryError(f"writer rank {rank} of {self.stream_id!r} is already open")
        super().join(rank)

    def publish(self, step: int, count: int, payload: "np.ndarray | bytes",
                eos: bool, seq: int = 0, slot: Optional[tuple] = None,
                rank: int = 0, pruned: int = 0) -> bool:
        """Land ``rank``'s run of the open step (its ``step``-th, as the
        rank counts); with ``eos`` the rank closes after it.  Returns False
        for a suppressed duplicate.  ``slot`` is the granted ``(pool,
        offset)`` that ``payload`` views: kept while that view object
        lives, given back at once when the run is not kept as that view
        (duplicate, pruned to ``bytes``).  ``pruned``: the chain generation
        blocks were dropped under (0: none were)."""
        last = self.last_seq.get(rank, 0)
        if 0 < seq <= last:
            self.counter("net.dup_publishes").inc()
            flight.record(
                EV_NET_DUP_PUBLISH, stream=self.stream_id, step=step, seq=seq
            )
            if slot is not None:
                self.give_back(*slot)
            return False
        self.last_seq[rank] = max(seq, last)
        if slot is not None and isinstance(payload, np.ndarray):
            # The stored object is the one the slot's life hangs on.
            digest = None
            if self._san is not None:  # the write that just landed hit no slot in use
                for ref in self._slots.values():
                    self._checked(*ref)
                digest = self._san.lend(payload)
            self._slots[key := id(payload)] = (*slot, len(payload), digest)
            stream = weakref.ref(self)  # a dropped stream's pools die with it
            weakref.finalize(payload, lambda: (s := stream()) and s.give_back(
                *s._checked(*s._slots.pop(key))))
            self.counter(M_NET_STEPS_PUBLISHED_BY_REF).inc()
        elif slot is not None:
            self.give_back(*slot)
        if count:  # a rank that wrote nothing lands no run
            self.write(rank, (count, payload, pruned))
        if eos:
            self.writer_close(rank)
        else:
            self.end_rank_step(rank)
        return True

    def _seal(self, step_runs: list[tuple[int, list]]) -> None:
        """Append the ended step, its runs in rank order (a rank's own in
        landing order)."""
        self.shown = set()
        runs = [run for _, rank_runs in step_runs for run in rank_runs]
        count, nbytes = sum(r[0] for r in runs), sum(len(r[1]) for r in runs)
        # One run is stored as it landed.
        payload = runs[0][1] if len(runs) == 1 else tuple(r[1] for r in runs)
        # Runs pruned under different chains leave gaps no one chain
        # reads: -1 matches no generation, so the step reads as lost.
        pruned = {r[2] for r in runs} - {0} or {0}
        step = self.store.last + 1
        self.store.append(step, (count, payload, pruned.pop() if len(pruned) == 1 else -1),
                          nbytes)
        self.active_transport = "tcp" if self.slot_of(payload) is None else "shm"
        self.counter("net.steps_published").inc()
        self.counter("net.bytes_published").inc(nbytes)
        self.gauge("net.retained_steps").set(len(self.store))
        flight.record(EV_NET_STEP_PUBLISH, stream=self.stream_id, step=step, nbytes=nbytes)
        self.wake()  # last: a slot-backed step is answered by reference

    def _finish(self) -> None:
        self.store.end()
        self.wake()

    def fetch(self, step: int) -> Optional[tuple[int, "np.ndarray | bytes", int]]:
        """Step ``step``'s ``(var count, runs, pruned)``, counted as served;
        None on a miss (the store's ``lookup`` says which kind)."""
        outcome, got = self.store.lookup(step)
        if outcome is not Outcome.HIT:
            return None
        self.counter("net.steps_fetched").inc()
        self.counter("net.bytes_fetched").inc(sum(map(len, step_runs(got[1]))))
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
                self.pool = ShmArena(run_nbytes, self.store.retain + 4)
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

    def give_back(self, pool: ShmArena, offset: int) -> None:
        pool.free.append(offset)
        self.gauge(M_NET_POOL_SLOTS_FREE).set(len(self.pool.free))

    def slot_of(self, payload) -> Optional[tuple]:
        """``(pool, offset)`` when ``payload`` is a stored slot view."""
        ref = self._slots.get(id(payload))
        return None if ref is None else self._checked(*ref)

    def _checked(self, pool: ShmArena, offset: int, nbytes: int, digest) -> tuple:
        """``(pool, offset)`` of a slot in use.  Sanitizer: at every fetch,
        every later publish and when freed, it holds what was published."""
        if digest is not None:
            self._san.check_lent(sanitize.NET_SLOT_MUTATED, f"{self.stream_id}@{offset}",
                                 digest, pool.arr[offset:offset + nbytes])
        return pool, offset

    def fail(self, reason: str) -> None:
        """The run's lease lapsed (:func:`~repro.core.directory.reap`):
        a typed stream end.  The open step is dropped with the runs landed
        for it: no reader sees a step missing a rank."""
        self.store.fail(reason)
        super().fail(reason)
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


def chain_record(chain: PluginManager) -> dict:
    """A run's chain as CHAIN_REPLY and the checkpoint carry it."""
    return {"generation": chain.generation,
            "chain": json.dumps([p.spec() for p in chain.plugins()])}


def step_runs(payload) -> tuple:
    """A stored step's runs: its one run, or the tuple of several."""
    return payload if isinstance(payload, tuple) else (payload,)


def prune_step_payload(raw: np.ndarray, offset: int, count: int,
                       predicate, stream: HostedStream) -> tuple[int, "np.ndarray | bytes"]:
    """Drop ``net.var`` spans the run's reader predicate proves empty.

    Walks the PUBLISH frame's var run by ``decode_var`` offsets and
    rebuilds the stored payload from the surviving spans — the payload
    is sliced, never re-encoded, so kept blocks stay byte-identical.  A
    writer stamps bounds once a reply has asked it to; a block published
    inside that one-step window is bounded here (a slot is mapped here
    too), so outcomes do not depend on who did.  A span nobody can bound
    is always kept, and so is a name's first span while the open step has
    kept none (``stream.shown``): the run's reader chain drops its rows, so
    pruning stays invisible.  Each dropped span counts toward the
    stream's ``plugin.blocks_skipped`` series.
    """
    kept: list[np.ndarray] = []
    bounded = 0
    start = offset
    for _ in range(count):
        rec, end = decode_var(raw, offset)
        bounds = (rec["vmin"], rec["vmax"]) if rec["has_stats"] else block_bounds(rec["data"])
        if bounds is not None and not rec["has_stats"]:
            bounded += 1
        if (rec["name"] not in stream.shown or bounds is None
                or predicate.might_match(rec["name"], *map(float, bounds))):
            stream.shown.add(rec["name"])
            kept.append(raw[offset:end])
        offset = end
    skipped = count - len(kept)
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


@dataclass
class _Session:
    session_id: str
    tenant: str
    spec: TenantSpec
    client: str = ""
    #: Server-issued resume token: a reconnecting client presents it in
    #: HELLO to adopt this session instead of minting a fresh one.
    resume: str = ""


class DirectoryDaemon:
    """The asyncio control+data daemon behind ``flexio://`` URIs.

    ``tenants`` seeds the tenant table; with none given a single open
    tenant ``"public"`` (no token, no quotas) is created so
    single-tenant deployments work out of the box.  ``_streams`` is the
    daemon's directory: ``tenant/name`` -> the run that name opens.
    ``clock`` is what every run's lease and every tenant's byte budget
    read, so lease reap stays deterministic under test.
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
        self.clock = clock or time.monotonic
        self.directory = TenantDirectory(clock=self.clock, metrics=self.metrics)
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
        #: namespace — one that can map an arena — reads the nonce in the
        #: one-slot arena WELCOME names.  No ``memfd_create``: no arena,
        #: nobody can echo the nonce, everyone gets inline frames.
        self._nonce = secrets.token_hex(8)
        self._proof = ShmArena(len(self._nonce)) if hasattr(os, "memfd_create") else None
        if self._proof is not None:
            self._proof.arr[:len(self._nonce)] = np.frombuffer(self._nonce.encode(), np.uint8)
        self._streams: dict[str, HostedStream] = {}
        self._sessions: dict[str, _Session] = {}
        self._resume: dict[str, str] = {}  # resume token -> session_id
        self._session_counter = itertools.count(1)
        #: Chain generations: unique daemon-wide (a fresh run's is 0).
        self._generations = itertools.count(1)
        self._draining = False
        self._conns: set[_Conn] = set()
        self.telemetry: Optional[LiveTelemetryServer] = None
        if telemetry:  # the HTTP exporter is loaded only when it serves
            from repro.obs.live import LiveTelemetryServer

            self.telemetry = LiveTelemetryServer(states=self._stream_states)
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
            for stream in reap(list(self._streams.values())):
                self.metrics.counter(
                    "net.lease_evictions", labels={"tenant": stream.tenant}
                ).inc()
                self._count_runs(stream.tenant)

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
        """Write one frame to ``conn`` — or act out the fault injected into
        it: the frame is dropped, torn, delayed, or the connection killed."""
        kind = None if self.injector is None else self.injector.next_fault()
        if kind is None:
            return conn.write_frame(*parts)
        blob = b"".join(as_byte_view(p) for p in parts)  # chaos-only path
        total = len(blob)
        record_injected(self.metrics, "daemon", kind, nbytes=total)
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
        stream.unpark(conn)
        stream.pushdown.discard(conn)  # a gone reader stops asking for pruning
        if conn.grant is not None:
            stream.give_back(*conn.grant)
        conn.grant = conn.pinned = None

    # -- the run table -----------------------------------------------------
    def _live_runs(self, tenant: str) -> list[HostedStream]:
        return [s for s in self._streams.values() if s.tenant == tenant and not s.closed]

    def _count_runs(self, tenant: str) -> None:
        """A run of ``tenant`` opened or ended: its ``tenant.streams`` gauge."""
        self.directory.count_runs(tenant, self._live_runs(tenant))

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
        session = self._sessions.get(self._resume.get(frame.record["resume"]))
        resumed = session is not None and session.tenant == tenant
        if not resumed:
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
            "pool": self._proof.name if self._proof else "",
        }))

    @_handler
    def _control(self, conn: _Conn, raw, frame: Frame) -> None:
        rec = frame.record
        session = conn.session
        tenant = session.tenant
        if frame.msg_type is MsgType.BYE:
            conn.bye = True
            return conn.hang_up()
        if self._draining and frame.msg_type is MsgType.OPEN:
            # Drain refuses *new* work but still serves heartbeats so
            # in-flight sessions can wind down.
            return self._send_retry_after(conn, "draining")
        try:
            if frame.msg_type is MsgType.HEARTBEAT:
                # Tolerant: reader-side and already-closed streams heartbeat
                # too (the client's background thread does not know which
                # names hold leases).
                stream = self._streams.get(f"{tenant}/{rec['stream']}")
                live = stream is not None and not stream.closed
                if live:
                    stream.beat()
                self._ack(conn, "heartbeat" if live else "idle")
            elif frame.msg_type is MsgType.OPEN:
                self._control_open(session, rec, conn)
            elif frame.msg_type is MsgType.CHAIN:
                self._control_chain(session, rec, conn)
            else:
                self._send_error(
                    conn, "protocol", f"unexpected {frame.msg_type.name} on control port"
                )
        except AdmissionError as exc:
            self._send_admission_error(conn, exc)
        except DirectoryError as exc:
            self._send_error(conn, "directory", str(exc))
        except CodeletError as exc:
            self._send_error(conn, "codelet", str(exc))

    def _control_open(self, session: _Session, rec: dict, conn) -> None:
        tenant = session.tenant
        name = rec["stream"]
        mode = rec["mode"]
        stream_id = f"{tenant}/{name}"
        if mode == "w":
            stream = self._streams.get(stream_id)
            if stream is None or stream.closed:
                # The run's first rank: admission happens before the
                # stream becomes visible to readers.
                lease = rec["lease"] if rec["lease"] > 0 else None
                self.directory.admit_run(tenant, self._live_runs(tenant), lease)
                stream = HostedStream(tenant, name, retain_steps=self.retain_steps)
                stream.hold_lease(lease, self.clock)
                self._streams[stream_id] = stream
                self._count_runs(tenant)
            stream.join(int(rec["rank"]), session.session_id)
        elif mode == "r":
            # A closed stream stays openable while steps are retained —
            # late analytics drain the store-and-forward tail to EOS.
            if stream_id not in self._streams:
                # The typed not-found the client retry loop expects.
                raise DirectoryError(f"no stream registered under {name!r}")
        else:
            return self._send_error(conn, "protocol", f"bad open mode {mode!r}")
        flight.record(EV_NET_STREAM_OPEN, stream=stream_id, mode=mode, tenant=tenant)
        self._reply(conn, encode_frame(MsgType.OPEN_REPLY, {
            "stream_id": stream_id,
            "data_port": self.data_port,
        }))

    def _control_chain(self, session: _Session, rec: dict, conn) -> None:
        """CHAIN: one change to a run's chain — or ``get``, none — answered
        with the whole chain.  A change takes the next daemon-wide
        generation.  The request comes from outside the program: a spec
        that does not rebuild is a ``protocol`` ERROR and a change the
        chain refuses a ``codelet`` one, the chain unchanged either way."""
        stream = self._streams.get(f"{session.tenant}/{rec['stream']}")
        if stream is None:
            raise DirectoryError(f"no stream registered under {rec['stream']!r}")
        chain, op, before = stream.plugins, rec["op"], stream.plugins.generation
        try:
            plugin = DCPlugin.from_spec(rec) if op == "deploy" else None
            side = PluginSide(rec["side"]) if op == "migrate" else None
            if op not in ("deploy", "undeploy", "migrate", "get"):
                raise ValueError(f"unknown op {op!r}")
        except (CodeletError, ValueError) as exc:
            return self._send_error(conn, "protocol", f"bad chain request: {exc}")
        if plugin is not None:  # a refused change raises CodeletError: see _control
            chain.deploy(plugin, plugin.side)
        elif side is not None:
            chain.migrate(rec["name"], side)
        elif op == "undeploy":
            chain.undeploy(rec["name"])
        if chain.generation != before:
            chain.generation = next(self._generations)
        self._reply(conn, encode_frame(MsgType.CHAIN_REPLY, chain_record(chain)))

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
        conn.stream, conn.rank = stream, int(frame.record["rank"])
        conn.colocated = frame.record["nonce"] == self._nonce
        conn.chain = int(frame.record["chain"])
        if frame.record["role"] == "w":
            # What the latest positive reply granted this connection, while
            # it is unused; back in the pool when the connection ends.
            conn.grant = stream.grant() if conn.colocated else None
            conn.handler = self._publish
        else:
            conn.handler = self._fetch
            if frame.record["pushdown"]:
                stream.pushdown.add(conn)
        self._ack(conn, "attached", conn.grant, stream)

    def _ack(self, conn: _Conn, detail: str, grant: Optional[tuple] = None,
             stream: Optional[HostedStream] = None) -> None:
        """The positive reply: OK, or GRANT to a writer that now holds a slot.
        On a data connection ``stats`` asks a writer to stamp block bounds
        (``stream`` prunes)."""
        record = {"detail": detail,
                  "stats": stream is not None and stream.predicate is not None}
        if grant is None:
            frame = encode_frame(MsgType.OK, record)
        else:
            frame = encode_frame(MsgType.GRANT, {
                **record, "pool": grant[0].name, "offset": grant[1],
                "capacity": grant[0].capacity})
        self._reply(conn, frame)

    def _stale(self, conn: _Conn, what: str) -> bool:
        """Refuse ``what`` with ``stale_chain`` when the run's chain moved
        past the generation ``conn``'s peer holds — its request was made
        under the old chain.  The refusal is what tells it: the connection
        holds the run's generation from here, and the peer re-syncs its
        mirror before it asks again."""
        generation = conn.stream.plugins.generation
        if conn.chain == generation:
            return False
        held, conn.chain = conn.chain, generation
        self._send_error(conn, "stale_chain", (
            f"{what}: the run's chain is at generation {generation}, not {held}"))
        return True

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
        if stream.closed:  # a rank's close after the run ended (a lease) is moot
            if rec["eos"]:
                return self._ack(conn, "closed", stream=stream)
            return self._send_error(conn, "stream_failed", stream.error or "stream ended")
        if self._stale(conn, f"PUBLISH of step {rec['step']}"):
            return  # the writer re-syncs and conditions its kept blocks again
        try:  # a referenced run is charged like the frame it replaces
            self.directory.charge_bytes(stream.tenant, raw.nbytes + nbytes)
        except AdmissionError as exc:
            return self._send_admission_error(conn, exc)
        if by_ref:
            (pool, offset), conn.grant, inline_run = grant, None, 0
            raw, start, slot = pool.arr[offset:offset + nbytes], 0, (pool, offset)
        else:
            inline_run = raw.nbytes - frame.consumed  # a bulk one sizes the pool
            start, slot = frame.consumed, None
        # The run as it landed (no copy), pruned of what the run's reader
        # chain drops.
        sent = count = int(rec["count"])
        payload = raw[start:] if start else raw
        predicate = stream.predicate
        if predicate is not None and count:
            try:
                count, payload = prune_step_payload(raw, start, count, predicate, stream)
            except ProtocolError:
                # Malformed var run: store verbatim; the reader's
                # decode surfaces the real error.
                pass
        stored = stream.publish(int(rec["step"]), count, payload, bool(rec["eos"]),
                                seq=int(rec["seq"]), slot=slot, rank=conn.rank,
                                pruned=stream.plugins.generation if count < sent else 0)
        if stream.closed:  # the last rank out ended the run
            self._count_runs(stream.tenant)
        else:  # publishing is the writer's liveness signal
            stream.beat()

        def ack() -> None:
            if conn.colocated:
                conn.grant = stream.grant(conn.grant, inline_run)
            self._ack(conn, "published" if stored else "duplicate", conn.grant, stream)

        if stored and self.checkpoint_sync and self.checkpoint_path:
            # Durability before acknowledgement: once the writer sees OK,
            # the step survives even a hard daemon kill.  The fsync+rename
            # runs off the loop, so other sessions' frames do not stall.
            return self._owe(conn, self.checkpoint_async(), ack)
        ack()

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
            if self._stale(conn, f"FETCH of step {step}"):
                return  # the reader re-syncs and asks again
            count, conn.pinned, pruned = stream.fetch(step)
            head = {"count": count, "pruned": pruned}
            slot = stream.slot_of(conn.pinned)
            if slot is not None and conn.colocated:
                stream.counter(M_NET_STEPS_FETCHED_BY_REF).inc()
                return self._reply(conn, encode_frame(MsgType.STEP_REF, {
                    **head, "pool": slot[0].name, "offset": slot[1],
                    "nbytes": len(conn.pinned)}))
            # Several ranks' runs follow the header back to back: no join.
            return self._reply(
                conn, encode_frame(MsgType.STEP_DATA, head), *step_runs(conn.pinned))
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
        flags any call to this from an ``async def``.  While the daemon
        serves, a caller on another thread has the loop run
        :meth:`checkpoint_async`: only the loop may walk broker state.
        """
        loop = self._loop
        on_loop = threading.current_thread() is self._thread
        if loop is not None and loop.is_running() and not on_loop:
            fut = asyncio.run_coroutine_threadsafe(self.checkpoint_async(path), loop)
            return fut.result(timeout=10.0)
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
        if self._ckpt_executor is None:
            self._ckpt_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="flexio-ckpt")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._ckpt_executor, self._write_checkpoint_blob, blob, target)
        self._note_checkpoint(target, len(blob))
        return target

    def _checkpoint_target(self, path: Optional[str]) -> str:
        target = path or self.checkpoint_path
        if not target:
            raise ValueError("no checkpoint path configured")
        return target

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
        """The state walk: every tenant/session/stream as
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
            }))
        for stream in self._streams.values():
            snap, barrier = stream.store.snapshot(), stream.barrier.snapshot()
            parts.append(encode_record(CKPT_STREAM, {
                "stream_id": stream.stream_id, "tenant": stream.tenant,
                "name": stream.name,
                "last_step": snap["last"],
                "eos_step": -1 if snap["ended"] is None else snap["ended"],
                "failed": snap["failed"] is not None, "error": snap["failed"] or "",
                "retain": snap["retain"], "peak_nbytes": snap["peak_nbytes"],
                "count": len(snap["steps"]),
                "ranks": list(stream.owners), "owners": ",".join(stream.owners.values()),
                "closed": barrier["closed"], "ended": barrier["ended"],
                "seqs": [n for pair in stream.last_seq.items() for n in pair],
                "open": sum(map(len, stream.open_step.values())),
                "lease": stream.lease or 0.0,
                "remaining": 0.0 if stream.deadline is None
                else max(0.0, stream.deadline - stream.clock()),
                **chain_record(stream.plugins),
            }))
            # ``publish`` is the store's only appender: no entry is lost.
            for step, (count, payload, pruned), _nbytes, _lost in snap["steps"]:
                parts.append(encode_record(CKPT_STEP, {
                    "step": step, "count": count, "pruned": pruned,
                    "payload": np.frombuffer(b"".join(step_runs(payload)), dtype=np.uint8),
                }))
            for rank, runs in stream.open_step.items():
                for count, run, pruned in runs:
                    parts.append(encode_record(CKPT_RUN, {
                        "rank": rank, "count": count, "pruned": pruned,
                        "payload": np.frombuffer(run, dtype=np.uint8),
                    }))
        return b"".join(p.tobytes() for p in parts)

    def restore(self, path: Optional[str] = None) -> None:
        """Load a checkpoint written by :meth:`checkpoint`.

        Call before :meth:`start`.  Tenants already configured keep
        their (possibly newer) specs; checkpointed sessions become
        resumable again; leased streams resume with their
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
        max_sid = max_gen = 0
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
                )
                self._sessions[sess.session_id] = sess
                if sess.resume:
                    self._resume[sess.resume] = sess.session_id
                sid = sess.session_id
                if sid.startswith("s") and sid[1:].isdigit():
                    max_sid = max(max_sid, int(sid[1:]))
            elif fmt.name == CKPT_STREAM.name:
                n_steps, held = int(rec["count"]), []
                for i in range(n_steps + int(rec["open"])):
                    want = CKPT_STEP if i < n_steps else CKPT_RUN
                    sfmt, srec, offset = decode_record(data, offset)
                    if sfmt.name != want.name:
                        raise ProtocolError(f"expected {want.name}, got {sfmt.name}")
                    payload = np.asarray(srec["payload"], dtype=np.uint8).tobytes()
                    held.append((srec, (int(srec["count"]), payload, int(srec["pruned"]))))
                stream = HostedStream(rec["tenant"], rec["name"])
                try:
                    for spec in json.loads(rec["chain"]):
                        stream.plugins.deploy(DCPlugin.from_spec(spec), PluginSide(spec["side"]))
                except (ValueError, KeyError, TypeError, CodeletError) as exc:
                    raise ProtocolError(f"bad chain in checkpoint: {exc}") from None
                stream.plugins.generation = int(rec["generation"])
                max_gen = max(max_gen, stream.plugins.generation)
                stream.hold_lease(rec["lease"] or None, self.clock, rec["remaining"])
                stream.owners = dict(zip(map(int, rec["ranks"]), rec["owners"].split(",")))
                stream.barrier = StepBarrier.restore(
                    {"joined": stream.owners, "closed": rec["closed"], "ended": rec["ended"]})
                seqs = [int(n) for n in rec["seqs"]]
                stream.last_seq = dict(zip(seqs[::2], seqs[1::2]))
                for r, run in held[n_steps:]:
                    stream.write(int(r["rank"]), run)
                stream.store = StepStore.restore({
                    "retain": int(rec["retain"]), "last": int(rec["last_step"]),
                    "ended": None if rec["eos_step"] < 0 else int(rec["eos_step"]),
                    "failed": rec["error"] if rec["failed"] else None,
                    "peak_nbytes": int(rec["peak_nbytes"]),
                    "steps": [(int(r["step"]), run, len(run[1])) for r, run in held[:n_steps]],
                })
                self._streams[stream.stream_id] = stream
            else:
                raise ProtocolError(f"unknown checkpoint record {fmt.name!r}")
        for tenant in {stream.tenant for stream in self._streams.values()}:
            self._count_runs(tenant)
        self._session_counter = itertools.count(max_sid + 1)
        self._generations = itertools.count(max_gen + 1)
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
