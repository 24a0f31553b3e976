"""``connect()``: the client face of the FlexIO service.

One entry point covers both deployment shapes the paper's
location-flexible placement implies:

* ``connect("local://")`` — everything in-process.  The returned
  :class:`~repro.core.api.LocalClient` wraps the
  :class:`~repro.core.api.FlexIO` façade with a stream-mode
  configuration, so ``open(name, "w")`` / ``open(name, "r")`` hand
  back the familiar step-API handles backed by the in-process data
  plane (shm/rdma models, drainer, plan cache).

* ``connect("flexio://host:port/tenant", token=...)`` — a
  :class:`RemoteClient` session against a running
  :class:`~repro.net.server.DirectoryDaemon`.  The control socket
  authenticates the tenant (HELLO → WELCOME) and opens named streams;
  each open dials the daemon's data port through a
  :class:`~repro.transport.tcp.TcpChannel` and exchanges steps with
  the store-and-forward broker (PUBLISH / FETCH frames).  Admission
  rejections — bad token, unknown tenant, quota exceeded — come back
  as the *same* typed :class:`~repro.core.directory.AdmissionError`
  values the daemon raised, rebuilt from the wire kind.

Either way the handles subclass the redesigned
:class:`~repro.adios.api.WriteHandle` / :class:`~repro.adios.api.ReadHandle`
ABCs, so application step loops are identical in-process and over the
network::

    import repro as flexio

    with flexio.connect("flexio://127.0.0.1:7700/acme", token="s3cret") as c:
        with c.open("gts.stream", "w") as w:
            w.begin_step()
            w.write("temperature", field, box=box, global_shape=shape)
            w.end_step()
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, NoReturn, Optional
from urllib.parse import urlsplit

import numpy as np

from repro.adios.api import IoMethod, RankContext, WriteHandle, register_method
from repro.adios.model import WrittenVar
from repro.adios.selection import BoundingBox
from repro.core.api import Client, LocalClient
from repro.core.directory import DirectoryError, admission_exception
from repro.core.hints import DAEMON, TENANT, TOKEN_ENV
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import PluginManager, PluginSide
from repro.core.redistribution import PlanCache
from repro.core.resilience import RetryPolicy, retry_call
from repro.core.stepstore import outcome_error
from repro.core.reader import BlockSource, StepReader
from repro.net.protocol import (
    MISS_REPLY,
    Frame,
    MsgType,
    ProtocolError,
    block_bounds,
    decode_frame,
    decode_var,
    encode_frame,
    encode_var,
)
from repro.obs import CURRENT, recorder as flight, sanitize
from repro.obs.events import (
    EV_NET_CONNECT,
    EV_NET_DISCONNECT,
    EV_NET_RECONNECT,
    EV_NET_RESUME,
    EV_NET_SESSION_LOST,
    EV_NET_STREAM_OPEN,
)
from repro.obs.names import M_NET_FETCHES, M_NET_STEPS_COPIED_OUT
from repro.transport.faults import (
    PeerDisconnected,
    SessionLost,
    TornSend,
    TransportFault,
    TransportFaultInjector,
    TransportTimeout,
)
from repro.transport.buffers import as_byte_view
from repro.transport.shm import ShmArena
from repro.transport.tcp import INLINE_MAX, TcpChannel
from repro.util import rng

__all__ = [
    "connect",
    "parse_flexio_uri",
    "ParsedUri",
    "NetError",
    "RetryAfter",
    "SessionLost",
    "Client",
    "LocalClient",
    "RemoteClient",
]


class NetError(TransportFault):
    """A non-admission ERROR frame from the daemon (kind + message).

    Subclasses :class:`~repro.transport.faults.TransportFault` (itself a
    ``RuntimeError``), so daemon-side failures sit in the same typed
    family as socket-level faults — one ``except TransportFault`` covers
    the whole client path, satisfying the FXL001 discipline.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        #: The wire kind (``.kind`` is ``TransportFault``'s ``FaultKind`` slot).
        self.error_kind = kind


class RetryAfter(NetError):
    """The daemon asked us to back off (drain/restart in progress)."""

    def __init__(self, delay: float, reason: str) -> None:
        super().__init__("retry_after", f"retry in {delay}s: {reason}")
        self.delay = float(delay)
        self.reason = reason


#: Faults a reconnect-and-retry attempt can cure: socket-level faults
#: and explicit daemon back-pressure.  Application-level errors (bad
#: mode, unknown stream, admission rejections, protocol bugs) are NOT
#: retried — they would fail identically on a fresh connection.
RECONNECT_FAULTS = (PeerDisconnected, TransportTimeout, TornSend, RetryAfter)

#: Wire error kinds that rebuild as typed AdmissionError subclasses.
_ADMISSION_KINDS = frozenset(
    {"unknown_tenant", "auth", "streams", "bytes_per_s", "leases"}
)


#: ``MISS_REPLY`` read in reverse: the step outcome a reply frame carries.
_REPLY_OUTCOME = {reply: outcome for outcome, reply in MISS_REPLY.items()}


def raise_wire_error(frame: Frame, where: str = "reply") -> NoReturn:
    """Raise the typed exception of a reply frame that is not the one
    awaited (``where`` names the request): RETRY_AFTER; a step outcome
    other than the data (``MISS_REPLY`` in reverse, raised as the
    in-process types); an ERROR of any other kind; or, for any other
    frame, :class:`ProtocolError`."""
    record = frame.record
    if frame.msg_type is MsgType.RETRY_AFTER:
        raise RetryAfter(float(record["delay"]), record["reason"])
    if frame.msg_type in (MsgType.EOS, MsgType.NOT_READY):
        kind = message = ""  # the step index is their whole body
    elif frame.msg_type is MsgType.ERROR:
        kind, message = record["kind"], record["message"]
    else:
        raise ProtocolError(f"unexpected {frame.msg_type.name} frame for {where}")
    outcome = _REPLY_OUTCOME.get((frame.msg_type, kind))
    if outcome is not None:
        raise outcome_error(outcome, where, message)
    if kind in _ADMISSION_KINDS:
        raise admission_exception(kind, message)
    if kind == "protocol":
        raise ProtocolError(message)
    raise NetError(kind, message)


# ---------------------------------------------------------------------------
# The same-node rung: daemon arenas, mapped through /proc
# ---------------------------------------------------------------------------

def _slot(handle, name: str, offset: int, nbytes: int, write: bool) -> np.ndarray:
    """``nbytes`` at ``offset`` of arena ``name``, through the session's one
    mapping of that generation (kept alive by the handles using it;
    ``PROT_READ`` unless a writer asked first).  An arena that is gone
    means its daemon is: :class:`PeerDisconnected`, retriable."""
    mapped = handle._client._pools.get(name)
    if mapped is None or (write and not mapped.flags.writeable):
        try:
            mapped = handle._client._pools[name] = ShmArena.map(name, write)
        except ValueError as exc:  # a name no daemon arena has
            raise ProtocolError(str(exc)) from None
    handle._pool = mapped
    if not 0 <= offset <= offset + nbytes <= mapped.nbytes:
        raise ProtocolError(f"slot {offset}+{nbytes} outside pool {name}")
    return mapped[offset:offset + nbytes]


# ---------------------------------------------------------------------------
# URI grammar:  flexio://host:port/tenant   |   local://
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedUri:
    """One parsed ``flexio://`` / ``local://`` service URI."""

    scheme: str
    host: str = ""
    port: int = 0
    tenant: str = "public"


def parse_flexio_uri(uri: str) -> ParsedUri:
    """Parse a service URI.

    Grammar::

        uri    := "local://" | "flexio://" host ":" port [ "/" tenant ]
        tenant := path segment (defaults to "public")

    Rejections are always ``ValueError`` (never a raw parsing artifact):
    userinfo (``user@host``) is refused — authentication travels in the
    HELLO token, not the URI — and an out-of-range or non-numeric port
    is reported with the offending URI.  A trailing slash after the
    tenant is tolerated.
    """
    parts = urlsplit(uri)
    if parts.scheme == "local":
        return ParsedUri(scheme="local")
    if parts.scheme != "flexio":
        raise ValueError(
            f"unsupported URI scheme {parts.scheme!r} (expected flexio:// or local://)"
        )
    if parts.username is not None or parts.password is not None:
        raise ValueError(
            f"flexio:// URIs carry no userinfo (use token=...), got {uri!r}"
        )
    try:
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"bad port in flexio:// URI {uri!r}: {exc}") from exc
    if not parts.hostname or port is None:
        raise ValueError(f"flexio:// URI needs host:port, got {uri!r}")
    tenant = parts.path.strip("/") or "public"
    if "/" in tenant:
        raise ValueError(f"tenant must be one path segment, got {parts.path!r}")
    return ParsedUri(
        scheme="flexio", host=parts.hostname, port=port, tenant=tenant
    )


# ---------------------------------------------------------------------------
# Remote client
# ---------------------------------------------------------------------------

#: Default reconnect schedule: 4 attempts, short exponential backoff
#: with seeded jitter (the backoff base is ``timeout``, NOT the socket
#: timeout — reconnects should hammer fast, then give up fast).
DEFAULT_RETRY = RetryPolicy(max_retries=3, timeout=0.05, backoff_factor=2.0,
                            jitter=0.25)

#: Share of the session's recv timeout a FETCH may ask the daemon to hold
#: it for: the hold must end, and its answer arrive, before the client
#: would take a healthy idle daemon for a dead one.
FETCH_HOLD_FRACTION = 0.5


class RemoteClient(Client):
    """One authenticated control-plane session against the daemon.

    The session is *resumable*: the daemon's WELCOME carries a resume
    token, and every RPC and data exchange runs inside a bounded
    reconnect loop (``retry`` policy, seeded jitter via ``seed``) that
    re-dials, re-HELLOs with the token, and replays the frame.  Only
    when the whole schedule is exhausted does a typed
    :class:`~repro.transport.faults.SessionLost` escape.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        token: Optional[str] = None,
        client_name: str = "",
        timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        faults: Optional[TransportFaultInjector] = None,
        heartbeat_interval: float = 0.0,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self._token = token
        self._client_name = client_name
        self.timeout = timeout
        self.retry = retry or DEFAULT_RETRY
        self.faults = faults
        self.monitor = PerfMonitor()
        self._rng = rng(seed)
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        self._closed = False
        #: The control connection: a framed channel with no monitor and
        #: no fault injector, so control frames stay off the data-plane counters.
        self._control: Optional[TcpChannel] = None
        self._lock = threading.RLock()
        self._frame_seq = itertools.count(1)
        self.resume_token = ""
        self.resumed = False
        #: Pool generations this session has mapped, alive while a handle uses them.
        self._pools: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        #: The stream handles this session opened and has not seen close:
        #: its close closes them.  A session a staging ``<method>`` line
        #: opened for one handle (``_solo``) closes with that handle.
        self._handles: list = []
        self._solo = False
        self._retry_exhausted(self._dial, "connect")
        flight.record(EV_NET_CONNECT, tenant=tenant, client=client_name)
        # -- background heartbeat (writer leases + reader liveness) --------
        self._hb_interval = float(heartbeat_interval)
        self._hb_streams: set[str] = set()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        if self._hb_interval > 0:
            self._hb_thread = threading.Thread(
                target=self._hb_loop, name="flexio-heartbeat", daemon=True
            )
            self._hb_thread.start()

    # -- connection management ---------------------------------------------
    def _dial(self) -> None:
        """(Re)build the control connection and HELLO, resuming if we can."""
        if self._control is not None:
            self._control.close()
            self._control = None
        self._control = TcpChannel.connect(self.host, self.port, timeout=self.timeout)
        try:
            welcome = self._rpc_once(MsgType.HELLO, {
                "tenant": self.tenant, "token": self._token or "",
                "client": self._client_name, "resume": self.resume_token,
            }, MsgType.WELCOME)
        except (TransportFault, ProtocolError, DirectoryError):
            # Refused (bad token, draining) or cut off: the socket goes too.
            self._control.close()
            self._control = None
            raise
        self.session_id = welcome.record["session"]
        self.server_version = welcome.record["server"]
        self.data_port = int(welcome.record["data_port"])
        self.resumed = bool(welcome.record["resumed"])
        self.resume_token = welcome.record["resume"]
        #: Echoed in every ATTACH: what WELCOME's arena holds, readable
        #: only by a peer that shares the daemon's node, uid and pid
        #: namespace; blank = this peer gets inline frames only.
        try:
            self._nonce = bytes(ShmArena.map(welcome.record["pool"])).rstrip(b"\0").decode(
                "ascii", "replace")
        except (ValueError, PeerDisconnected):
            self._nonce = ""
        if self.resumed:
            self.monitor.metrics.counter("net.resume").inc()
            flight.record(
                EV_NET_RESUME, session=self.session_id, tenant=self.tenant
            )

    def _reconnect(self, attempt: int, exc: Exception) -> None:
        """One reconnect: honor daemon back-pressure, re-dial, re-HELLO.

        The socket may be desynced (a reply half-read, a frame half
        sent), so a retried RPC must never reuse it — every retry runs
        on a fresh connection.
        """
        if isinstance(exc, RetryAfter) and exc.delay > 0:
            self._sleep(exc.delay)
        self.monitor.metrics.counter("net.reconnects").inc()
        flight.record(
            EV_NET_RECONNECT, attempt=attempt, tenant=self.tenant,
            cause=type(exc).__name__,
        )
        # Data-path retries get here without the session lock, while the
        # heartbeat thread's RPCs use the socket this replaces.
        with self._lock:
            self._dial()

    def _retry_exhausted(self, op: Callable[[], Any], what: str,
                         on_retry: Optional[Callable] = None) -> Any:
        """Run ``op`` under the reconnect schedule; exhaustion raises the
        typed :class:`SessionLost` (itself a ``TransportFault``)."""
        try:
            return retry_call(
                op, self.retry, RECONNECT_FAULTS,
                on_retry=on_retry, rng=self._rng, sleep=self._sleep,
            )
        except RECONNECT_FAULTS as exc:
            self.monitor.metrics.counter("net.sessions_lost").inc()
            flight.record(
                EV_NET_SESSION_LOST, tenant=self.tenant, what=what,
                cause=type(exc).__name__,
            )
            raise SessionLost(
                f"{what} against {self.host}:{self.port} failed after "
                f"{self.retry.max_retries + 1} attempts: {exc}"
            ) from exc

    # -- control-plane RPC -------------------------------------------------
    def _rpc_once(self, msg_type: MsgType, record: dict, expect: MsgType) -> Frame:
        """One attempt on the current connection; socket errors are
        already mapped to typed faults inside the channel."""
        if self._control is None:
            # A previous reconnect died mid-dial; retriable — the retry
            # loop's on_retry re-dials before the next attempt.
            raise PeerDisconnected("control socket is down")
        self._control.sendv(
            [encode_frame(msg_type, record, seq=next(self._frame_seq))],
            timeout=self.timeout,
        )
        frame = decode_frame(self._control.recv(timeout=self.timeout))
        if frame.msg_type is not expect:
            raise_wire_error(frame, msg_type.name)
        return frame

    def _rpc(self, msg_type: MsgType, record: dict, expect: MsgType) -> Frame:
        if self._closed:
            raise PeerDisconnected("rpc on closed client session")
        with self._lock:
            return self._retry_exhausted(
                lambda: self._rpc_once(msg_type, record, expect),
                msg_type.name, on_retry=self._reconnect,
            )

    # -- directory surface -------------------------------------------------
    def register(self, stream: str, *, program: str = "writer", rank: int = 0,
                 num_ranks: int = 1, lease: float = 0.0) -> None:
        self._rpc(MsgType.REGISTER, {
            "stream": stream, "program": program, "rank": rank,
            "num_ranks": num_ranks, "lease": float(lease),
        }, MsgType.OK)

    def lookup(self, stream: str) -> dict:
        return self._rpc(MsgType.LOOKUP, {"stream": stream}, MsgType.LOOKUP_REPLY).record

    def heartbeat(self, stream: str) -> None:
        self._rpc(MsgType.HEARTBEAT, {"stream": stream}, MsgType.OK)

    # -- background heartbeat ----------------------------------------------
    def heartbeat_tick(self) -> int:
        """One heartbeat round over every open stream (writer leases AND
        reader liveness — the daemon answers ``idle`` for unleased
        names).  The background thread calls this; tests drive it
        directly for determinism.  Returns the number of beats sent."""
        sent = 0
        for name in sorted(self._hb_streams):
            if self._closed:
                break
            try:
                self.heartbeat(name)
                sent += 1
            except (TransportFault, ProtocolError):
                # The next RPC on this stream surfaces the real failure;
                # liveness pings must never kill the session themselves.
                break
        if sent:
            self.monitor.metrics.counter("net.heartbeats").inc(sent)
        return sent

    def _hb_loop(self) -> None:
        while not self._hb_stop.wait(self._hb_interval):
            if self._closed:
                return
            self.heartbeat_tick()

    # -- streams -----------------------------------------------------------
    def open(
        self,
        name: str,
        mode: str,
        *,
        rank: int = 0,
        num_ranks: int = 1,
        lease: float = 0.0,
        timeout: Optional[float] = None,
        **_ignored: Any,
    ):
        """Open a named stream for write or read.

        Readers may race the writer's open: with ``timeout`` (seconds)
        the open retries until the name resolves or the deadline
        passes; without it an unknown name raises immediately.
        """
        if mode not in ("w", "r"):
            raise ValueError(f"bad open mode {mode!r} (expected 'w' or 'r')")
        pushdown = bool(_ignored.pop("pushdown", False))
        record = {
            "stream": name, "mode": mode,
            "program": "writer" if mode == "w" else "reader",
            "rank": rank, "num_ranks": num_ranks, "lease": float(lease),
        }
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            try:
                reply = self._rpc(MsgType.OPEN, record, MsgType.OPEN_REPLY)
                break
            except NetError:
                if deadline is None or self._clock() >= deadline:
                    raise
                self._sleep(0.02)
        stream_id = reply.record["stream_id"]
        channel = self._attach_retrying(stream_id, mode, rank=rank)
        self._hb_streams.add(name)
        flight.record(EV_NET_STREAM_OPEN, stream=stream_id, mode=mode,
                      tenant=self.tenant)
        if mode == "w":
            handle = NetWriteHandle(_RunLink(self, stream_id, channel, name),
                                    RankContext(rank, num_ranks))
        else:
            handle = NetReadHandle(self, stream_id, channel, name=name, pushdown=pushdown)
        self._handles.append(handle)
        return handle

    def _attach(self, stream_id: str, role: str,
                predicate: str = "", rank: int = 0) -> TcpChannel:
        """A data channel bound to the stream.  ``channel.grant`` (a writer's
        GRANT record, or None) and ``channel.stats`` (the broker asked for
        block bounds) live and die with this connection, like the daemon's."""
        channel = TcpChannel.connect(
            self.host, self.data_port, monitor=self.monitor,
            injector=self.faults, timeout=self.timeout,
        )
        try:
            channel.sendv([encode_frame(MsgType.ATTACH, {
                "session": self.session_id, "stream_id": stream_id, "role": role,
                "predicate": predicate, "nonce": self._nonce, "rank": rank,
            }, seq=next(self._frame_seq))], timeout=self.timeout)
            frame = decode_frame(channel.recv(timeout=self.timeout))
        except (TransportFault, ProtocolError, OSError):
            # A half-attached socket is a leak: the daemon holds the
            # accept side until its idle reaper fires, and the client
            # would dial a fresh one on retry anyway.
            channel.close()
            raise
        if frame.msg_type not in (MsgType.OK, MsgType.GRANT):
            channel.close()
            raise_wire_error(frame, "ATTACH")
        _note_reply(channel, frame)
        return channel

    def _attach_retrying(self, stream_id: str, role: str,
                         predicate: str = "", rank: int = 0) -> TcpChannel:
        """A first ATTACH of a data channel, under the same reconnect
        schedule every later re-ATTACH runs under."""
        return self._retry_exhausted(
            lambda: self._attach(stream_id, role, predicate=predicate, rank=rank),
            f"ATTACH {stream_id}", on_retry=self._reconnect,
        )

    def _reattach(self, attempt: int, exc: Exception, stream_id: str,
                  role: str, old: TcpChannel,
                  predicate: str = "", rank: int = 0) -> TcpChannel:
        """Data-path recovery: reconnect the control session (fresh
        socket + resume HELLO), then re-ATTACH the data channel."""
        try:
            old.close()
        except (TransportFault, OSError):
            pass
        self._reconnect(attempt, exc)
        return self._attach(stream_id, role, predicate=predicate, rank=rank)

    def close(self) -> None:
        """Close every handle this session opened, then the session."""
        if self._closed:
            return
        self._closed = True
        handles, self._handles = self._handles, []
        for handle in handles:
            try:
                handle.close()
            except (TransportFault, ProtocolError, DirectoryError):
                pass  # a writer whose daemon is gone: the session goes anyway
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
            self._hb_thread = None
        if self._control is not None:
            try:
                self._control.sendv(
                    [encode_frame(MsgType.BYE, {"reason": "client close"},
                                  seq=next(self._frame_seq))],
                    timeout=self.timeout,
                )
            except TransportFault:
                pass  # daemon already gone: nothing to say goodbye to
            self._control.close()
        flight.record(EV_NET_DISCONNECT, tenant=self.tenant)

    def _handle_closed(self, handle) -> None:
        if handle in self._handles:
            self._handles.remove(handle)
        if self._solo and not self._closed:
            self.close()


# ---------------------------------------------------------------------------
# Network step handles
# ---------------------------------------------------------------------------

def _note_reply(channel: TcpChannel, frame: Frame) -> None:
    """A writer's latest positive reply: what its connection holds, and owes."""
    channel.grant = frame.record if frame.msg_type is MsgType.GRANT else None
    channel.stats = bool(frame.record["stats"])


def _var_record(wv: WrittenVar, rank: int, stats: bool) -> dict:
    """One written block as its ``net.var`` record.  Bounds are stamped
    (the ADIOS per-block statistics idiom) only while the broker asks for
    them — a reader prunes against them; unasked, the same bytes say no
    stats."""
    arr = np.ascontiguousarray(wv.data)
    bounds = block_bounds(arr) if stats else None
    vmin, vmax = bounds or (0.0, 0.0)
    return {
        "name": wv.name, "writer_rank": rank,
        "start": list(wv.box.start) if wv.box is not None else [],
        "shape": list(arr.shape),
        "gshape": list(wv.global_shape) if wv.global_shape is not None else [],
        "vmin": vmin, "vmax": vmax, "has_stats": bounds is not None, "data": arr,
    }


def _written(rec: dict) -> WrittenVar:
    """A ``net.var`` record as the block the writer wrote."""
    box = BoundingBox(tuple(rec["start"]), tuple(rec["shape"])) if rec["start"] else None
    return WrittenVar(rec["name"], rec["data"], box, tuple(rec["gshape"]) or None)


class _RunLink:
    """One writer rank's end of the daemon's run: its data connection.

    The run — its steps and the :class:`~repro.adios.api.StepBarrier`
    that ends them — is the daemon's ``HostedStream``; this is what the
    rank handle drives in its place.  ``write`` keeps the rank's blocks of
    its open step, ``end_rank_step`` sends them as one PUBLISH (the
    header, then one ``net.var`` message per block, or a slot reference)
    and waits for the acknowledgement, ``writer_close`` sends the last one
    with ``eos``.  Resume, republish and the publish sequence are this
    connection's: the daemon suppresses any republished ``seq`` it has
    already applied, so a retried PUBLISH (lost ack) never lands twice.
    """

    def __init__(self, client: RemoteClient, stream_id: str,
                 channel: TcpChannel, name: str) -> None:
        self._client = client
        self.stream_id = stream_id
        self.name = name
        self._channel = channel
        self._step = 0
        self._publish_seq = 0
        #: The rank's blocks of its open step, as ``net.var`` records.
        self._records: list[dict] = []
        self._pool = None  # the pool generation this rank has mapped (_slot)
        #: Writer-side plug-in chain: codelets deployed here condition
        #: the rank's step before it leaves the client (the paper's
        #: writer-placed analytics for the network deployment shape), by
        #: the same :meth:`~repro.core.plugins.PluginManager.condition` an
        #: in-process stream seals its steps with.
        self.plugins = PluginManager(client.monitor)

    def join(self, rank: int) -> None:
        """Nothing to do: the rank joined the run at its OPEN."""

    def write(self, rank: int, wv: WrittenVar) -> None:
        self._records.append(_var_record(wv, rank, self._channel.stats))

    def _publish_once(self, record: dict, run: list) -> None:
        seq = next(self._client._frame_seq)
        nbytes = sum(part.nbytes for part in run)
        grant = self._channel.grant
        if grant is not None and INLINE_MAX < nbytes <= grant["capacity"]:
            # Same node, bulk run: the bytes ``sendv`` would have gathered
            # go into the granted slot, the frame says where they are.
            np.concatenate([as_byte_view(part) for part in run], out=_slot(
                self, grant["pool"], int(grant["offset"]), nbytes, write=True))
            parts = [encode_frame(MsgType.PUBLISH_REF, {
                **record, "pool": grant["pool"], "offset": grant["offset"],
                "nbytes": nbytes}, seq=seq)]
        else:
            parts = [encode_frame(MsgType.PUBLISH, record, seq=seq), *run]
        self._channel.sendv(parts, timeout=self._client.timeout)
        frame = decode_frame(self._channel.recv(timeout=self._client.timeout))
        if frame.msg_type not in (MsgType.OK, MsgType.GRANT):
            raise_wire_error(frame, f"PUBLISH step {record['step']}")
        _note_reply(self._channel, frame)

    def end_rank_step(self, rank: int) -> None:
        self._publish(rank, eos=False)

    def _publish(self, rank: int, eos: bool) -> None:
        records = self._records  # kept until acknowledged: a refused step is sent again
        if self.plugins.has_side(PluginSide.WRITER):
            # The chain's outputs are sent (and stamped) in the blocks' place.
            records = [_var_record(wv, rank, self._channel.stats)
                       for wv in self.plugins.condition(map(_written, records))]
        # Per block: head span, then the array itself.
        run = [part for rec in records for part in encode_var(rec)]
        seq = self._publish_seq + 1
        record = {"step": self._step, "count": len(records), "eos": eos, "seq": seq}

        def reattach(attempt: int, exc: Exception) -> None:
            self._channel = self._client._reattach(
                attempt, exc, self.stream_id, "w", self._channel, rank=rank
            )

        self._client._retry_exhausted(
            lambda: self._publish_once(record, run),
            f"PUBLISH step {self._step}", on_retry=reattach,
        )
        self._publish_seq = seq
        self._records = []
        self._step += 1

    def writer_close(self, rank: int) -> None:
        """The rank's last PUBLISH (its unended blocks, if any) says it
        closes; the daemon's barrier does the rest."""
        self._client._hb_streams.discard(self.name)
        try:
            self._publish(rank, eos=True)
        finally:
            self._channel.close()


class NetWriteHandle(WriteHandle):
    """Writer side of one remote stream: one rank of the daemon's run.

    The shared rank handle over a :class:`_RunLink` — one data connection
    per writer rank.  ``end_step`` publishes the rank's blocks as one
    vectored frame (no client-side join) and waits for the broker's
    acknowledgement: a quota rejection surfaces as the typed
    :class:`~repro.core.directory.QuotaExceeded` right at the step
    boundary that exceeded it.  The step ends when every rank of the run
    has ended it, by the daemon's :class:`~repro.adios.api.StepBarrier`.
    """

    def __init__(self, link: _RunLink, ctx: RankContext) -> None:
        super().__init__(link, ctx)
        self.stream_id = link.stream_id
        self.name = link.name
        self.plugins = link.plugins

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._run._client._handle_closed(self)


class _CachedStep(BlockSource):
    """One fetched step: var records + the span every array in them views.

    The wire-side block source of :class:`~repro.core.reader.StepReader`.
    The span is an inline STEP_DATA's receive array (this step's own), or,
    for a step fetched by reference, the daemon's pool slot itself, mapped
    read-only — still only until the reader's pin ends: before that,
    :meth:`NetReadHandle._release` drops the step or has it :meth:`own`
    its bytes.
    """

    __slots__ = ("step", "vars", "_wb", "may_be_pruned", "block_index")

    #: The publish span does not cross the wire yet: reads root (or
    #: join the caller's current) trace on the client.
    trace_ctx = CURRENT

    def __init__(self, step: int, count: int, wb, offset: int,
                 may_be_pruned: bool = False) -> None:
        self.step = step
        #: Fetched over a channel ATTACHed with a predicate: blocks the
        #: reader's chain provably drops may be missing.
        self.may_be_pruned = may_be_pruned
        self._wb = wb  # kept alive: every array below views into it
        self.vars: list[dict] = []
        self.block_index: dict = {}  # no index outlives the bytes it views
        for _ in range(count):
            rec, offset = decode_var(wb, offset)
            self.vars.append(rec)

    def own(self) -> None:
        """Stop viewing the slot: copy the run out and re-point every
        decoded array, and the block index, at the copy by offset."""
        base, self._wb, moved = self._wb.ctypes.data, self._wb.copy(), {}
        for rec in self.vars:
            data, at = rec["data"], rec["data"].ctypes.data - base
            rec["data"] = moved[id(data)] = (
                self._wb[at:at + data.nbytes].view(data.dtype).reshape(data.shape))
        self.block_index = {name: (boxes, [moved[id(d)] for d in datas], *rest)
                            for name, (boxes, datas, *rest) in self.block_index.items()}

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.vars:
            seen.setdefault(rec["name"], None)
        return list(seen)

    def var_blocks(self, name: str):
        for rec in self.vars:
            if rec["name"] == name:
                data = rec["data"]
                yield (
                    BoundingBox(tuple(rec["start"]), tuple(data.shape))
                    if rec["start"] else None,
                    tuple(rec["gshape"]) or None,
                    data,
                )

    def writer_record(self, rank: int) -> Optional[dict]:
        record: dict = {}
        for rec in self.vars:
            if int(rec["writer_rank"]) == rank:
                # A remote writer may publish several blocks of one
                # name; read_block serves its first.
                record.setdefault(rec["name"], rec["data"])
        return record or None


class NetReadHandle(StepReader):
    """Reader side of one remote stream: FETCH, then the shared reader.

    A timed ``begin_step`` waits at the broker, not in a poll: each
    FETCH carries how long the daemon may hold it (what is left of the
    deadline, under the session's recv timeout), and is answered when
    the step is published, the stream ends or fails, the daemon drains,
    or the hold runs out (NOT_READY maps to
    :attr:`~repro.adios.api.StepStatus.NotReady`, EOS to
    :attr:`~repro.adios.api.StepStatus.EndOfStream`, an evicted step or
    a failed stream to :attr:`~repro.adios.api.StepStatus.OtherError`,
    exactly as the in-process plane types them); every read runs
    :class:`~repro.core.reader.StepReader`'s one read path over the
    fetched frame's wire views, so MxN redistribution, plan caching,
    fused chains, ``read_into``/``read_all`` and the read spans work
    across the network hop exactly as they do in process.  This class
    owns only step movement: FETCH, reattach, predicate sync.
    """

    def __init__(self, client: RemoteClient, stream_id: str,
                 channel: TcpChannel, name: str = "",
                 pushdown: bool = False) -> None:
        self._client = client
        self.stream_id = stream_id
        self.name = name or stream_id.rsplit("/", 1)[-1]
        self._channel = channel
        self._cache: dict[int, _CachedStep] = {}
        self._closed = False
        self._pool = None  # the pool generation this handle has mapped (_slot)
        #: The one step viewing a pinned slot, with its sanitizer digest.
        self._held: Optional[tuple[_CachedStep, Optional[int]]] = None
        self._san = sanitize.get()  # captured: one None check when disabled
        #: Reader-side plug-in chain: compilable chains run fused per
        #: block (single pass, no assembled intermediate); free-form
        #: codelets keep the interpreted scatter-then-apply path.
        self.plugins = PluginManager(client.monitor)
        #: The client session's monitor (enable tracing / dump here).
        self.monitor = client.monitor
        #: Compiled plans, replayed from the second step on (what
        #: ``caching=local`` selects in process).
        self._plans = PlanCache(maxsize=64)
        self._pushdown = bool(pushdown)
        #: Predicate spec the current data channel ATTACHed with; the
        #: channel is re-ATTACHed whenever the chain's predicate changes.
        self._attached_pred = ""

    # -- step movement -----------------------------------------------------
    def _fetch_once(self, step: int) -> _CachedStep:
        timeout = self._client.timeout
        # Per attempt: a FETCH replayed after a reconnect, a drain or a
        # restore — or re-sent after NOT_READY — carries what is left of
        # the deadline.  Untimed probes (no deadline) are not held.
        wait = 0.0 if self._deadline is None else max(0.0, min(
            self._deadline - time.monotonic(), timeout * FETCH_HOLD_FRACTION))
        self.monitor.metrics.counter(M_NET_FETCHES).inc()
        self._channel.sendv(
            [encode_frame(MsgType.FETCH, {"step": step, "wait": wait},
                          seq=next(self._client._frame_seq))],
            timeout=timeout,
        )
        # The dead-daemon bound; the hold above always ends inside it.
        wb = self._channel.recv(timeout=timeout)
        frame = decode_frame(wb)
        rec, offset = frame.record, frame.consumed
        borrowed = frame.msg_type is MsgType.STEP_REF
        if borrowed:
            # Read where it lies: reads scatter out of the slot into arrays
            # the caller owns, and the slot is this reader's while ``_held``.
            wb, offset = _slot(self, rec["pool"], int(rec["offset"]),
                               int(rec["nbytes"]), write=False), 0
        elif frame.msg_type is not MsgType.STEP_DATA:
            raise_wire_error(frame, f"step {step} of {self.stream_id!r}")
        got = _CachedStep(
            step, int(rec["count"]), wb, offset,
            may_be_pruned=bool(self._attached_pred),
        )
        if borrowed:
            self._held = got, None if self._san is None else self._san.lend(wb)
        # Retain only the current neighborhood; old steps are gone.
        self._cache = {k: v for k, v in self._cache.items() if k >= step - 1}
        self._cache[step] = got
        return got

    def _fetch(self, step: int) -> _CachedStep:
        cached = self._cache.get(step)
        if cached is not None:
            return cached
        self._release(own=True)  # all below ends the pin: re-ATTACH, FETCH, reattach
        self._sync_predicate()

        def reattach(attempt: int, exc: Exception) -> None:
            self._channel = self._client._reattach(
                attempt, exc, self.stream_id, "r", self._channel,
                predicate=self._attached_pred,
            )

        return self._client._retry_exhausted(
            lambda: self._fetch_once(step),
            f"FETCH step {step}", on_retry=reattach,
        )

    def _release(self, own: bool = False) -> None:
        """The client half of the slot lifetime rule (the daemon's half is
        on ``HostedStream.grant``): a step fetched by reference views its
        slot only while the daemon pins it to this connection.
        ``end_step()`` releases it (dropped from the cache; the broker
        retains it, so reading that index again re-FETCHes); whatever this
        handle does that ends the pin — the next FETCH, a re-ATTACH,
        ``close()`` — or that hands a block out whole first makes the
        step ``own`` its bytes."""
        if self._held is None:
            return
        (got, digest), self._held = self._held, None
        if digest is not None:
            self._san.check_lent(sanitize.NET_SLOT_MUTATED,
                                 f"{self.stream_id}#{got.step} (reader)", digest, got._wb)
        if own:
            got.own()
            self.monitor.metrics.counter(M_NET_STEPS_COPIED_OUT).inc()
        else:
            self._cache.pop(got.step, None)

    def read_block(self, name: str, writer_rank: int) -> np.ndarray:
        self._source()
        self._release(own=True)
        return super().read_block(name, writer_rank)

    # -- predicate pushdown ------------------------------------------------
    def _sync_predicate(self) -> None:
        """Keep the broker's view of this reader's predicate current.

        The chain can change between steps (deploy/undeploy), and the
        predicate rides the ATTACH frame — so a change re-ATTACHes the
        data channel with the new spec before the next FETCH."""
        spec = self._pred_spec() if self._pushdown else ""
        if spec == self._attached_pred:
            return
        channel = self._client._attach_retrying(self.stream_id, "r", predicate=spec)
        old, self._channel = self._channel, channel
        self._attached_pred = spec
        try:
            old.close()
        except (TransportFault, OSError):
            pass

    def _step_at(self, index: int) -> _CachedStep:
        return self._fetch(index)

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._release(own=True)
        self._client._hb_streams.discard(self.name)
        self._channel.close()
        self._client._handle_closed(self)


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------

def connect(
    uri: str,
    *,
    token: Optional[str] = None,
    config=None,
    machine=None,
    params: str = "",
    client_name: str = "",
    timeout: float = 5.0,
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    faults: Optional[TransportFaultInjector] = None,
    heartbeat_interval: float = 0.0,
) -> Client:
    """Connect to a FlexIO service and return a :class:`Client`.

    ``local://`` builds an in-process :class:`LocalClient` (``config``,
    ``machine`` and ``params`` configure it); ``flexio://host:port/tenant``
    dials a directory daemon and authenticates with the bearer
    ``token``, returning a :class:`RemoteClient` session.

    Remote resilience knobs: ``retry`` bounds the reconnect loop every
    RPC and data exchange runs under (``seed`` feeds its jitter),
    ``heartbeat_interval`` > 0 starts a background thread that beats
    every open stream, and ``faults`` installs a seeded injector on the
    data channels for chaos runs.
    """
    parsed = parse_flexio_uri(uri)
    if parsed.scheme == "local":
        return LocalClient(config=config, machine=machine, params=params)
    return RemoteClient(
        parsed.host, parsed.port, parsed.tenant,
        token=token, client_name=client_name, timeout=timeout,
        retry=retry, seed=seed, faults=faults,
        heartbeat_interval=heartbeat_interval,
    )


class StagingMethod(IoMethod):
    """The staging placement, selected by a ``<method>`` line.

    ``daemon=host:port;tenant=name`` (:mod:`repro.core.hints`) names the
    daemon and the tenant, and the bearer token comes from the
    ``FLEXIO_TOKEN`` environment variable.  Each rank's handle is opened
    on a session of its own, which closes with it;
    ``connect("flexio://host:port/tenant").open(...)`` opens the same
    handles on a session the caller holds.
    """

    @staticmethod
    def _open(name: str, mode: str, ctx: RankContext, spec) -> Any:
        session = connect(f"flexio://{spec.param(DAEMON, '')}/{spec.param(TENANT, '')}",
                          token=os.environ.get(TOKEN_ENV))
        try:
            handle = session.open(name, mode, rank=ctx.rank, num_ranks=ctx.size)
        except (TransportFault, ProtocolError, DirectoryError):
            session.close()
            raise
        session._solo = True
        return handle

    def open_write(self, name, group, ctx, spec):
        return self._open(name, "w", ctx, spec)

    def open_read(self, name, group, ctx, spec):
        return self._open(name, "r", ctx, spec)


register_method("STAGING", StagingMethod)
