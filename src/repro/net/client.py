"""``connect("flexio://host:port/tenant")``: the client of the FlexIO service.

``connect(uri, token=...)`` opens a :class:`RemoteClient` session
against a running :class:`~repro.net.server.DirectoryDaemon` (the
in-process ``local://`` service is :func:`repro.connect`'s other
branch).  The control socket authenticates the tenant (HELLO → WELCOME)
and opens named streams; each open dials the daemon's data port through
a :class:`~repro.transport.tcp.TcpChannel` (a :class:`_DataLink`) and
exchanges steps with the store-and-forward broker (PUBLISH / FETCH
frames).  Every request, on either port, is one :func:`_exchange`.
Admission rejections — bad token, unknown tenant, quota exceeded — come
back as the *same* typed :class:`~repro.core.directory.AdmissionError`
values the daemon raised, rebuilt from the wire kind.

The handles subclass the :class:`~repro.adios.api.WriteHandle` /
:class:`~repro.adios.api.ReadHandle` ABCs, so application step loops are
identical in-process and over the network::

    import repro as flexio

    with flexio.connect("flexio://127.0.0.1:7700/acme", token="s3cret") as c:
        with c.open("gts.stream", "w") as w:
            w.begin_step()
            w.write("temperature", field, box=box, global_shape=shape)
            w.end_step()
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, NoReturn, Optional
from urllib.parse import urlsplit

import numpy as np

from repro.adios.api import (
    IoMethod, RankContext, StepLost, WriteHandle, condition, register_method,
)
from repro.adios.model import WrittenVar
from repro.adios.selection import BoundingBox
from repro.core.api import Client
from repro.core.directory import DirectoryError, admission_exception
from repro.core.hints import DAEMON, TENANT, TOKEN_ENV
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import CodeletError, DCPlugin, PluginManager, PluginSide
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
    if kind == "codelet":  # a chain change the run's chain refused
        raise CodeletError(message)
    raise NetError(kind, message)


def _exchange(channel: TcpChannel, parts: list, timeout: float,
              expect: tuple[MsgType, ...], where: str) -> tuple[Frame, Any]:
    """One request on ``channel``: send its ``parts``, receive the reply
    and decode it.  Returns the frame and the receive buffer its body
    views when its type is one of ``expect``; any other reply raises as
    :func:`raise_wire_error` types it (``where`` names the request).  The
    client decodes a frame nowhere else."""
    channel.sendv(parts, timeout=timeout)
    wb = channel.recv(timeout=timeout)
    frame = decode_frame(wb)
    if frame.msg_type not in expect:
        raise_wire_error(frame, where)
    return frame, wb


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
        #: The stream handles this session opened and has not seen close,
        #: by what reports their close (a reader, a writer's run link):
        #: its close closes them.  A session a staging ``<method>`` line
        #: opened for one handle (``_solo``) closes with that handle.
        self._handles: dict = {}
        self._solo = False
        #: Stream name -> this session's mirror of its run's chain.
        self._chains: dict[str, _RunChain] = {}
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
        frame = encode_frame(msg_type, record, seq=next(self._frame_seq))
        return _exchange(self._control, [frame], self.timeout, (expect,), msg_type.name)[0]

    def _rpc(self, msg_type: MsgType, record: dict, expect: MsgType) -> Frame:
        if self._closed:
            raise PeerDisconnected("rpc on closed client session")
        with self._lock:
            return self._retry_exhausted(
                lambda: self._rpc_once(msg_type, record, expect),
                msg_type.name, on_retry=self._reconnect,
            )

    # -- liveness ----------------------------------------------------------
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
        link = _DataLink(self, reply.record["stream_id"], mode, rank, pushdown)
        self._hb_streams.add(name)
        flight.record(EV_NET_STREAM_OPEN, stream=link.stream_id, mode=mode,
                      tenant=self.tenant)
        if mode == "w":
            run = _RunLink(link, name)
            self._handles[run] = handle = NetWriteHandle(run, RankContext(rank, num_ranks))
        else:
            handle = NetReadHandle(link, name)
            self._handles[handle] = handle
        return handle

    def _chain(self, name: str) -> "_RunChain":
        """This session's mirror of the chain of the run ``name`` opens."""
        chain = self._chains.get(name)
        if chain is None:
            chain = self._chains[name] = _RunChain(self, name)
        return chain

    def close(self) -> None:
        """Close every handle this session opened, then the session."""
        if self._closed:
            return
        self._closed = True
        handles, self._handles = self._handles, {}
        for handle in handles.values():
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

    def _handle_closed(self, closer) -> None:
        self._handles.pop(closer, None)
        if self._solo and not self._closed:
            self.close()


# ---------------------------------------------------------------------------
# Network step handles
# ---------------------------------------------------------------------------

#: The positive replies to a data connection's ATTACH or PUBLISH.
_ACKS = (MsgType.OK, MsgType.GRANT)
#: The replies to a FETCH that carry the step.
_STEPS = (MsgType.STEP_DATA, MsgType.STEP_REF)


class _RunChain(PluginManager):
    """This session's mirror of one daemon run's chain, the ``plugins`` of
    every handle it opens on the stream (DESIGN §13, "The run's chain").

    A deploy, undeploy or migrate is one CHAIN request, and the reply —
    the whole chain and its generation — is loaded; codelets the mirror
    holds keep their objects (and stats).  A data connection ATTACHes
    with the mirror's generation, and the daemon refuses its next request
    ``stale_chain`` once the run's has moved on: :meth:`refresh` then
    loads the chain the run has now.
    """

    def __init__(self, client: RemoteClient, name: str) -> None:
        super().__init__(client.monitor)
        self._client = client
        self.name = name
        # A request and the loading of its reply are one: the mirror
        # never goes back to an older reply than it has loaded.
        self._lock = threading.Lock()

    def refresh(self) -> None:
        self._request("get")

    def deploy(self, plugin: DCPlugin, side: PluginSide = PluginSide.READER) -> DCPlugin:
        self._request("deploy", plugin, **{**plugin.spec(), "side": side.value})
        return plugin

    def undeploy(self, name: str) -> DCPlugin:
        plugin = next((p for p in self._chain if p.name == name), None)
        self._request("undeploy", name=name)
        return plugin

    def migrate(self, name: str, to_side: PluginSide) -> DCPlugin:
        self._request("migrate", name=name, side=to_side.value)
        return next(p for p in self._chain if p.name == name)

    def _request(self, op: str, new: Optional[DCPlugin] = None, **fields: str) -> None:
        with self._lock:
            reply = self._client._rpc(MsgType.CHAIN, {
                "stream": self.name, "op": op, "name": "", "side": "", "source": "",
                "fingerprint": "", **fields}, MsgType.CHAIN_REPLY).record
            held = {p.name: p for p in [*self._chain, new] if p is not None}
            chain = []
            for spec in json.loads(reply["chain"]):
                plugin = held.get(spec["name"])
                if plugin is None or {**plugin.spec(), "side": spec["side"]} != spec:
                    plugin = DCPlugin.from_spec(spec)
                plugin.side = PluginSide(spec["side"])
                chain.append(plugin)
            # Whole, and the chain before its generation: a handle that
            # reads a generation finds at least that chain.
            self._chain = chain
            self.conditions = self.has_side(PluginSide.WRITER)
            self.generation = int(reply["generation"])


class _DataLink:
    """One data connection of one stream, and the one way a request runs
    on it.

    The link ATTACHes under the session's retry schedule, and :meth:`run`
    runs every later request under it too: a retriable fault reconnects
    the session (fresh control socket, resume HELLO) and re-ATTACHes the
    link on a fresh data socket before the next attempt — the socket may
    be desynced, so no retry reuses it.  What the latest positive reply
    said lives and dies with the connection, like the daemon's half:
    ``grant`` (a writer's GRANT record, or None) and ``stats`` (the broker
    asks for block bounds); ``pool`` is the pool generation the link's
    slots are mapped from.  ``chain`` is the session's mirror of the
    run's chain, which :meth:`run_synced` keeps up with the daemon's.
    """

    def __init__(self, client: RemoteClient, stream_id: str, role: str,
                 rank: int = 0, pushdown: bool = False) -> None:
        self.client = client
        self.stream_id = stream_id
        self.role = role
        self.rank = rank
        self.chain = client._chain(stream_id.split("/", 1)[-1])
        self.pushdown = pushdown
        self.channel: Optional[TcpChannel] = None
        self.grant: Optional[dict] = None
        self.stats = False
        self.pool = None
        client._retry_exhausted(self._attach, f"ATTACH {stream_id}",
                                on_retry=client._reconnect)

    def _attach(self) -> None:
        c = self.client
        channel = TcpChannel.connect(c.host, c.data_port, monitor=c.monitor,
                                     injector=c.faults, timeout=c.timeout)
        try:
            self._ack(_exchange(channel, [encode_frame(MsgType.ATTACH, {
                "session": c.session_id, "stream_id": self.stream_id,
                "role": self.role, "pushdown": self.pushdown,
                "chain": self.chain.generation, "nonce": c._nonce, "rank": self.rank,
            }, seq=next(c._frame_seq))], c.timeout, _ACKS, "ATTACH")[0])
            self.channel, channel = channel, None
        finally:
            if channel is not None:
                # A half-attached socket is a leak: the daemon holds the
                # accept side until its idle reaper fires.
                channel.close()

    def _ack(self, frame: Frame) -> None:
        self.grant = frame.record if frame.msg_type is MsgType.GRANT else None
        self.stats = bool(frame.record["stats"])

    def _recover(self, attempt: int, exc: Exception) -> None:
        self.channel.close()
        self.client._reconnect(attempt, exc)
        self._attach()

    def run(self, attempt: Callable[[], Any], where: str) -> Any:
        """``attempt()`` — one try of a request, through :meth:`exchange` —
        under the session's retry schedule; exhaustion is
        :class:`SessionLost`."""
        return self.client._retry_exhausted(attempt, where, on_retry=self._recover)

    def run_synced(self, attempt: Callable[[], Any], where: str) -> Any:
        """:meth:`run` ``attempt()`` — which reads the mirror ``chain`` —
        under the run's chain: a ``stale_chain`` refusal refreshes the
        mirror and tries again, as often as the retry schedule has
        attempts (the chain may move again meanwhile); then it raises."""
        for left in range(self.client.retry.max_retries, -1, -1):
            try:
                return self.run(attempt, where)
            except NetError as exc:
                if exc.error_kind != "stale_chain" or not left:
                    raise
                self.chain.refresh()

    def exchange(self, parts: list, expect: tuple[MsgType, ...],
                 where: str) -> tuple[Frame, Any]:
        """One :func:`_exchange` on the link's channel; a positive reply
        is noted."""
        frame, wb = _exchange(self.channel, parts, self.client.timeout, expect, where)
        if frame.msg_type in _ACKS:
            self._ack(frame)
        return frame, wb

    def slot(self, name: str, offset: int, nbytes: int, write: bool) -> np.ndarray:
        """``nbytes`` at ``offset`` of arena ``name``, through the
        session's one mapping of that generation (kept alive by the links
        using it; ``PROT_READ`` unless a writer asked first).  An arena
        that is gone means its daemon is: :class:`PeerDisconnected`,
        retriable."""
        mapped = self.client._pools.get(name)
        if mapped is None or (write and not mapped.flags.writeable):
            try:
                mapped = self.client._pools[name] = ShmArena.map(name, write)
            except ValueError as exc:  # a name no daemon arena has
                raise ProtocolError(str(exc)) from None
        self.pool = mapped
        if not 0 <= offset <= offset + nbytes <= mapped.nbytes:
            raise ProtocolError(f"slot {offset}+{nbytes} outside pool {name}")
        return mapped[offset:offset + nbytes]

    def close(self) -> None:
        self.channel.close()


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


class _RunLink:
    """One writer rank's end of the daemon's run, over its :class:`_DataLink`.

    The run is the daemon's ``HostedStream``; this is what the rank
    handle drives in its place.  ``write`` keeps the rank's blocks of its
    open step, ``end_rank_step`` conditions them (:func:`condition`) and
    sends them as one PUBLISH (the header, then one ``net.var`` message
    per block, or a slot reference), ``writer_close`` sends the last one
    with ``eos``.  The publish sequence is this rank's: the daemon
    suppresses any republished ``seq`` it has already applied, so a
    retried PUBLISH (lost ack) never lands twice.  The blocks are
    conditioned under the session's mirror of the run's chain on every
    attempt, so one refused as made under a moved chain is made again
    under the run's (:meth:`_DataLink.run_synced`).
    """

    def __init__(self, link: _DataLink, name: str) -> None:
        self._link = link
        self.stream_id = link.stream_id
        self.name = name
        self._step = 0
        self._publish_seq = 0
        #: The rank's blocks of its open step.
        self._blocks: list[WrittenVar] = []
        #: The run's chain, as this session mirrors it.
        self.plugins = link.chain
        self.monitor = link.client.monitor

    def join(self, rank: int) -> None:
        """Nothing to do: the rank joined the run at its OPEN."""

    def write(self, rank: int, wv: WrittenVar) -> None:
        self._blocks.append(wv)

    def _publish_once(self, rank: int, record: dict) -> None:
        link = self._link
        records = [_var_record(wv, rank, link.stats)
                   for wv in condition(self.plugins, self._blocks)]
        # Per block: head span, then the array itself.
        run = [part for rec in records for part in encode_var(rec)]
        record = {**record, "count": len(records)}
        seq = next(link.client._frame_seq)
        nbytes = sum(part.nbytes for part in run)
        grant = link.grant
        if grant is not None and INLINE_MAX < nbytes <= grant["capacity"]:
            # Same node, bulk run: the bytes ``sendv`` would have gathered
            # go into the granted slot, the frame says where they are.
            np.concatenate([as_byte_view(part) for part in run], out=link.slot(
                grant["pool"], int(grant["offset"]), nbytes, write=True))
            parts = [encode_frame(MsgType.PUBLISH_REF, {
                **record, "pool": grant["pool"], "offset": grant["offset"],
                "nbytes": nbytes}, seq=seq)]
        else:
            parts = [encode_frame(MsgType.PUBLISH, record, seq=seq), *run]
        link.exchange(parts, _ACKS, f"PUBLISH step {record['step']}")

    def end_rank_step(self, rank: int) -> None:
        self._publish(rank, eos=False)

    def _publish(self, rank: int, eos: bool) -> None:
        # The blocks are kept until acknowledged: a refused step is sent again.
        record = {"step": self._step, "eos": eos, "seq": self._publish_seq + 1}
        self._link.run_synced(lambda: self._publish_once(rank, record),
                              f"PUBLISH step {self._step}")
        self._publish_seq = record["seq"]
        self._blocks = []
        self._step += 1

    def writer_close(self, rank: int) -> None:
        """The rank's last PUBLISH (its unended blocks, if any) says it
        closes; the daemon's barrier does the rest."""
        client = self._link.client
        client._hb_streams.discard(self.name)
        try:
            self._publish(rank, eos=True)
        finally:
            self._link.close()
            client._handle_closed(self)


class NetWriteHandle(WriteHandle):
    """One rank of the daemon's run: the shared rank handle over its
    :class:`_RunLink`.  ``end_step`` waits for the broker's
    acknowledgement, so a quota rejection surfaces as the typed
    :class:`~repro.core.directory.QuotaExceeded` at the step boundary
    that exceeded it."""


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
                 may_be_pruned: int = 0) -> None:
        self.step = step
        #: The chain generation under which the daemon left out blocks the
        #: run's reader chain provably drops (0: none).
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

    def writer_record(self, rank: int, name: Optional[str] = None) -> Optional[dict]:
        record: dict = {}
        for rec in self.vars:
            if int(rec["writer_rank"]) == rank and name in (None, rec["name"]):
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
    owns only step movement over its :class:`_DataLink`: FETCH, the step
    cache and pin.  ``plugins`` is the run's chain as the session mirrors
    it: the daemon serves no step to a connection whose mirror it knows
    to be behind the run's chain.
    """

    def __init__(self, link: _DataLink, name: str) -> None:
        self._link = link
        self.stream_id = link.stream_id
        self.name = name
        self._cache: dict[int, _CachedStep] = {}
        self._closed = False
        #: The one step viewing a pinned slot, with its sanitizer digest.
        self._held: Optional[tuple[_CachedStep, Optional[int]]] = None
        self._san = sanitize.get()  # captured: one None check when disabled
        #: The run's chain: compilable reader-side chains run fused per
        #: block (single pass, no assembled intermediate); free-form
        #: codelets keep the interpreted scatter-then-apply path.
        self.plugins = link.chain
        #: The client session's monitor (enable tracing / dump here).
        self.monitor = link.client.monitor
        #: Compiled plans, replayed from the second step on (what
        #: ``caching=local`` selects in process).
        self._plans = PlanCache(maxsize=64)

    # -- step movement -----------------------------------------------------
    def _fetch_once(self, step: int) -> _CachedStep:
        link = self._link
        # Per attempt: a FETCH replayed after a reconnect, a drain or a
        # restore — or re-sent after NOT_READY — carries what is left of
        # the deadline.  Untimed probes (no deadline) are not held; the
        # hold always ends inside the session's dead-daemon bound.
        wait = 0.0 if self._deadline is None else max(0.0, min(
            self._deadline - time.monotonic(), link.client.timeout * FETCH_HOLD_FRACTION))
        self.monitor.metrics.counter(M_NET_FETCHES).inc()
        frame, wb = link.exchange(
            [encode_frame(MsgType.FETCH, {"step": step, "wait": wait},
                          seq=next(link.client._frame_seq))],
            _STEPS, f"step {step} of {self.stream_id!r}")
        rec, offset = frame.record, frame.consumed
        borrowed = frame.msg_type is MsgType.STEP_REF
        if borrowed:
            # Read where it lies: reads scatter out of the slot into arrays
            # the caller owns, and the slot is this reader's while ``_held``.
            wb, offset = link.slot(rec["pool"], int(rec["offset"]),
                                   int(rec["nbytes"]), write=False), 0
        got = _CachedStep(step, int(rec["count"]), wb, offset, int(rec["pruned"]))
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
        self._release(own=True)  # all below ends the pin: the FETCH, a retry
        return self._link.run_synced(lambda: self._fetch_once(step), f"FETCH step {step}")

    def _release(self, own: bool = False) -> None:
        """The client half of the slot lifetime rule (the daemon's half is
        on ``HostedStream.grant``): a step fetched by reference views its
        slot only while the daemon pins it to this connection.
        ``end_step()`` releases it (dropped from the cache; the broker
        retains it, so reading that index again re-FETCHes); whatever this
        handle does that ends the pin — the next FETCH, a re-ATTACH after
        a fault, ``close()`` — or that hands a block out whole first makes the
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

    def _step_at(self, index: int) -> _CachedStep:
        got = self._fetch(index)
        if got.may_be_pruned and got.may_be_pruned != self.plugins.generation:
            # Its gaps are not the ones the run's chain leaves now.
            raise StepLost(f"step {index} of {self.stream_id!r} was pruned under "
                           f"chain generation {got.may_be_pruned}")
        return got

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._release(own=True)
        self._link.client._hb_streams.discard(self.name)
        self._link.close()
        self._link.client._handle_closed(self)


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------

def connect(
    uri: str,
    *,
    token: Optional[str] = None,
    client_name: str = "",
    timeout: float = 5.0,
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    faults: Optional[TransportFaultInjector] = None,
    heartbeat_interval: float = 0.0,
) -> RemoteClient:
    """Dial the directory daemon ``flexio://host:port/tenant`` names and
    authenticate with the bearer ``token``: a :class:`RemoteClient`
    session (``local://`` is :func:`repro.connect`'s).

    Remote resilience knobs: ``retry`` bounds the reconnect loop every
    RPC and data exchange runs under (``seed`` feeds its jitter),
    ``heartbeat_interval`` > 0 starts a background thread that beats
    every open stream, and ``faults`` installs a seeded injector on the
    data channels for chaos runs.
    """
    parsed = parse_flexio_uri(uri)
    if parsed.scheme != "flexio":
        raise ValueError(f"{uri!r} names no daemon; repro.connect opens local://")
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
