"""TCP inter-process transport: the rung that crosses a process boundary.

The SHM and RDMA channels simulate intra-node movement inside one
process; :class:`TcpChannel` is the first transport that crosses a real
OS boundary.  It implements the same
:class:`~repro.transport.buffers.Channel` ABC over a stream socket:

* **framing** — each message is a little-endian ``u64`` length prefix
  followed by the payload bytes; scatter-gather parts go out through
  ``socket.sendmsg`` so the producer never joins them into an
  intermediate ``bytes``;
* **delivery** — ``recv`` drives a :class:`FrameAssembler`, the one the
  daemon's connections drive too, and returns the next whole frame as a
  :class:`~repro.transport.buffers.WireBuffer` with the copies it took,
  reported into ``transport.copies`` like every other rung: a frame
  that fits ``SCRATCH`` arrives with its prefix in one ``recv_into`` and
  is copied out once (``COPIES_TCP + 1``), a larger one is received in
  place into its own array (``COPIES_TCP``).  A timed-out ``recv``
  keeps what it read: the next one resumes the frame;
* **faults** — socket timeouts surface as
  :class:`~repro.transport.faults.TransportTimeout`, resets and broken
  pipes as :class:`~repro.transport.faults.PeerDisconnected`, a length
  prefix the receiver will not honour as :class:`FrameRefused`, and a
  connection that dies mid-frame as
  :class:`~repro.transport.faults.TornSend`, so bounded-retry code
  treats TCP exactly like SHM and RDMA.  A seeded :class:`TransportFaultInjector` is consulted before
  each send for chaos runs.

Constructed without a socket the channel wraps a ``socket.socketpair``
— real kernel sockets, but loopback within one process (the channel
contract and the transport benches); :meth:`TcpChannel.connect` dials a
daemon's data port for the genuinely multi-process path.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Optional

import numpy as np

from repro.transport.buffers import (
    Channel,
    Ownership,
    WireBuffer,
    WireVector,
)
from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    TornSend,
    TransportFaultInjector,
    TransportTimeout,
)

__all__ = ["TcpChannel", "FrameAssembler", "FrameRefused",
           "COPIES_TCP", "FRAME_PREFIX", "INLINE_MAX", "SCRATCH"]

#: A TCP delivery pays at least two copies: producer memory → kernel
#: socket buffer, kernel socket buffer → the consumer's receive buffer.
COPIES_TCP = 2

#: Little-endian u64 payload-length prefix in front of every frame.
FRAME_PREFIX = struct.Struct("<Q")

#: Refuse absurd frame lengths before allocating (corrupt prefix guard).
MAX_FRAME = 1 << 34  # 16 GiB

#: The small/large split of the daemon's same-node rung (``ShmChannel``'s,
#: and the paper's): a step run up to this size stays in its frame, a
#: larger one may move through a shared-memory slot.  One loopback
#: segment; a slot's bookkeeping (≈ 0.08 ms) is repaid at ≈ 130 KB.
INLINE_MAX = 1 << 16

#: A receive scratch: any frame up to ``INLINE_MAX`` of body, header and
#: prefix included, arrives whole in it.
SCRATCH = INLINE_MAX + 4096

#: How long an injected DELAYED_FRAME holds the frame back.
DELAY_INJECT_S = 0.05

#: The injected kinds a send acts out on the socket (see ``_frame_fault``).
_ACTED_OUT = frozenset({
    FaultKind.TORN_FRAME, FaultKind.DROPPED_FRAME, FaultKind.DELAYED_FRAME,
    FaultKind.CONN_RESET, FaultKind.HALF_OPEN,
})


def unpace_loopback(sock: socket.socket) -> None:
    """A loopback peer has no path to probe, so take the socket off a
    pacing congestion control: under BBR a 2 MB frame leaves in timer-
    driven bursts, at a rate estimated from app-limited samples that came
    out anywhere from 26 to 520 Gbit/s from one connection to the next.
    Best effort: any other peer, platform or a refusing kernel keeps the
    system default."""
    try:
        peer = sock.getpeername()
        if isinstance(peer, tuple) and (peer[0].startswith("127.") or peer[0] == "::1"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_CONGESTION, b"reno")
    except (OSError, AttributeError):
        pass


def _set_timeout(sock: socket.socket, timeout: float) -> None:
    """``settimeout`` with the typed-fault mapping: on an already-dead
    socket it raises ``OSError``, which must not leak raw to callers.
    The socket remembers its timeout; re-arming it is an ``ioctl``, so an
    unchanged value is not set again."""
    try:
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)
    except OSError as exc:
        raise PeerDisconnected(f"tcp socket unusable: {exc}") from exc


class FrameRefused(PeerDisconnected):
    """A length prefix over ``MAX_FRAME``, or more than the allocator can
    give: refused before anything is allocated for it."""


class FrameAssembler:
    """Bytes in, whole frames out: no socket, no clock, no loop.

    Its caller receives into :meth:`buffer`, reports the bytes with
    :meth:`filled` and takes frames with :meth:`next_frame` until it is
    None — after which ``buffer()`` is never empty.  Bytes land in a
    ``SCRATCH`` buffer; every whole frame in it is copied out once.  A
    frame longer than the scratch gets its *own* ``np.empty(length)``:
    what was read of it is copied in, the rest lands in place, and that
    array is the frame.  A refused prefix raises :class:`FrameRefused`.
    """

    def __init__(self) -> None:
        self._scratch = np.empty(SCRATCH, dtype=np.uint8)
        self._body: Optional[np.ndarray] = None  # a large frame, its own array
        # Bytes land at ``_into[_end:]``: the scratch, unparsed from
        # ``_start`` on — or the large frame's array, ``_end`` bytes in.
        self._into = memoryview(self._scratch)
        self._start = self._end = 0

    def buffer(self) -> memoryview:
        """Where the next received bytes go."""
        return self._into[self._end:]

    def filled(self, nbytes: int) -> None:
        """``nbytes`` were received into :meth:`buffer`."""
        self._end += nbytes

    @property
    def full(self) -> bool:
        """No room left until frames are taken."""
        return self._end == len(self._into)

    @property
    def partial(self) -> bool:
        """Part of a frame is held (meaningful once ``next_frame()`` is None)."""
        return self._body is not None or self._end > self._start

    def next_frame(self) -> Optional[np.ndarray]:
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
            if FRAME_PREFIX.size + length > SCRATCH:
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
        if body is None:  # a prefix is a claim, not a fact
            raise FrameRefused(f"frame of {length} B refused")
        read = self._scratch[self._start + FRAME_PREFIX.size:self._end]
        body[:len(read)] = read
        self._body, self._into = body, memoryview(body)
        self._start, self._end = 0, len(read)


class TcpChannel(Channel):
    """One bidirectional stream-socket data channel.

    ``TcpChannel()`` (no socket) wraps a connected ``socketpair`` —
    sends land on one end and ``recv`` drains the other: one process is
    both ends.  ``TcpChannel(sock)`` adopts an
    already connected socket (daemon side / after ``connect``), where
    sends and receives share the one socket.
    """

    rung = "tcp"

    def __init__(
        self,
        sock: Optional[socket.socket] = None,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
    ) -> None:
        self.monitor = monitor
        self.injector = injector
        self._closed = False
        if sock is None:
            # Loopback rung: real kernel sockets, one process.
            self._send_sock, self._recv_sock = socket.socketpair()
        else:
            self._send_sock = self._recv_sock = sock
        self._frames = FrameAssembler()

    # ------------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        monitor=None,
        injector: Optional[TransportFaultInjector] = None,
        timeout: float = 5.0,
    ) -> "TcpChannel":
        """Dial a daemon's data port and wrap the connection."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"tcp connect to {host}:{port} timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(f"tcp connect to {host}:{port} failed: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            unpace_loopback(sock)
        except OSError as exc:
            # setsockopt can fail if the peer already reset the fresh
            # connection; without the close the descriptor leaks.
            sock.close()
            raise PeerDisconnected(
                f"tcp connect to {host}:{port} failed: {exc}"
            ) from exc
        return cls(sock, monitor=monitor, injector=injector)

    # -- producer ---------------------------------------------------------
    def _acts_out(self, kind: FaultKind, total: int) -> bool:
        """Torn, dropped and delayed frames, a reset and a half-open
        socket need real socket effects, not just an exception."""
        return kind in _ACTED_OUT

    def _abort_sockets(self) -> None:
        for sock in {self._send_sock, self._recv_sock}:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _transmit(self, vec: WireVector, total: int, timeout: float, sync: bool,
                  fault: Optional[FaultKind]) -> None:
        if self._closed:
            raise PeerDisconnected("send on closed TcpChannel")
        parts = [memoryview(FRAME_PREFIX.pack(total)), *map(memoryview, vec.views())]
        if fault is not None and self._frame_fault(fault, parts, total):
            return
        _set_timeout(self._send_sock, timeout)
        sent = 0
        frame_len = FRAME_PREFIX.size + total
        try:
            while parts:
                n = self._send_sock.sendmsg(parts)
                sent += n
                # Drop fully sent parts, trim a partially sent head.
                while parts and n >= len(parts[0]):
                    n -= len(parts[0])
                    parts.pop(0)
                if parts and n:
                    parts[0] = parts[0][n:]
        except socket.timeout as exc:
            raise TransportTimeout(
                f"tcp send timed out after {timeout}s ({sent}/{frame_len} B)"
            ) from exc
        except (ConnectionResetError, BrokenPipeError) as exc:
            if sent:
                raise TornSend(
                    f"tcp peer vanished after {sent}/{frame_len} B: {exc}"
                ) from exc
            raise PeerDisconnected(f"tcp peer vanished before send: {exc}") from exc
        except OSError as exc:
            raise PeerDisconnected(f"tcp send failed: {exc}") from exc

    def _frame_fault(self, kind: FaultKind, parts: list, total: int) -> bool:
        """Act out one injected frame fault; True when the frame is gone
        and the send is over without raising."""
        if kind is FaultKind.DROPPED_FRAME:
            # The frame "leaves" but never arrives; the peer's reply
            # (which will never come) is the caller's timeout.
            return True
        if kind is FaultKind.DELAYED_FRAME:
            time.sleep(DELAY_INJECT_S)
        elif kind is FaultKind.TORN_FRAME:
            # Put the prefix and roughly half the payload on the wire,
            # then kill the connection: the receiver sees a genuinely
            # torn frame, not just a client-side exception.
            torn = b"".join(bytes(p) for p in parts)[: FRAME_PREFIX.size + total // 2]  # flexlint: ok(FXL006) chaos-only path; the copy IS the fault being injected
            try:
                self._send_sock.sendall(torn)
            except OSError:
                pass
            self._abort_sockets()
            raise TornSend(f"injected torn frame after {total // 2}/{total} B")
        elif kind is FaultKind.CONN_RESET:
            # A real reset: the socket dies under us, both directions.
            self._abort_sockets()
            raise PeerDisconnected(f"injected connection reset ({total} B frame)")
        elif kind is FaultKind.HALF_OPEN:
            # Half-open: our writes appear to succeed but nothing will
            # ever come back — stop reading so the caller's reply recv
            # times out, the way a silently-dead WAN peer behaves.
            try:
                self._recv_sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        return False

    # -- consumer ---------------------------------------------------------
    def _recv(self, timeout: float) -> tuple[WireBuffer, str]:
        """The next frame as a heap-owned :class:`WireBuffer`."""
        if self._closed:
            raise PeerDisconnected("recv on closed TcpChannel")
        frames, sock = self._frames, self._recv_sock
        if (raw := frames.next_frame()) is None:  # none read ahead: to the socket
            _set_timeout(sock, timeout)
        while raw is None:
            try:
                n = sock.recv_into(frames.buffer())
            except socket.timeout as exc:
                raise TransportTimeout(f"tcp recv timed out after {timeout}s") from exc
            except OSError as exc:
                raise PeerDisconnected(f"tcp peer vanished mid-recv: {exc}") from exc
            if n == 0:
                if frames.partial:
                    raise TornSend("tcp peer closed mid-frame")
                raise PeerDisconnected("tcp peer closed the connection")
            frames.filled(n)
            raw = frames.next_frame()
        # A frame that fitted the scratch was copied out of it once more.
        copies = COPIES_TCP + (FRAME_PREFIX.size + raw.nbytes <= SCRATCH)
        return WireBuffer(raw, ownership=Ownership.HEAP, copies=copies), "tcp"

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._abort_sockets()
        for sock in {self._send_sock, self._recv_sock}:
            try:
                sock.close()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "loopback" if self._send_sock is not self._recv_sock else "remote"
        state = "closed" if self._closed else "open"
        return f"<TcpChannel {mode} {state}>"
