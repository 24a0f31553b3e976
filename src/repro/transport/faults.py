"""Transport fault model: typed faults, deterministic injection, accounting.

Paper Section II.H: FlexIO "uses simple timeout-and-retry schemes to cope
with errors and failures during data movement".  Coping presupposes a
fault model; this module supplies it for every transport:

* a small taxonomy of **fault kinds** a data-movement operation can hit
  (send timeout, partial/torn send, peer disconnect, registration
  failure), each mapped to a typed exception below a single
  :class:`TransportFault` root so retry code catches one family across
  SHM, TCP and RDMA;
* :class:`TransportTimeout`, the shared timeout base — it also derives
  from :class:`TimeoutError` so pre-existing ``except TimeoutError``
  callers keep working;
* :class:`TransportFaultInjector`, a seeded deterministic fault source
  that every channel send and every in-process drain attempt consults
  once (:func:`consult`).  Selectable per stream via the
  ``faults=...`` hint or process-wide via ``FLEXIO_FAULTS``; every
  injected fault is counted in the metrics registry and is one
  ``transport.fault`` flight event (a point event: it has a timestamp,
  not a duration), so recovery is observable end to end.
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Optional, Sequence

from repro.obs import recorder as flight
from repro.obs.events import EV_FAULT
from repro.obs.names import (
    F_FAULTS_INJECTED,
    M_FAULTS_INJECTED_TOTAL,
    metric_name,
)
from repro.util import rng


class FaultKind(Enum):
    """What went wrong with one data-movement operation."""

    SEND_TIMEOUT = "timeout"          # the send never completed in time
    TORN_SEND = "torn"                # only part of the payload landed
    PEER_DISCONNECT = "disconnect"    # the receiving peer went away
    REGISTRATION_FAILURE = "regfail"  # buffer registration was refused
    # Frame-layer kinds (TCP/daemon): what a WAN/LAN hop can do to a
    # length-prefixed frame that intra-process channels never see.
    TORN_FRAME = "torn_frame"         # prefix + partial payload hit the wire
    DROPPED_FRAME = "dropped_frame"   # the frame silently never left
    DELAYED_FRAME = "delayed_frame"   # the frame arrives late (peer may time out)
    CONN_RESET = "conn_reset"         # connection reset mid-exchange
    HALF_OPEN = "half_open"           # our side is up, the peer is gone
    SESSION_LOST = "session_lost"     # reconnect/resume retries exhausted


class TransportFault(RuntimeError):
    """Root of every transport-level failure; carries its fault kind."""

    kind: Optional[FaultKind] = None


class TransportTimeout(TransportFault, TimeoutError):
    """A movement operation timed out (send or receive, SHM or RDMA)."""

    kind = FaultKind.SEND_TIMEOUT


class TornSend(TransportFault):
    """A send delivered only part of its payload before failing."""

    kind = FaultKind.TORN_SEND


class PeerDisconnected(TransportFault):
    """The remote endpoint disappeared mid-operation."""

    kind = FaultKind.PEER_DISCONNECT


class RegistrationFailed(TransportFault):
    """The NIC/driver refused to register a buffer."""

    kind = FaultKind.REGISTRATION_FAILURE


class SessionLost(PeerDisconnected):
    """A network session died for good: every reconnect/resume attempt
    the retry policy allowed has failed.  Subclasses
    :class:`PeerDisconnected` so pre-resilience callers that caught the
    per-operation fault keep working, but carries its own kind so
    harnesses can assert "typed loss only after retry exhaustion"."""

    kind = FaultKind.SESSION_LOST


_EXCEPTION_FOR: dict[FaultKind, type] = {
    FaultKind.SEND_TIMEOUT: TransportTimeout,
    FaultKind.TORN_SEND: TornSend,
    FaultKind.PEER_DISCONNECT: PeerDisconnected,
    FaultKind.REGISTRATION_FAILURE: RegistrationFailed,
    # Frame-layer kinds map onto the exception the *caller* observes:
    # a torn frame is a torn send, a reset/half-open socket is a peer
    # disconnect, and dropped/delayed frames surface as timeouts (the
    # reply never comes / comes too late).
    FaultKind.TORN_FRAME: TornSend,
    FaultKind.DROPPED_FRAME: TransportTimeout,
    FaultKind.DELAYED_FRAME: TransportTimeout,
    FaultKind.CONN_RESET: PeerDisconnected,
    FaultKind.HALF_OPEN: PeerDisconnected,
    FaultKind.SESSION_LOST: SessionLost,
}

_KIND_FOR_NAME: dict[str, FaultKind] = {k.value: k for k in FaultKind}


def fault_exception(kind: FaultKind, message: str) -> TransportFault:
    """Build the typed exception for one injected fault kind."""
    return _EXCEPTION_FOR[kind](message)


class TransportFaultInjector:
    """Deterministic failure source consulted before each send.

    Two triggers, combinable: a seeded per-operation fault ``rate``, and
    a script of exact 1-based operation indices (``fail_ops``).  When an
    operation faults, the *kind* is drawn deterministically from
    ``kinds`` with the same seeded generator, so a given
    ``(rate, seed, kinds)`` triple always produces the same schedule —
    the property the chaos harness replays.
    """

    def __init__(
        self,
        rate: float = 0.0,
        fail_ops: Optional[Sequence[int]] = None,
        seed: int = 0,
        kinds: Optional[Sequence[FaultKind]] = None,
    ) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("fault rate must be in [0, 1)")
        self.rate = float(rate)
        self.fail_ops = set(fail_ops or ())
        self.seed = int(seed)
        self.kinds = tuple(kinds) if kinds else (FaultKind.SEND_TIMEOUT,)
        if not all(isinstance(k, FaultKind) for k in self.kinds):
            raise ValueError("kinds must be FaultKind values")
        self._rng = rng(self.seed)
        #: Stream whose drain this injector faults ("": none —
        #: a network client's); attributes the ``transport.fault`` events.
        self.stream = ""
        self.ops_seen = 0
        self.faults_injected = 0
        self.by_kind: dict[FaultKind, int] = {k: 0 for k in self.kinds}

    def next_fault(self) -> Optional[FaultKind]:
        """One operation happens; returns the fault to inject, or None."""
        self.ops_seen += 1
        hit = self.ops_seen in self.fail_ops or (
            self.rate > 0 and self._rng.random() < self.rate
        )
        if not hit:
            return None
        if len(self.kinds) == 1:
            kind = self.kinds[0]
        else:
            kind = self.kinds[int(self._rng.integers(len(self.kinds)))]
        self.faults_injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        return kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = "|".join(k.value for k in self.kinds)
        return (
            f"<TransportFaultInjector rate={self.rate} seed={self.seed} "
            f"kinds={names} injected={self.faults_injected}>"
        )


def parse_fault_spec(spec: Optional[str]) -> Optional[TransportFaultInjector]:
    """Parse a fault schedule like ``rate=0.1,seed=7,kinds=timeout|torn``.

    Comma-separated ``key=value`` pairs (commas, not semicolons, so the
    whole spec survives as one XML hint value).  Keys: ``rate`` (fault
    probability per send), ``seed``, ``kinds`` (``|``-separated fault
    names from :class:`FaultKind` values), ``ops`` (``|``-separated
    1-based operation indices that always fault).  Empty/None → None.
    """
    if spec is None or not spec.strip():
        return None
    rate = 0.0
    seed = 0
    kinds: Optional[list[FaultKind]] = None
    fail_ops: list[int] = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not sep:
            raise ValueError(f"bad fault spec piece {piece!r} (expected key=value)")
        if key == "rate":
            rate = float(value)
        elif key == "seed":
            seed = int(value)
        elif key == "kinds":
            kinds = []
            for name in value.split("|"):
                name = name.strip().lower()
                if name not in _KIND_FOR_NAME:
                    raise ValueError(
                        f"unknown fault kind {name!r}; "
                        f"expected one of {sorted(_KIND_FOR_NAME)}"
                    )
                kinds.append(_KIND_FOR_NAME[name])
        elif key == "ops":
            fail_ops = [int(tok) for tok in value.split("|") if tok.strip()]
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    return TransportFaultInjector(rate=rate, fail_ops=fail_ops, seed=seed, kinds=kinds)


def injector_from_env(environ=None) -> Optional[TransportFaultInjector]:
    """Build an injector from ``FLEXIO_FAULTS``, or None when unset."""
    env = os.environ if environ is None else environ
    return parse_fault_spec(env.get("FLEXIO_FAULTS"))


def record_injected(
    metrics, transport: str, kind: FaultKind, nbytes: int = 0, stream: str = ""
) -> None:
    """Account one injected fault: a ``transport.fault`` flight event
    (attributed to ``stream`` when the injector has one), always, and
    the ``faults.injected.*`` counters when there is a ``metrics``
    registry.

    The counters make recovery rates queryable without scanning the
    ring; the event puts the fault on the timeline next to the retry or
    loss it caused.
    """
    if metrics is not None:
        metrics.counter(metric_name(F_FAULTS_INJECTED, kind.value)).inc()
        metrics.counter(M_FAULTS_INJECTED_TOTAL).inc()
    flight.record(
        EV_FAULT, stream=stream, kind=kind.value, transport=transport, nbytes=nbytes
    )


def consult(
    injector: Optional[TransportFaultInjector], metrics, transport: str,
    nbytes: int, acts_out=None,
) -> Optional[FaultKind]:
    """The one fault consult of one ``nbytes`` send on ``transport``:
    draw from ``injector``, account the fault (:func:`record_injected`),
    and raise its typed exception — unless ``acts_out(kind, nbytes)``
    says the caller acts the fault out, in which case the kind is
    returned.  None: no injector, or no fault this time."""
    if injector is None:
        return None
    kind = injector.next_fault()
    if kind is None:
        return None
    record_injected(metrics, transport, kind, nbytes=nbytes, stream=injector.stream)
    if acts_out is not None and acts_out(kind, nbytes):
        return kind
    raise fault_exception(kind, f"injected {kind.value} on {transport} send ({nbytes} B)")
