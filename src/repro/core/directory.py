"""Directory server + coordinators (paper Section II.C.1).

Before any data moves, simulation and analytics find each other: each
program elects a *local coordinator* (rank 0 here, as in practice); when
the simulation creates a stream its coordinator registers the stream name
with its contact information at the directory server; the analytics'
coordinator looks the name up and connects.  The server participates only
in discovery — never in the data path — so a single instance suffices.
Nothing a step's movement consults lives here: the readers' pushdown
predicates are held by the stream they read (its ``readers``), and the
writer side prunes against those.

Failure detection (Section II.H's "errors and failures during data
movement" extended to the control plane): a registration may carry a
**lease**.  The writing coordinator must :meth:`~DirectoryServer.heartbeat`
within the lease period; :meth:`~DirectoryServer.reap` evicts entries whose
lease expired and notifies the registered contact (``contact.fail(...)``),
so readers of a dead writer get a typed end-of-stream-with-error instead
of stalling forever.  Streams registered without a lease (the default)
are never evicted — exactly the old behaviour.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs import recorder as flight
from repro.obs.events import EV_ADMISSION_REJECT, EV_LEASE_REAP


class DirectoryError(RuntimeError):
    """Lookup of an unregistered name, or duplicate registration."""


@dataclass(frozen=True)
class CoordinatorInfo:
    """Contact information registered by a program's coordinator."""

    program: str
    coordinator_rank: int
    num_ranks: int
    #: Opaque contact handle (in-process: the stream-state object itself).
    contact: Any = None


@dataclass
class _Entry:
    writer: CoordinatorInfo
    readers: list[CoordinatorInfo] = field(default_factory=list)
    lookups: int = 0
    #: Lease period in seconds; None → the entry never expires.
    lease: Optional[float] = None
    #: Absolute deadline (directory clock) of the current lease.
    deadline: Optional[float] = None


class DirectoryServer:
    """Name → coordinator registry with optional liveness leases.

    Counters make the "server is not in the critical path" property
    checkable: per-step data movement never touches the server (writer
    heartbeats are control-plane traffic, counted separately).
    ``clock`` is injectable so tests and discrete-event runs can drive
    lease expiry deterministically.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._entries: dict[str, _Entry] = {}
        self._clock = clock or time.monotonic
        self.registrations = 0
        self.lookups = 0
        self.heartbeats = 0
        self.evictions = 0

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Swap the lease clock (tests / discrete-event drivers).

        Deadlines already computed against the old clock are not
        rebased, so swap before any leased registration exists.
        """
        self._clock = clock or time.monotonic

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def leased_count(self) -> int:
        """Registrations currently held under a liveness lease."""
        return sum(1 for e in self._entries.values() if e.lease is not None)

    def register(
        self,
        name: str,
        info: CoordinatorInfo,
        lease: Optional[float] = None,
        remaining: Optional[float] = None,
    ) -> None:
        """The writing program's coordinator publishes a stream name.

        With ``lease`` (seconds) the registration must be refreshed via
        :meth:`heartbeat` or :meth:`reap` will evict it.  ``remaining``
        (restore path) sets the *first* deadline that many seconds from
        now instead of a full lease period, so a registration restored
        from a daemon checkpoint resumes its old lease clock rather than
        getting a fresh one.
        """
        if name in self._entries:
            raise DirectoryError(f"stream name {name!r} already registered")
        if lease is not None and lease <= 0:
            raise ValueError("lease must be positive (or None for no lease)")
        entry = _Entry(writer=info, lease=lease)
        if lease is not None:
            entry.deadline = self._clock() + (
                remaining if remaining is not None else lease
            )
        self._entries[name] = entry
        self.registrations += 1

    def heartbeat(self, name: str) -> None:
        """Writer liveness signal: pushes the lease deadline forward."""
        entry = self._entries.get(name)
        if entry is None:
            raise DirectoryError(f"no stream registered under {name!r}")
        self.heartbeats += 1
        if entry.lease is not None:
            entry.deadline = self._clock() + entry.lease

    def expired(self, now: Optional[float] = None) -> list[str]:
        """Names whose lease deadline has passed (no side effects)."""
        now = self._clock() if now is None else now
        return sorted(
            name
            for name, e in self._entries.items()
            if e.deadline is not None and now > e.deadline
        )

    def reap(self, now: Optional[float] = None) -> list[str]:
        """Evict every expired entry; returns the evicted names.

        Each evicted entry's contact is notified through its ``fail``
        method (when it has one) so the stream ends with a typed error
        for its readers rather than an eternal stall.
        """
        evicted = []
        for name in self.expired(now):
            entry = self._entries.pop(name)
            self.evictions += 1
            evicted.append(name)
            flight.record(EV_LEASE_REAP, stream=name, lease=entry.lease)
            fail = getattr(entry.writer.contact, "fail", None)
            if callable(fail):
                try:
                    fail(
                        f"writer lease expired "
                        f"({entry.lease:.3g}s without heartbeat)"
                    )
                # flexlint: ok(FXL001) eviction must never take the directory down
                except Exception:
                    pass
        return evicted

    def lookup(self, name: str, reader: Optional[CoordinatorInfo] = None) -> CoordinatorInfo:
        """A reading program's coordinator resolves a stream name."""
        entry = self._entries.get(name)
        if entry is None:
            raise DirectoryError(f"no stream registered under {name!r}")
        entry.lookups += 1
        self.lookups += 1
        if reader is not None:
            entry.readers.append(reader)
        return entry.writer

    def unregister(self, name: str) -> None:
        """Writer closes the stream; the name becomes reusable."""
        if name not in self._entries:
            raise DirectoryError(f"no stream registered under {name!r}")
        del self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entries(self) -> list[tuple[str, CoordinatorInfo, Optional[float], Optional[float]]]:
        """Checkpoint view: ``(name, writer, lease, remaining_ttl)`` per
        registration, with ``remaining_ttl`` measured against the
        directory clock (None for unleased entries)."""
        now = self._clock()
        out = []
        for name, e in sorted(self._entries.items()):
            remaining = None if e.deadline is None else max(0.0, e.deadline - now)
            out.append((name, e.writer, e.lease, remaining))
        return out

    def readers_of(self, name: str) -> list[CoordinatorInfo]:
        entry = self._entries.get(name)
        if entry is None:
            raise DirectoryError(f"no stream registered under {name!r}")
        return list(entry.readers)


# ---------------------------------------------------------------------------
# Tenancy: per-tenant namespaces, bearer tokens, quotas, admission control
# ---------------------------------------------------------------------------

class AdmissionKind(enum.Enum):
    """Why admission control rejected a tenant request."""

    UNKNOWN_TENANT = "unknown_tenant"   # no such tenant namespace
    AUTH_FAILURE = "auth"               # bearer token mismatch
    STREAM_QUOTA = "streams"            # max concurrent streams exceeded
    BYTES_QUOTA = "bytes_per_s"         # byte-rate budget exhausted
    LEASE_QUOTA = "leases"              # too many outstanding leases


class AdmissionError(DirectoryError):
    """Root of every admission-control rejection; carries its kind.

    Sits below :class:`DirectoryError` so existing control-plane error
    handling catches it, while the ``kind`` mirrors the transport fault
    taxonomy's shape for typed handling and wire encoding.
    """

    kind: Optional[AdmissionKind] = None


class UnknownTenant(AdmissionError):
    """Request named a tenant the directory does not know."""

    kind = AdmissionKind.UNKNOWN_TENANT


class AuthFailure(AdmissionError):
    """Bearer token did not match the tenant's configured token."""

    kind = AdmissionKind.AUTH_FAILURE


class QuotaExceeded(AdmissionError):
    """A tenant quota (streams, bytes/s, leases) would be exceeded."""

    def __init__(self, kind: AdmissionKind, message: str) -> None:
        super().__init__(message)
        self.kind = kind


_ADMISSION_FOR: dict[str, type] = {
    AdmissionKind.UNKNOWN_TENANT.value: UnknownTenant,
    AdmissionKind.AUTH_FAILURE.value: AuthFailure,
}


def admission_exception(kind_name: str, message: str) -> AdmissionError:
    """Rebuild the typed admission error for a wire-carried kind name."""
    cls = _ADMISSION_FOR.get(kind_name)
    if cls is not None:
        return cls(message)
    try:
        return QuotaExceeded(AdmissionKind(kind_name), message)
    except ValueError:
        err = AdmissionError(message)
        return err


@dataclass(frozen=True)
class TenantSpec:
    """One tenant namespace: identity, bearer token, quotas.

    ``None`` for any quota means unlimited, so a default-constructed
    spec behaves exactly like the pre-tenancy directory.
    """

    name: str
    token: Optional[str] = None
    max_streams: Optional[int] = None
    max_bytes_per_s: Optional[float] = None
    max_leases: Optional[int] = None


class _TokenBucket:
    """Byte-rate budget: ``rate`` bytes/s capacity, refilled lazily from
    the directory clock; one second of burst headroom."""

    __slots__ = ("rate", "burst", "_level", "_last", "_clock")

    def __init__(self, rate: float, clock: Callable[[], float]) -> None:
        self.rate = float(rate)
        self.burst = float(rate)
        self._level = self.burst
        self._clock = clock
        self._last = clock()

    def try_consume(self, nbytes: int) -> bool:
        now = self._clock()
        self._level = min(self.burst, self._level + (now - self._last) * self.rate)
        self._last = now
        if nbytes > self._level:
            return False
        self._level -= nbytes
        return True


class TenantDirectory:
    """Multi-tenant front of the directory: auth, quotas, namespaces.

    Each tenant owns an isolated :class:`DirectoryServer` (stream names
    are scoped per tenant), all sharing one injectable ``clock`` so
    lease reaping stays deterministic under test.  Every admission
    decision is accounted: rejections raise a typed
    :class:`AdmissionError`, bump a per-tenant labeled counter in the
    optional metrics registry, and land in the flight recorder.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
    ) -> None:
        self._clock = clock or time.monotonic
        self.metrics = metrics
        self._tenants: dict[str, TenantSpec] = {}
        self._servers: dict[str, DirectoryServer] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self.admitted = 0
        self.rejected = 0

    # -- tenant management -------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> None:
        if spec.name in self._tenants:
            raise DirectoryError(f"tenant {spec.name!r} already exists")
        self._tenants[spec.name] = spec
        self._servers[spec.name] = DirectoryServer(clock=self._clock)
        if spec.max_bytes_per_s is not None:
            self._buckets[spec.name] = _TokenBucket(spec.max_bytes_per_s, self._clock)

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def specs(self) -> list[TenantSpec]:
        """Every tenant's spec (checkpoint view), sorted by name."""
        return [self._tenants[t] for t in self.tenants()]

    def spec(self, tenant: str) -> TenantSpec:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise self._reject(tenant, UnknownTenant(f"unknown tenant {tenant!r}"))

    def server_for(self, tenant: str) -> DirectoryServer:
        self.spec(tenant)
        return self._servers[tenant]

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Swap the shared clock across every tenant namespace."""
        self._clock = clock or time.monotonic
        for server in self._servers.values():
            server.set_clock(self._clock)
        for bucket in self._buckets.values():
            bucket._clock = self._clock
            bucket._last = self._clock()

    # -- admission control -------------------------------------------------
    def _reject(self, tenant: str, err: AdmissionError) -> AdmissionError:
        """Account one rejection (counter + flight event); returns the
        error for the caller to raise."""
        self.rejected += 1
        kind = err.kind.value if err.kind is not None else "other"
        if self.metrics is not None:
            self.metrics.counter(
                "tenant.admission.rejected",
                labels={"tenant": tenant, "reason": kind},
            ).inc()
        flight.record(EV_ADMISSION_REJECT, tenant=tenant, reason=kind)
        return err

    def authenticate(self, tenant: str, token: Optional[str] = None) -> TenantSpec:
        """Check the bearer token against the tenant's configured one."""
        spec = self.spec(tenant)
        if spec.token is not None and token != spec.token:
            raise self._reject(tenant, AuthFailure(f"bad token for tenant {tenant!r}"))
        self.admitted += 1
        return spec

    def register(
        self,
        tenant: str,
        name: str,
        info: CoordinatorInfo,
        lease: Optional[float] = None,
        remaining: Optional[float] = None,
    ) -> None:
        """Tenant-scoped :meth:`DirectoryServer.register` behind quotas."""
        spec = self.spec(tenant)
        server = self._servers[tenant]
        if spec.max_streams is not None and len(server.names()) >= spec.max_streams:
            raise self._reject(tenant, QuotaExceeded(
                AdmissionKind.STREAM_QUOTA,
                f"tenant {tenant!r} at max_streams={spec.max_streams}",
            ))
        if (
            lease is not None
            and spec.max_leases is not None
            and server.leased_count() >= spec.max_leases
        ):
            raise self._reject(tenant, QuotaExceeded(
                AdmissionKind.LEASE_QUOTA,
                f"tenant {tenant!r} at max_leases={spec.max_leases}",
            ))
        server.register(name, info, lease=lease, remaining=remaining)
        if self.metrics is not None:
            self.metrics.gauge(
                "tenant.streams", labels={"tenant": tenant}
            ).set(len(server.names()))

    def charge_bytes(self, tenant: str, nbytes: int) -> None:
        """Debit a data-plane transfer against the tenant's byte budget."""
        spec = self.spec(tenant)
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.try_consume(nbytes):
            raise self._reject(tenant, QuotaExceeded(
                AdmissionKind.BYTES_QUOTA,
                f"tenant {tenant!r} over {spec.max_bytes_per_s:g} B/s budget",
            ))
        if self.metrics is not None:
            self.metrics.counter(
                "tenant.bytes", labels={"tenant": tenant}
            ).inc(nbytes)

    # -- tenant-scoped directory operations --------------------------------
    def lookup(self, tenant: str, name: str, reader=None) -> CoordinatorInfo:
        return self.server_for(tenant).lookup(name, reader)

    def heartbeat(self, tenant: str, name: str) -> None:
        self.server_for(tenant).heartbeat(name)

    def unregister(self, tenant: str, name: str) -> None:
        server = self.server_for(tenant)
        server.unregister(name)
        if self.metrics is not None:
            self.metrics.gauge(
                "tenant.streams", labels={"tenant": tenant}
            ).set(len(server.names()))

    def reap_all(self, now: Optional[float] = None) -> dict[str, list[str]]:
        """Reap expired leases across every tenant namespace."""
        out: dict[str, list[str]] = {}
        for tenant, server in self._servers.items():
            evicted = server.reap(now)
            if evicted:
                out[tenant] = evicted
        return out
