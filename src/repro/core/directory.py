"""Stream discovery and tenancy (paper Section II.C.1).

Before any data moves, simulation and analytics find each other: the
writing program's coordinator opens a stream name and the analytics'
coordinator looks it up.  The lookup table is each plane's run table —
:class:`~repro.core.stream.StreamRegistry`'s in process, the
:class:`~repro.net.server.DirectoryDaemon`'s behind the daemon — so a
name is discoverable exactly while its run is held there; nothing of a
step's movement passes through discovery.

Failure detection (Section II.H's "errors and failures during data
movement" extended to the control plane): a run may hold a liveness
lease (:meth:`~repro.adios.api.Run.hold_lease`), which every sealed
step, PUBLISH and HEARTBEAT beats.  :func:`reap` fails every live run
whose lease lapsed, so readers of a dead writer get a typed
end-of-stream-with-error instead of stalling for ever; the in-process
plane reaps the run a reader waits on, the daemon every run at each
reap tick.  Runs without a lease (the default) never lapse.

:class:`TenantDirectory` is the daemon's admission control: bearer
tokens, quotas counted over a tenant's live runs, and its byte budget.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.obs import recorder as flight
from repro.obs.events import EV_ADMISSION_REJECT, EV_LEASE_REAP

if TYPE_CHECKING:
    from repro.adios.api import Run


class DirectoryError(RuntimeError):
    """Open of a stream name no run holds, or of a writer rank already open."""


def reap(runs: Iterable[Run]) -> list[Run]:
    """Fail every live run of ``runs`` whose lease lapsed, and return
    them: the stream ends with a typed error for its readers."""
    evicted = []
    for run in runs:
        if not run.closed and run.lapsed():
            flight.record(EV_LEASE_REAP, stream=run.name, lease=run.lease)
            run.fail(f"writer lease expired ({run.lease:.3g}s without heartbeat)")
            evicted.append(run)
    return evicted


# ---------------------------------------------------------------------------
# Tenancy: bearer tokens, quotas, admission control
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
    """Admission control for the daemon's tenants: auth, quotas, budget.

    Stream names are scoped per tenant by the daemon's run table (a run
    is keyed ``tenant/name``); here each tenant has its spec and byte
    bucket, all on one injectable ``clock``.  Every admission decision is
    accounted: rejections raise a typed :class:`AdmissionError`, bump a
    per-tenant labeled counter in the optional metrics registry, and land
    in the flight recorder.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
    ) -> None:
        self._clock = clock or time.monotonic
        self.metrics = metrics
        self._tenants: dict[str, TenantSpec] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self.admitted = 0
        self.rejected = 0

    # -- tenant management -------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> None:
        if spec.name in self._tenants:
            raise DirectoryError(f"tenant {spec.name!r} already exists")
        self._tenants[spec.name] = spec
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

    def admit_run(self, tenant: str, live: Sequence[Run], lease: Optional[float]) -> None:
        """The quotas a new run of ``tenant`` must fit, counted over
        ``live``, the tenant's live runs: ``max_streams`` of them, and
        ``max_leases`` of those holding a lease when this one asks for one."""
        spec = self.spec(tenant)
        if spec.max_streams is not None and len(live) >= spec.max_streams:
            raise self._reject(tenant, QuotaExceeded(
                AdmissionKind.STREAM_QUOTA,
                f"tenant {tenant!r} at max_streams={spec.max_streams}",
            ))
        if (
            lease is not None
            and spec.max_leases is not None
            and sum(run.lease is not None for run in live) >= spec.max_leases
        ):
            raise self._reject(tenant, QuotaExceeded(
                AdmissionKind.LEASE_QUOTA,
                f"tenant {tenant!r} at max_leases={spec.max_leases}",
            ))

    def count_runs(self, tenant: str, live: Sequence[Run]) -> None:
        """Set the ``tenant.streams`` gauge: ``live`` are the tenant's live runs."""
        if self.metrics is not None:
            self.metrics.gauge("tenant.streams", labels={"tenant": tenant}).set(len(live))

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
