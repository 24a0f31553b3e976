"""Central metric-name table: every counter/gauge/histogram name,
declared once.

:mod:`repro.core.hints` fixed hint-key drift and
:mod:`repro.obs.events` fixed event-code drift; this module is the same
cure for metric names.  Each metric is declared exactly once with its
kind and semantics, producers import the ``M_*`` constant, and the
FlexLint FXL013 rule fails any ``counter()``/``gauge()``/
``histogram()`` call whose name is an unregistered literal or a
computed f-string.

Two vocabularies share the table:

* **static names** (``METRICS``) — fixed metric series; and
* **families** (``FAMILIES``) — registered dotted prefixes under which
  per-instance series hang (``faults.injected.<kind>``,
  ``shm.pool.<suffix>``, ``rdma.regcache.<sender>.<suffix>``, ...).
  Producers build family members with :func:`metric_name`, which
  validates the prefix at runtime, so dynamic names stay inside the
  declared namespace instead of re-growing ad-hoc f-strings.

``METRIC_NAMES`` is the static-name set FXL013 checks literals against;
family members are accepted when they extend a registered family root.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MetricSpec",
    "UnknownMetricError",
    "METRICS",
    "FAMILIES",
    "METRIC_NAMES",
    "FAMILY_ROOTS",
    "metric_name",
    "register_family",
    "validate_metric",
    "suggest",
]


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric series (or family of series)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram" | "family"
    description: str


class UnknownMetricError(ValueError):
    """A metric name that the central table does not declare."""

    def __init__(self, name: str, suggestion: Optional[str] = None) -> None:
        msg = f"unknown metric name {name!r}"
        if suggestion:
            msg += f"; did you mean {suggestion!r}?"
        super().__init__(msg)
        self.name = name
        self.suggestion = suggestion


# ---------------------------------------------------------------------------
# Static metric names — the only place these strings are spelled.
# ---------------------------------------------------------------------------

# Data plane (core/stream.py, tools/chaos.py)
M_BACKPRESSURE_WAITS = "dataplane.backpressure_waits"
M_BYTES_READ = "dataplane.bytes_read"
M_DRAIN_BYTES_COMMITTED = "dataplane.drain.bytes_committed"
M_DRAIN_ERRORS = "dataplane.drain.errors"
M_DRAIN_FAULTS = "dataplane.drain.faults"
M_DRAIN_QUEUE_DEPTH = "dataplane.drain.queue_depth"
M_DRAIN_RECOVERED = "dataplane.drain.recovered"
M_DRAIN_RETRIES = "dataplane.drain.retries"
M_DRAIN_STEPS_COMMITTED = "dataplane.drain.steps_committed"
M_DRAIN_STEPS_LOST = "dataplane.drain.steps_lost"
M_DRAIN_WEDGED = "dataplane.drain.wedged"
M_STREAM_FAILURES = "dataplane.stream.failures"
M_TRANSPORT_DEGRADATIONS = "dataplane.transport.degradations"
M_TX_ABORTED = "dataplane.tx.aborted"
M_TX_COMMITTED = "dataplane.tx.committed"
M_PLAN_CACHE_HITS = "dataplane.plan_cache.hits"
M_PLAN_CACHE_MISSES = "dataplane.plan_cache.misses"
M_HANDSHAKE_CONTROL_BYTES = "handshake.control_bytes"
M_HANDSHAKE_MESSAGES = "handshake.messages"
M_REDIST_BYTES_MOVED = "redistribution.bytes_moved"
M_REDIST_STRIDE_MESSAGES = "redistribution.stride_messages"

# DC plug-in plane (core/plugins.py, core/stream.py, net/server.py)
M_PLUGIN_BLOCKS_SKIPPED = "plugin.blocks_skipped"
M_PLUGIN_FUSED_READS = "plugin.fused_reads"
M_PLUGIN_INTERPRETED_READS = "plugin.interpreted_reads"

# Fault injection (transport/faults.py, net/server.py)
M_FAULTS_INJECTED_TOTAL = "faults.injected.total"

# Buffer plane (transport/buffers.py)
M_TRANSPORT_COPIES = "transport.copies"

# Transport channel counters (transport/{shm,rdma,tcp}.py)
M_SHM_BYTES_SENT = "shm.bytes_sent"
M_SHM_MESSAGES_SENT = "shm.messages_sent"
M_SHM_CH_INLINE_SENDS = "shm.channel.inline_sends"
M_SHM_CH_LARGE_SENDS = "shm.channel.large_sends"
M_RDMA_BYTES_SENT = "rdma.bytes_sent"
M_RDMA_MESSAGES_SENT = "rdma.messages_sent"
M_RDMA_CH_SMALL_SENDS = "rdma.channel.small_sends"
M_RDMA_CH_LARGE_SENDS = "rdma.channel.large_sends"
M_TCP_BYTES_SENT = "tcp.bytes_sent"
M_TCP_MESSAGES_SENT = "tcp.messages_sent"

# Multi-tenant directory (core/directory.py)
M_TENANT_ADMISSION_REJECTED = "tenant.admission.rejected"
M_TENANT_BYTES = "tenant.bytes"
M_TENANT_STREAMS = "tenant.streams"

# Network plane, daemon side (net/server.py)
M_NET_STEPS_PUBLISHED = "net.steps_published"
M_NET_STEPS_FETCHED = "net.steps_fetched"
M_NET_BYTES_PUBLISHED = "net.bytes_published"
M_NET_BYTES_FETCHED = "net.bytes_fetched"
M_NET_SESSIONS = "net.sessions"
M_NET_LEASE_EVICTIONS = "net.lease_evictions"
M_NET_RETAINED_STEPS = "net.retained_steps"
M_NET_DRAINS = "net.drains"
M_NET_CHECKPOINTS = "net.checkpoints"
M_NET_RESTORES = "net.restores"
M_NET_RESUMES = "net.resumes"
M_NET_DUP_PUBLISHES = "net.dup_publishes"
M_NET_FETCHES_HELD = "net.fetches_held"
M_NET_FETCH_HOLDS_EXPIRED = "net.fetch_holds_expired"
M_NET_READERS_PARKED = "net.readers_parked"
M_NET_FRAMES_REFUSED = "net.frames_refused"
M_NET_STEPS_PUBLISHED_BY_REF = "net.steps_published_by_ref"
M_NET_STEPS_FETCHED_BY_REF = "net.steps_fetched_by_ref"
M_NET_POOL_SLOTS_FREE = "net.pool_slots_free"
M_NET_BLOCKS_BOUNDED_BY_DAEMON = "net.blocks_bounded_by_daemon"
M_NET_LOOP_LAG_MS = "net.loop_lag_ms"

# Network plane, client side (net/client.py, tools/chaos.py --scenario net)
M_NET_RECONNECTS = "net.reconnects"
M_NET_SESSIONS_LOST = "net.sessions_lost"
M_NET_RESUME = "net.resume"
M_NET_HEARTBEATS = "net.heartbeats"
M_NET_FETCHES = "net.fetches"
M_NET_STEPS_COPIED_OUT = "net.steps_copied_out"

# Health SLO verdicts (obs/health.py)
M_HEALTH_VERDICT = "health.verdict"
M_HEALTH_STEPS_PER_S = "health.steps_per_s"
M_HEALTH_LOSS_RATE = "health.loss_rate"
M_HEALTH_P99 = "health.p99_latency"

_METRIC_SPECS = (
    MetricSpec(M_BACKPRESSURE_WAITS, "counter", "writer blocked on a full drain queue"),
    MetricSpec(M_BYTES_READ, "counter", "bytes handed to readers by read()/read_block()"),
    MetricSpec(M_DRAIN_BYTES_COMMITTED, "counter", "payload bytes committed by the drainer"),
    MetricSpec(M_DRAIN_ERRORS, "counter", "steps whose retries were exhausted"),
    MetricSpec(M_DRAIN_FAULTS, "counter", "transport faults seen by the drainer"),
    MetricSpec(M_DRAIN_QUEUE_DEPTH, "gauge", "current drain queue depth"),
    MetricSpec(M_DRAIN_RECOVERED, "counter", "retried sends that eventually succeeded"),
    MetricSpec(M_DRAIN_RETRIES, "counter", "drain attempts that were retried"),
    MetricSpec(M_DRAIN_STEPS_COMMITTED, "counter", "steps committed by the drainer"),
    MetricSpec(M_DRAIN_STEPS_LOST, "counter", "steps marked LOST after retry exhaustion"),
    MetricSpec(M_DRAIN_WEDGED, "counter", "drainer threads that missed their join"),
    MetricSpec(M_STREAM_FAILURES, "counter", "streams that ended abnormally"),
    MetricSpec(M_TRANSPORT_DEGRADATIONS, "counter", "falls down the transport ladder"),
    MetricSpec(M_TX_ABORTED, "counter", "2PC transactions aborted"),
    MetricSpec(M_TX_COMMITTED, "counter", "2PC transactions committed"),
    MetricSpec(M_PLAN_CACHE_HITS, "counter", "compiled-plan cache hits"),
    MetricSpec(M_PLAN_CACHE_MISSES, "counter", "compiled-plan cache misses"),
    MetricSpec(M_HANDSHAKE_CONTROL_BYTES, "counter", "handshake-protocol control bytes"),
    MetricSpec(M_HANDSHAKE_MESSAGES, "counter", "handshake-protocol messages"),
    MetricSpec(M_REDIST_BYTES_MOVED, "counter", "bytes moved by MxN redistribution"),
    MetricSpec(M_REDIST_STRIDE_MESSAGES, "counter", "redistribution stride messages"),
    MetricSpec(M_PLUGIN_BLOCKS_SKIPPED, "counter",
               "blocks not sent because a reader predicate provably drops them"),
    MetricSpec(M_PLUGIN_FUSED_READS, "counter",
               "reads served by the fused (compiled-chain) path"),
    MetricSpec(M_PLUGIN_INTERPRETED_READS, "counter",
               "plug-in reads that fell back to the interpreted pass"),
    MetricSpec(M_FAULTS_INJECTED_TOTAL, "counter", "total injected transport faults"),
    MetricSpec(M_TRANSPORT_COPIES, "histogram", "copies paid per delivered message"),
    MetricSpec(M_SHM_BYTES_SENT, "counter", "bytes sent over the SHM channel"),
    MetricSpec(M_SHM_MESSAGES_SENT, "counter", "messages sent over the SHM channel"),
    MetricSpec(M_SHM_CH_INLINE_SENDS, "gauge", "SHM sends that fit inline"),
    MetricSpec(M_SHM_CH_LARGE_SENDS, "gauge", "SHM sends routed via the pool"),
    MetricSpec(M_RDMA_BYTES_SENT, "counter", "bytes sent over the RDMA channel"),
    MetricSpec(M_RDMA_MESSAGES_SENT, "counter", "messages sent over the RDMA channel"),
    MetricSpec(M_RDMA_CH_SMALL_SENDS, "gauge", "RDMA sends below the large threshold"),
    MetricSpec(M_RDMA_CH_LARGE_SENDS, "gauge", "RDMA large (registered) sends"),
    MetricSpec(M_TCP_BYTES_SENT, "counter", "bytes sent over the TCP channel"),
    MetricSpec(M_TCP_MESSAGES_SENT, "counter", "messages sent over the TCP channel"),
    MetricSpec(M_TENANT_ADMISSION_REJECTED, "counter", "admission-control rejections"),
    MetricSpec(M_TENANT_BYTES, "counter", "per-tenant bytes accepted (labeled)"),
    MetricSpec(M_TENANT_STREAMS, "gauge", "per-tenant live streams (labeled)"),
    MetricSpec(M_NET_STEPS_PUBLISHED, "counter", "steps accepted by the daemon broker"),
    MetricSpec(M_NET_STEPS_FETCHED, "counter", "steps served to remote readers"),
    MetricSpec(M_NET_BYTES_PUBLISHED, "counter", "payload bytes accepted by the broker"),
    MetricSpec(M_NET_BYTES_FETCHED, "counter", "payload bytes served to readers"),
    MetricSpec(M_NET_SESSIONS, "counter", "authenticated daemon sessions"),
    MetricSpec(M_NET_LEASE_EVICTIONS, "counter", "expired writer leases reaped"),
    MetricSpec(M_NET_RETAINED_STEPS, "gauge", "steps retained by the broker"),
    MetricSpec(M_NET_DRAINS, "counter", "graceful daemon drains"),
    MetricSpec(M_NET_CHECKPOINTS, "counter", "daemon checkpoints written"),
    MetricSpec(M_NET_RESTORES, "counter", "daemon restores from checkpoint"),
    MetricSpec(M_NET_RESUMES, "counter", "sessions re-bound via resume token"),
    MetricSpec(M_NET_DUP_PUBLISHES, "counter", "duplicate republishes suppressed"),
    MetricSpec(M_NET_FETCHES_HELD, "counter",
               "FETCH frames parked on a step not yet published"),
    MetricSpec(M_NET_FETCH_HOLDS_EXPIRED, "counter",
               "held FETCH frames answered NOT_READY when the hold ran out"),
    MetricSpec(M_NET_READERS_PARKED, "gauge",
               "readers parked in a held FETCH right now (labeled)"),
    MetricSpec(M_NET_FRAMES_REFUSED, "counter",
               "inbound frames refused for their length prefix (over MAX_FRAME)"),
    MetricSpec(M_NET_STEPS_PUBLISHED_BY_REF, "counter", "steps published into a pool slot"),
    MetricSpec(M_NET_STEPS_FETCHED_BY_REF, "counter", "steps served as a slot reference"),
    MetricSpec(M_NET_POOL_SLOTS_FREE, "gauge", "free slots of the current pool generation"),
    MetricSpec(M_NET_BLOCKS_BOUNDED_BY_DAEMON, "counter", "unstamped blocks the broker bounded"),
    MetricSpec(M_NET_LOOP_LAG_MS, "gauge",
               "how late the daemon's lease-reaper tick ran, in ms (event-loop lag)"),
    MetricSpec(M_NET_RECONNECTS, "counter", "client reconnect attempts that succeeded"),
    MetricSpec(M_NET_SESSIONS_LOST, "counter", "client sessions lost after retries"),
    MetricSpec(M_NET_RESUME, "counter", "client sessions resumed by token"),
    MetricSpec(M_NET_HEARTBEATS, "counter", "client heartbeats sent"),
    MetricSpec(M_NET_FETCHES, "counter", "FETCH frames sent by a remote reader"),
    MetricSpec(M_NET_STEPS_COPIED_OUT, "counter", "by-reference steps held past their pin"),
    MetricSpec(M_HEALTH_VERDICT, "gauge", "stream health verdict (labeled)"),
    MetricSpec(M_HEALTH_STEPS_PER_S, "gauge", "stream step throughput (labeled)"),
    MetricSpec(M_HEALTH_LOSS_RATE, "gauge", "stream loss rate (labeled)"),
    MetricSpec(M_HEALTH_P99, "gauge", "stream p99 write-visible latency (labeled)"),
)

#: Static metric registry, keyed by name.
METRICS: dict[str, MetricSpec] = {s.name: s for s in _METRIC_SPECS}


# ---------------------------------------------------------------------------
# Metric families — registered dotted prefixes for per-instance series.
# ---------------------------------------------------------------------------

F_FAULTS_INJECTED = "faults.injected"
F_PLUGIN = "plugin"
F_TRANSPORT_PATH = "transport.path"
F_LATENCY = "latency"
F_SHM_QUEUE = "shm.queue"
F_SHM_POOL = "shm.pool"
F_RDMA_REGCACHE = "rdma.regcache"

_FAMILY_SPECS = (
    MetricSpec(F_FAULTS_INJECTED, "family", "injected faults by FaultKind"),
    MetricSpec(F_PLUGIN, "family",
               "per-plug-in cost series (invocations/bytes/exec_ns by name)"),
    MetricSpec(F_TRANSPORT_PATH, "family", "deliveries by transport path"),
    MetricSpec(F_LATENCY, "family", "latency histograms by span category"),
    MetricSpec(F_SHM_QUEUE, "family", "SPSC queue stats (per queue instance)"),
    MetricSpec(F_SHM_POOL, "family", "SHM buffer-pool stats (per pool instance)"),
    MetricSpec(F_RDMA_REGCACHE, "family", "registration-cache stats (per NIC side)"),
)

#: Family registry, keyed by prefix; mutable via :func:`register_family`.
FAMILIES: dict[str, MetricSpec] = {s.name: s for s in _FAMILY_SPECS}

#: The static-name vocabulary FXL013 validates literals against.
METRIC_NAMES: frozenset[str] = frozenset(METRICS)

#: The declared family roots (a literal extending one is also valid).
FAMILY_ROOTS: tuple[str, ...] = tuple(sorted(FAMILIES))


def register_family(prefix: str, description: str = "ad-hoc family") -> str:
    """Register an additional family prefix at runtime (tests and
    embedding applications that hang private series off their own
    namespace).  Returns the prefix."""
    if not prefix or prefix.endswith("."):
        raise ValueError(f"invalid metric family prefix {prefix!r}")
    FAMILIES.setdefault(prefix, MetricSpec(prefix, "family", description))
    return prefix


def _family_root(name: str) -> Optional[str]:
    for root in FAMILIES:
        if name == root or name.startswith(root + "."):
            return root
    return None


def suggest(name: str) -> Optional[str]:
    """The closest registered name/family to a misspelled one, if any."""
    vocab = sorted(METRIC_NAMES | set(FAMILIES))
    matches = difflib.get_close_matches(name, vocab, n=1)
    return matches[0] if matches else None


def validate_metric(name: str) -> str:
    """Return ``name`` if it is a registered static name or extends a
    registered family; raise :class:`UnknownMetricError` otherwise."""
    if name in METRIC_NAMES or _family_root(name) is not None:
        return name
    raise UnknownMetricError(name, suggest(name))


#: Every ``metric_name`` built from string parts, by ``(family, *parts)``.
_BUILT: dict[tuple, str] = {}


def metric_name(family: str, *parts: object) -> str:
    """Build ``family.part1.part2...`` after validating that ``family``
    is (or extends) a registered family root.  This is the sanctioned
    spelling for dynamic metric names — FXL013 rejects raw f-strings.

    A name whose parts are all strings is built once per process; other
    parts (``1`` and ``True`` are equal keys with different names, and
    an unhashable part is no key at all) and an unknown family are
    judged on every call.
    """
    key = (family, *parts)
    try:
        return _BUILT[key]
    except (KeyError, TypeError):
        pass
    if _family_root(family) is None:
        raise UnknownMetricError(family, suggest(family))
    name = ".".join([family, *[str(p) for p in parts]])
    if all(type(p) is str for p in parts):
        _BUILT[key] = name
    return name
