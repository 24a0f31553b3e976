"""Central event table: every telemetry event name, declared once.

A *point event* of the data plane — it happened at *t* — has one sink,
the flight recorder (:mod:`repro.obs.recorder`), and one name, a flight
event code (``EV_*``); :mod:`repro.core.monitoring` states the whole
rule (timed regions and counts have their own sinks).  Scattered ad-hoc
literals are how the hint keys got out of sync before
:mod:`repro.core.hints` existed — this module is the same cure for
event names: each code is declared exactly once with its semantics,
producers import the constant, the recorder refuses a code that is not
in ``FLIGHT_EVENTS``, and the FlexLint FXL007 rule fails any hot-path
``record()`` call whose name is an unregistered literal or a computed
f-string.  FXL007 cannot tell a monitor's ``record()`` from the
recorder's, so it checks literals against ``EVENT_CODES``: the flight
codes plus the trace categories (names of *timed regions*) that
``src/`` still spells as a literal.  No name is in both.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one telemetry event name."""

    code: str
    description: str


class UnknownEventError(ValueError):
    """An event code that the central table does not declare."""

    def __init__(self, code: str, suggestion: Optional[str] = None) -> None:
        msg = f"unknown event code {code!r}"
        if suggestion:
            msg += f"; did you mean {suggestion!r}?"
        super().__init__(msg)
        self.code = code
        self.suggestion = suggestion


# ---------------------------------------------------------------------------
# Flight-recorder event codes — the only place these strings are spelled.
# ---------------------------------------------------------------------------

EV_STEP_BEGIN = "step.begin"
EV_STEP_COMMIT = "step.commit"
EV_STEP_LOST = "step.lost"
EV_STEP_ABORTED = "step.aborted"
EV_RETRY = "drain.retry"
EV_FAULT = "transport.fault"
EV_DEGRADE = "transport.degrade"
EV_BACKPRESSURE = "queue.backpressure"
EV_QUEUE_HIGH_WATER = "queue.high_water"
EV_LEASE_REAP = "lease.reap"
EV_STREAM_FAILED = "stream.failed"
EV_DRAIN_WEDGED = "drain.wedged"
EV_SANITIZER = "sanitizer.violation"
EV_HEALTH = "health.verdict"
EV_PLUGIN_MIGRATE = "plugin.migrate"
EV_FLIGHT_DUMP = "flight.dump"
EV_NET_CONNECT = "net.connect"
EV_NET_DISCONNECT = "net.disconnect"
EV_NET_STREAM_OPEN = "net.stream.open"
EV_NET_STEP_PUBLISH = "net.step.publish"
EV_NET_STEP_FETCH = "net.step.fetch"
EV_ADMISSION_REJECT = "tenant.admission.reject"
EV_NET_RECONNECT = "net.reconnect"
EV_NET_RESUME = "net.resume"
EV_NET_SESSION_LOST = "net.session_lost"
EV_NET_RETRY_AFTER = "net.retry_after"
EV_NET_DRAIN = "net.drain"
EV_NET_CHECKPOINT = "net.checkpoint"
EV_NET_RESTORE = "net.restore"
EV_NET_DUP_PUBLISH = "net.dup_publish"
EV_NET_FETCH_HELD = "net.fetch.held"
EV_NET_POOL_CREATE = "net.pool.create"
EV_NET_POOL_RETIRE = "net.pool.retire"

_FLIGHT_SPECS = (
    EventSpec(EV_STEP_BEGIN, "a timestep was sealed and handed to the drainer"),
    EventSpec(EV_STEP_COMMIT, "a step cleared the transport and became readable"),
    EventSpec(EV_STEP_LOST, "retries exhausted; the step's payload was discarded"),
    EventSpec(EV_STEP_ABORTED, "the step's transaction aborted; payload discarded"),
    EventSpec(EV_RETRY, "a drain attempt is being retried after a fault"),
    EventSpec(EV_FAULT, "the fault injector (or a real fault) hit one send"),
    EventSpec(EV_DEGRADE, "the stream fell down the transport ladder"),
    EventSpec(EV_BACKPRESSURE, "the writer blocked on a full drain queue"),
    EventSpec(EV_QUEUE_HIGH_WATER, "the drain queue reached a new high-water depth"),
    EventSpec(EV_LEASE_REAP, "a run's writer lease lapsed: the reaper failed the run"),
    EventSpec(EV_STREAM_FAILED, "a stream ended abnormally (writer death)"),
    EventSpec(EV_DRAIN_WEDGED, "a drainer thread failed to join at stop()"),
    EventSpec(EV_SANITIZER, "the concurrency sanitizer recorded a violation"),
    EventSpec(EV_HEALTH, "a stream's health verdict changed"),
    EventSpec(EV_PLUGIN_MIGRATE, "the placement controller migrated a codelet"),
    EventSpec(EV_FLIGHT_DUMP, "the recorder wrote a dump artifact"),
    EventSpec(EV_NET_CONNECT, "a client authenticated to the directory daemon"),
    EventSpec(EV_NET_DISCONNECT, "a client connection to the daemon ended"),
    EventSpec(EV_NET_STREAM_OPEN, "a named stream was opened through the daemon"),
    EventSpec(EV_NET_STEP_PUBLISH, "a writer published one step to the daemon broker"),
    EventSpec(EV_NET_STEP_FETCH, "a reader fetched one step from the daemon broker"),
    EventSpec(EV_ADMISSION_REJECT, "admission control rejected a tenant request"),
    EventSpec(EV_NET_RECONNECT, "a client rebuilt a connection after a network fault"),
    EventSpec(EV_NET_RESUME, "a session was resumed via its resume token"),
    EventSpec(EV_NET_SESSION_LOST, "reconnect retries were exhausted; session lost"),
    EventSpec(EV_NET_RETRY_AFTER, "the daemon asked a peer to back off (draining)"),
    EventSpec(EV_NET_DRAIN, "the daemon entered graceful drain"),
    EventSpec(EV_NET_CHECKPOINT, "the daemon wrote a durability checkpoint"),
    EventSpec(EV_NET_RESTORE, "the daemon restored state from a checkpoint"),
    EventSpec(EV_NET_DUP_PUBLISH, "the broker suppressed a duplicate republish"),
    EventSpec(EV_NET_FETCH_HELD, "a held FETCH ended (publish, end, fail, drain or expiry)"),
    EventSpec(EV_NET_POOL_CREATE, "a stream's first (or first larger) bulk run sized a slot pool"),
    EventSpec(EV_NET_POOL_RETIRE, "a pool generation was replaced; it dies with its last step"),
)

#: Flight event registry, keyed by code.
FLIGHT_EVENTS: dict[str, EventSpec] = {s.code: s for s in _FLIGHT_SPECS}


# ---------------------------------------------------------------------------
# Trace categories a PerfMonitor.record() call in src/ spells as a literal
# (span()/measure() categories are not record() names: FXL007 skips them).
# ---------------------------------------------------------------------------

_CATEGORY_SPECS = (
    EventSpec("transport", "one transport-level data movement (modelled duration)"),
)

#: Timed-region category registry, keyed by category name.
TRACE_CATEGORIES: dict[str, EventSpec] = {s.code: s for s in _CATEGORY_SPECS}

#: The vocabulary FXL007 validates record() literals against.
EVENT_CODES: frozenset[str] = frozenset(FLIGHT_EVENTS) | frozenset(TRACE_CATEGORIES)


def suggest(code: str) -> Optional[str]:
    """The closest flight event code to a misspelled one, if any."""
    matches = difflib.get_close_matches(code, sorted(FLIGHT_EVENTS), n=1)
    return matches[0] if matches else None
