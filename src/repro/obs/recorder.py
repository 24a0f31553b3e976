"""Always-on flight recorder: a fixed-capacity ring of compact events.

Tracing (:mod:`repro.obs.tracing`) is opt-in and post-hoc: it explains a
run after it ends, if someone remembered ``trace=true``.  Long-running
coupled pipelines need the opposite: something that is *always* armed,
costs next to nothing while the stream is healthy, and — the moment a
step is LOST, a drainer wedges, or a chaos invariant fails — can answer
"what happened in the last thirty seconds?".

That is a flight recorder:

* a **fixed-capacity ring buffer** (:class:`FlightRecorder`) of compact
  structured events — step begin/commit/LOST/ABORTED, retries, injected
  faults, lease reaps, queue high-water marks,
  sanitizer violations — appended under one tiny lock so concurrent
  producers never tear an event and eviction keeps strict
  ``(timestamp, seq)`` order — the one sink of every *point event* of
  the data plane (none is also written to a monitor's trace);
* every event code comes from the central table
  (:data:`repro.obs.events.FLIGHT_EVENTS`); an unregistered code raises,
  and the FlexLint FXL007 rule enforces the same at the call site
  statically;
* on any fault, :func:`dump_on_fault` writes the last ``window_s``
  seconds of events plus a metrics snapshot (and, when the monitor was
  tracing, its span records) to a JSON artifact that
  ``repro.tools.trace --flight`` renders: timeline, the faults-and-
  recovery summary read off it, the stage breakdown of the spans.

Enablement: on by default (``FLEXIO_FLIGHT=0`` disables).  Dump
artifacts are written only when a directory is configured — via
``FLEXIO_FLIGHT_DIR``, :func:`set_flight_dir`, or an explicit ``path``
— so ordinary test runs never litter the working tree.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.obs.events import FLIGHT_EVENTS, UnknownEventError, suggest

#: Version stamp of the dump schema (the ``--flight`` loader checks it).
DUMP_SCHEMA = 1

#: Default ring capacity (events); at ~2 events per step this covers
#: thousands of steps of history.
DEFAULT_CAPACITY = 8192

#: Default look-back window of a fault dump, in seconds.
DEFAULT_WINDOW_S = 30.0

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


@dataclass(frozen=True, slots=True)
class FlightEvent:
    """One recorded event: compact, immutable, safely shareable."""

    ts: float
    seq: int
    code: str
    stream: str
    attrs: tuple  # ((key, value), ...) — hashable, never torn

    def as_dict(self) -> dict:
        d = {"ts": self.ts, "seq": self.seq, "code": self.code,
             "stream": self.stream}
        for k, v in self.attrs:
            d[k] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "FlightEvent":
        extra = tuple(sorted(
            (k, v) for k, v in d.items()
            if k not in ("ts", "seq", "code", "stream")
        ))
        return FlightEvent(
            ts=float(d["ts"]), seq=int(d["seq"]), code=str(d["code"]),
            stream=str(d.get("stream", "")), attrs=extra,
        )


class FlightRecorder:
    """Lock-light fixed-capacity event ring.

    One small lock serializes the ``(clock read, seq bump, append)``
    triple, which is what guarantees strict ``(ts, seq)`` order under
    concurrent producers — the alternative (lock-free append) can
    interleave a later timestamp before an earlier one.  The critical
    section is a clock read plus a deque append (~1 µs), far below the
    cost of the data movement it observes; the disabled path is a single
    attribute test.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, clock=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.clock = clock or time.monotonic
        self._ring: deque[FlightEvent] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.enabled = True

    # -- producers ---------------------------------------------------------
    def record(self, code: str, stream: str = "", **attrs: Any) -> Optional[FlightEvent]:
        """Append one event; returns it (or None when disabled).

        ``code`` must be a flight code of the central event table
        (:data:`repro.obs.events.FLIGHT_EVENTS`) — anything else raises
        :class:`~repro.obs.events.UnknownEventError` with a suggestion.
        """
        if not self.enabled:
            return None
        if code not in FLIGHT_EVENTS:
            raise UnknownEventError(code, suggest(code))
        extra = tuple(sorted(attrs.items()))
        with self._lock:
            self._seq += 1
            ev = FlightEvent(self.clock(), self._seq, code, stream, extra)
            self._ring.append(ev)
        return ev

    # -- consumers ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (including those the ring evicted)."""
        with self._lock:
            return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted by the ring so far."""
        with self._lock:
            return self._seq - len(self._ring)

    def events(
        self,
        window_s: Optional[float] = None,
        code: Optional[str] = None,
        stream: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[FlightEvent]:
        """Snapshot of the ring, oldest first, optionally filtered.

        ``window_s`` keeps only events within that many seconds of the
        newest event; ``limit`` keeps the newest N after filtering.
        """
        with self._lock:
            out = list(self._ring)
        if window_s is not None and out:
            horizon = out[-1].ts - float(window_s)
            out = [e for e in out if e.ts >= horizon]
        if code is not None:
            out = [e for e in out if e.code == code]
        if stream is not None:
            out = [e for e in out if e.stream == stream]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seq = 0

    # -- dumping -----------------------------------------------------------
    def dump_dict(
        self,
        reason: str = "",
        monitor=None,
        window_s: float = DEFAULT_WINDOW_S,
    ) -> dict:
        """The dump artifact as a JSON-friendly dict.

        Includes the windowed event timeline, a metrics snapshot, and —
        when the monitor kept a trace — its records, so the ``--flight``
        renderer can reuse the stage-breakdown and bottleneck machinery.
        """
        events = self.events(window_s=window_s)
        doc: dict = {
            "flexio_flight": DUMP_SCHEMA,
            "reason": reason,
            "dumped_at": time.time(),
            "window_s": window_s,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [e.as_dict() for e in events],
        }
        if monitor is not None:
            doc["metrics"] = monitor.metrics.snapshot()
            if getattr(monitor, "keep_trace", False):
                doc["records"] = [r.as_dict() for r in monitor.trace]
        return doc

    def dump(
        self,
        path: str,
        reason: str = "",
        monitor=None,
        window_s: float = DEFAULT_WINDOW_S,
    ) -> str:
        """Write the dump artifact; returns ``path``."""
        doc = self.dump_dict(reason=reason, monitor=monitor, window_s=window_s)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)
        return path


def load_dump(path: str) -> dict:
    """Load a dump artifact, checking the schema stamp."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "flexio_flight" not in doc:
        raise ValueError(f"{path}: not a FlexIO flight dump")
    return doc


# ---------------------------------------------------------------------------
# Process-wide recorder (always on unless FLEXIO_FLIGHT says otherwise)
# ---------------------------------------------------------------------------

_recorder: Optional[FlightRecorder] = None
_recorder_lock = threading.Lock()
_flight_dir: Optional[str] = None
_dump_seq = 0
#: Cap on automatic fault dumps per process (a lossy chaos run must not
#: write hundreds of artifacts); explicit dump() calls are uncapped.
MAX_AUTO_DUMPS = 8


def _env_enabled() -> bool:
    return os.environ.get("FLEXIO_FLIGHT", "").strip().lower() not in _FALSY


def get() -> Optional[FlightRecorder]:
    """The process-wide recorder, or None when disabled via env."""
    global _recorder
    if not _env_enabled():
        return None
    if _recorder is None:
        with _recorder_lock:
            if _recorder is None:
                _recorder = FlightRecorder()
    return _recorder


def record(code: str, stream: str = "", **attrs: Any) -> Optional[FlightEvent]:
    """Record one event on the process-wide recorder (no-op when off)."""
    rec = get()
    if rec is None:
        return None
    return rec.record(code, stream=stream, **attrs)


def reset(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Fresh process-wide recorder (chaos harness / test isolation)."""
    global _recorder, _dump_seq
    with _recorder_lock:
        _recorder = FlightRecorder(capacity=capacity)
        _dump_seq = 0
    return _recorder


def set_flight_dir(path: Optional[str]) -> None:
    """Configure (or clear) the automatic-dump directory programmatically."""
    global _flight_dir
    _flight_dir = path


def flight_dir() -> Optional[str]:
    """Where fault dumps go: explicit setting first, then env."""
    if _flight_dir is not None:
        return _flight_dir
    env = os.environ.get("FLEXIO_FLIGHT_DIR", "").strip()
    return env or None


def dump_on_fault(
    reason: str,
    stream: str = "",
    monitor=None,
    window_s: float = DEFAULT_WINDOW_S,
) -> Optional[str]:
    """Fault hook: write a dump artifact if a flight dir is configured.

    Returns the artifact path, or None when dumping is off (no dir), the
    recorder is disabled, or the per-process auto-dump cap was reached.
    Never raises — a failing dump must not compound the original fault.
    """
    global _dump_seq
    rec = get()
    directory = flight_dir()
    if rec is None or directory is None:
        return None
    with _recorder_lock:
        if _dump_seq >= MAX_AUTO_DUMPS:
            return None
        _dump_seq += 1
        n = _dump_seq
    safe_stream = "".join(
        c if (c.isalnum() or c in "._-") else "_" for c in stream
    ) or "stream"
    path = os.path.join(
        directory, f"flight-{safe_stream}-{os.getpid()}-{n:03d}.json"
    )
    try:
        os.makedirs(directory, exist_ok=True)
        rec.record("flight.dump", stream=stream, reason=reason, path=path)
        rec.dump(path, reason=reason, monitor=monitor, window_s=window_s)
    except OSError:
        return None
    return path
