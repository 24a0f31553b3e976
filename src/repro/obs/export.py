"""Trace exporters.

Two formats come out of the same record stream:

* **JSONL** — one ``TraceRecord.as_dict()`` per line, written by
  :meth:`PerfMonitor.dump`; backward compatible with the original flat
  dump and consumed by :mod:`repro.obs.analysis` and the
  ``repro.tools.trace`` CLI.
* **Chrome/Perfetto ``trace_event`` JSON** — loadable in
  ``ui.perfetto.dev`` (or ``chrome://tracing``).  Span records become
  complete ("X") events; each trace gets its own track (``tid``) so the
  writer→redistribute→transport→plug-in chain of one timestep nests
  visually; flat (span-less) records land on a shared "untraced" track.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

#: Keys of a span record (produced by PerfMonitor's span sink).
_SPAN_KEYS = ("trace_id", "span_id")

#: Fields that are rendered structurally, not as args.
_STRUCTURAL = {"category", "name", "start", "duration", "bytes",
               "trace_id", "span_id", "parent_id"}


def is_span_record(rec: dict) -> bool:
    return all(k in rec for k in _SPAN_KEYS)


def to_perfetto(records: Iterable[dict], process_name: str = "flexio") -> dict:
    """Convert dumped records to a Chrome ``trace_event`` JSON object.

    Timestamps are microseconds (the format's unit); record ``start``
    values are seconds (wall or simulated — either renders fine).

    Edge cases produce well-formed JSON rather than crashes or a trace
    the viewer rejects: an **empty** record stream yields a valid
    document with just the process-name metadata; a span still **open**
    at export time (``duration``/``start`` of ``None``) renders as a
    zero-length event tagged ``args["open"]``; **duplicate span ids**
    (the same record in two concatenated dumps) are emitted once, and
    distinct spans that collide on an id get a disambiguated ``span_id``
    so ids stay unique within a trace.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    #: (trace_id, span_id) -> exact-content fingerprint already emitted.
    seen_spans: dict[tuple, tuple] = {}

    def tid_for(trace_id: Optional[str]) -> int:
        key = trace_id or "<untraced>"
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tids[key],
                "args": {"name": f"trace {key}" if trace_id else "untraced"},
            })
        return tids[key]

    events.append({
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    })
    for rec in records:
        span = is_span_record(rec)
        args = {k: v for k, v in rec.items() if k not in _STRUCTURAL}
        args["bytes"] = rec.get("bytes", 0)
        start = rec.get("start")
        duration = rec.get("duration")
        if duration is None:
            args["open"] = True  # still running at export time
        if span:
            args["trace_id"] = rec["trace_id"]
            span_id = rec["span_id"]
            key = (rec["trace_id"], span_id)
            fingerprint = (
                rec.get("name"), rec.get("category"), start, duration,
                rec.get("parent_id"),
            )
            previous = seen_spans.get(key)
            if previous == fingerprint:
                continue  # the same span merged in twice — emit once
            if previous is not None:
                # A genuinely different span landed on a taken id: keep
                # it, but under a unique disambiguated id.
                n = 2
                while (rec["trace_id"], f"{span_id}~{n}") in seen_spans:
                    n += 1
                span_id = f"{span_id}~{n}"
                args["span_id_collision"] = rec["span_id"]
            seen_spans[(rec["trace_id"], span_id)] = fingerprint
            args["span_id"] = span_id
            if rec.get("parent_id"):
                args["parent_id"] = rec["parent_id"]
        events.append({
            "ph": "X",
            "name": rec.get("name", "?"),
            "cat": rec.get("category", "?"),
            "ts": float(start if start is not None else 0.0) * 1e6,
            "dur": max(float(duration if duration is not None else 0.0) * 1e6, 0.0),
            "pid": 1,
            "tid": tid_for(rec.get("trace_id") if span else None),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(records: Iterable[dict], path: str, process_name: str = "flexio") -> int:
    """Write the Perfetto JSON file; returns the number of events."""
    doc = to_perfetto(records, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
