"""Runtime performance monitoring (paper Section II.G).

Measurement points at all levels of the FlexIO stack record the timing of
data movement and DC plug-in execution and transferred data volumes;
memory is instrumented where it is allocated, by the pools' gauges
(``shm.pool.occupancy_bytes``, ``shm.pool.peak_bytes``,
``rdma.regcache.<side>.registered_bytes``).  Records serve two
consumers:

* **offline tuning** — the full trace can be dumped to a file (JSON lines)
  for post-mortem analysis;
* **runtime management** — online aggregates (per-category totals, rates,
  high-water marks) feed DC plug-in placement decisions.

**Three kinds of observation, one sink each** — a fact is written once
per kind it belongs to, never to two sinks of one kind under two names:

* a **timed region** (it took Δt) is a record of this module —
  ``span`` / ``measure`` / ``record`` with a real or simulated duration
  → trace buffer (when kept), per-category aggregate,
  ``latency.<category>`` histogram;
* a **point event** (it happened at *t*) is a flight event —
  ``flight.record(EV_*, stream=..., **attrs)`` → the bounded,
  timestamped, dump-on-fault ring of :mod:`repro.obs.recorder`;
* a **count or level** is a metric — ``monitor.metrics`` → ``/metrics``.

So a step committed, lost or retried is a flight event and a
counter, never a zero-duration record here, and a timed region is
recorded once: ``measure()`` *is* the span when its trace is kept and
the flat :class:`MeasurementPoint` otherwise.  Tracing is off by default
and costs one boolean test; a monitor that is not tracing need not keep
the per-record list either (``keep_trace=False`` — aggregates,
histograms and counters are fed regardless).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs import default_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import F_LATENCY, metric_name
from repro.obs.tracing import CURRENT, Span, Tracer

#: Core field names of a serialized record; ``extra`` keys colliding with
#: one of these are namespaced under an ``x.`` prefix on dump so they can
#: never clobber a core field and the round trip stays lossless.
_CORE_FIELDS = frozenset({"category", "name", "start", "duration", "bytes"})


@dataclass(frozen=True)
class TraceRecord:
    """One timed region."""

    category: str       # e.g. "writer_visible", "drain", "dc_plugin"
    name: str           # e.g. variable or plug-in name
    start: float        # seconds (simulated or wall, caller's choice)
    duration: float
    bytes: int = 0
    extra: tuple = ()   # ((key, value), ...) — hashable for frozen dataclass

    def as_dict(self) -> dict:
        d = {
            "category": self.category,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "bytes": self.bytes,
        }
        for k, v in self.extra:
            if k in _CORE_FIELDS or k.startswith("x."):
                k = f"x.{k}"
            d[k] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "TraceRecord":
        """Inverse of :meth:`as_dict` (lossless round trip)."""
        extra = []
        for k, v in d.items():
            if k in _CORE_FIELDS:
                continue
            extra.append((k[2:] if k.startswith("x.") else k, v))
        return TraceRecord(
            category=d["category"],
            name=d["name"],
            start=d["start"],
            duration=d["duration"],
            bytes=d.get("bytes", 0),
            extra=tuple(sorted(extra)),
        )


@dataclass
class CategoryAggregate:
    """Online rollup for one category."""

    count: int = 0
    total_time: float = 0.0
    total_bytes: int = 0
    max_duration: float = 0.0

    def observe(self, rec: TraceRecord) -> None:
        self.count += 1
        self.total_time += rec.duration
        self.total_bytes += rec.bytes
        self.max_duration = max(self.max_duration, rec.duration)

    @property
    def mean_duration(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    @property
    def throughput(self) -> float:
        """Bytes per second over the recorded busy time."""
        return self.total_bytes / self.total_time if self.total_time > 0 else 0.0


class MeasurementPoint:
    """A context manager instrumenting one operation.

    ``clock`` defaults to wall time; DES components pass ``lambda:
    env.now`` so records carry simulated time.
    """

    def __init__(
        self,
        monitor: "PerfMonitor",
        category: str,
        name: str,
        nbytes: int = 0,
        **extra: Any,
    ) -> None:
        self._monitor = monitor
        self._category = category
        self._name = name
        self._bytes = nbytes
        self._extra = extra
        self._start: Optional[float] = None

    def __enter__(self) -> "MeasurementPoint":
        self._start = self._monitor.clock()
        return self

    def add_bytes(self, n: int) -> None:
        self._bytes += n

    def __exit__(self, *exc: Any) -> None:
        assert self._start is not None
        end = self._monitor.clock()
        self._monitor.record(
            self._category,
            self._name,
            start=self._start,
            duration=end - self._start,
            nbytes=self._bytes,
            **self._extra,
        )


class PerfMonitor:
    """Per-process monitor: trace buffer + online aggregates + telemetry.

    ``tracing`` defaults to the process-wide setting from
    :func:`repro.obs.default_tracing` (off unless ``FLEXIO_TRACE`` is set
    or :func:`repro.obs.set_default_tracing` was called).  Tracing
    turns ``keep_trace`` on: spans have nowhere else to land.
    """

    def __init__(
        self,
        clock=None,
        keep_trace: bool = True,
        tracing: Optional[bool] = None,
        sample_rate: Optional[float] = None,
    ) -> None:
        self.clock = clock or time.perf_counter
        self.trace: list[TraceRecord] = []
        self.aggregates: dict[str, CategoryAggregate] = defaultdict(CategoryAggregate)
        #: Counters / gauges / histograms (transport stats land here).
        self.metrics = MetricsRegistry()
        default_enabled, default_rate = default_tracing()
        self.tracer = Tracer(
            sink=self._span_sink,
            clock=self.clock,
            enabled=default_enabled if tracing is None else bool(tracing),
            sample_rate=default_rate if sample_rate is None else float(sample_rate),
        )
        self.keep_trace = keep_trace or self.tracer.enabled

    # -- tracing -----------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self, sample_rate: float = 1.0) -> None:
        """Turn on span collection (``sample_rate`` keeps that fraction
        of traces, decided deterministically per root) and keep the
        trace they land in."""
        self.tracer.enable(sample_rate)
        self.keep_trace = True

    def span(self, category: str, name: str, parent: Any = CURRENT, nbytes: int = 0, **attrs: Any):
        """Open a span (context manager).  No-op when tracing is off.

        ``parent`` joins an existing trace (a ``SpanContext``), inherits
        the current span (default), or suppresses the span and all its
        descendants (``None`` — the upstream trace was sampled out).
        """
        return self.tracer.span(category, name, parent=parent, nbytes=nbytes, **attrs)

    def begin_span(self, category: str, name: str, parent: Any = CURRENT, nbytes: int = 0, **attrs: Any):
        """Open a manual span: caller calls ``.finish()`` — for
        event-driven code (DES events) whose end is in another stack."""
        return self.tracer.begin(category, name, parent=parent, nbytes=nbytes, **attrs)

    def _span_sink(self, span: Span) -> None:
        extra = dict(span.attrs)
        extra["trace_id"] = span.trace_id
        extra["span_id"] = span.span_id
        extra["parent_id"] = span.parent_id or ""
        self.record(
            span.category,
            span.name,
            start=span.start,
            duration=(span.end or span.start) - span.start,
            nbytes=span.nbytes,
            **extra,
        )

    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        name: str,
        start: float,
        duration: float,
        nbytes: int = 0,
        **extra: Any,
    ) -> TraceRecord:
        rec = TraceRecord(
            category, name, start, duration, nbytes, tuple(sorted(extra.items()))
        )
        if self.keep_trace:
            self.trace.append(rec)
        self.aggregates[category].observe(rec)
        self.metrics.histogram(metric_name(F_LATENCY, category)).observe(duration)
        return rec

    def measure(
        self, category: str, name: str, nbytes: int = 0, parent: Any = CURRENT, **extra: Any
    ):
        """Time one region, once: the span (``parent`` as in
        :meth:`span`) when its trace is kept, else — tracing off, trace
        sampled out, ``parent=None`` — the flat :class:`MeasurementPoint`,
        still timed and aggregated."""
        if self.tracer.enabled and (
            span := self.tracer.span(category, name, parent=parent, nbytes=nbytes, **extra)
        ).recording:
            return span  # a non-recording one is a no-op: nothing to close
        return MeasurementPoint(self, category, name, nbytes, **extra)

    # -- consumption --------------------------------------------------------
    def aggregate(self, category: str) -> CategoryAggregate:
        return self.aggregates[category]

    def categories(self) -> list[str]:
        return sorted(self.aggregates)

    def dump(self, path: str) -> int:
        """Write the trace as JSON lines; returns record count."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.trace:
                fh.write(json.dumps(rec.as_dict()) + "\n")
        return len(self.trace)

    @staticmethod
    def load(path: str) -> list[dict]:
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def export_perfetto(self, path: str, process_name: str = "flexio") -> int:
        """Write the trace as Chrome/Perfetto ``trace_event`` JSON
        (loadable in ``ui.perfetto.dev``); returns the event count."""
        from repro.obs.export import write_perfetto

        return write_perfetto(
            (rec.as_dict() for rec in self.trace), path, process_name=process_name
        )

    def merge_from(self, other: "PerfMonitor") -> None:
        """Online gathering: fold a remote monitor's state into ours.

        Models the paper's shipping of simulation-side monitoring data to
        the analytics side for runtime management.  Folds aggregates
        and the metrics registry (memory levels arrive there as the
        pools' gauges).
        """
        for category, agg in other.aggregates.items():
            mine = self.aggregates[category]
            mine.count += agg.count
            mine.total_time += agg.total_time
            mine.total_bytes += agg.total_bytes
            mine.max_duration = max(mine.max_duration, agg.max_duration)
        self.metrics.merge_from(other.metrics)

    def report(self) -> str:
        """Human-readable per-category summary (for logs and examples)."""
        lines = [
            f"{'category':20s} {'count':>7s} {'time(s)':>10s} "
            f"{'bytes':>14s} {'mean(s)':>10s} {'MB/s':>10s}"
        ]
        for cat in self.categories():
            agg = self.aggregates[cat]
            mbps = agg.throughput / 1e6
            lines.append(
                f"{cat:20s} {agg.count:7d} {agg.total_time:10.4f} "
                f"{agg.total_bytes:14d} {agg.mean_duration:10.6f} {mbps:10.2f}"
            )
        metric_lines = self.metrics.render()
        if metric_lines:
            lines.append("-- metrics --")
            lines.extend(metric_lines)
        return "\n".join(lines)

    def summary(self) -> dict[str, dict]:
        return {
            cat: {
                "count": agg.count,
                "total_time": agg.total_time,
                "total_bytes": agg.total_bytes,
                "mean_duration": agg.mean_duration,
                "throughput": agg.throughput,
            }
            for cat, agg in self.aggregates.items()
        }
