"""Unified observability layer for the FlexIO stack (Section II.G, grown up).

The post-hoc pieces, all feeding one record stream:

* :mod:`repro.obs.tracing` — span-based tracing with trace/span/parent
  IDs propagated writer → handshake → redistribution → transport → DC
  plug-in, so one timestep can be followed end to end;
* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed
  histograms with percentile queries (per-stream/per-tenant labels);
* :mod:`repro.obs.export` — JSONL (via ``PerfMonitor.dump``) and
  Chrome/Perfetto ``trace_event`` JSON, loadable in ``ui.perfetto.dev``;
* :mod:`repro.obs.analysis` — per-stage breakdowns, critical-path
  extraction, and bottleneck hints for the advisor and the adaptive
  controllers.

And the always-on telemetry plane (DESIGN.md §12):

* :mod:`repro.obs.events` — the central event-code table (enforced at
  run time by the recorder and statically by FlexLint FXL007);
* :mod:`repro.obs.recorder` — the flight recorder: a fixed-capacity
  ring of compact events, dumped to a JSON artifact on any fault;
* :mod:`repro.obs.snapshot` / :mod:`repro.obs.health` — periodic delta
  snapshots of the metrics registry feeding per-stream SLO verdicts;
* :mod:`repro.obs.live` — loopback HTTP export: Prometheus text
  exposition, flight-event JSONL tail, health/stream JSON;
* :mod:`repro.obs.sanitize` — the runtime concurrency sanitizer
  (``FLEXIO_SANITIZE=1``, DESIGN.md §10), imported by the data plane.

Tracing is off by default (the hot path pays one boolean test).  Enable
it per monitor (``monitor.enable_tracing()``), per stream via the XML
hint ``trace=true``, globally via :func:`set_default_tracing`, or with
the ``FLEXIO_TRACE=1`` environment variable.  The flight recorder is
the opposite: on by default, disabled with ``FLEXIO_FLIGHT=0``.
"""

from __future__ import annotations

import os

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "analysis": "BottleneckHint CriticalHop FaultSummary SpanNode StageStat "
                "build_traces critical_path fault_summary find_bottleneck "
                "longest_trace stage_breakdown",
    "events": "EVENT_CODES EventSpec UnknownEventError",
    "export": "is_span_record to_perfetto write_perfetto",
    "health": "HealthBoard HealthReport SLOPolicy StreamHealthModel Verdict",
    "live": "LiveTelemetryServer render_prometheus validate_exposition",
    "metrics": "Counter Gauge Histogram MetricsRegistry",
    "recorder": "FlightEvent FlightRecorder load_dump",
    "snapshot": "DeltaSnapshot SnapshotCollector",
    "tracing": "CURRENT NOOP_SPAN Span SpanContext Tracer",
})
__all__ += ["default_tracing", "set_default_tracing"]

_DEFAULT = {"enabled": False, "sample_rate": 1.0}

_TRUTHY = ("1", "true", "yes", "on")


def set_default_tracing(enabled: bool, sample_rate: float = 1.0) -> None:
    """Process-wide default applied to monitors created afterwards."""
    _DEFAULT["enabled"] = bool(enabled)
    _DEFAULT["sample_rate"] = float(sample_rate)


def default_tracing() -> tuple[bool, float]:
    """(enabled, sample_rate) for a new monitor; honours ``FLEXIO_TRACE``."""
    env = os.environ.get("FLEXIO_TRACE", "").strip().lower()
    if env in _TRUTHY:
        return True, float(_DEFAULT["sample_rate"])
    return bool(_DEFAULT["enabled"]), float(_DEFAULT["sample_rate"])
