"""Per-stream health model: SLO evaluation over snapshot telemetry.

The flight recorder answers "what happened"; this module answers "is the
stream OK *right now*".  A :class:`StreamHealthModel` samples one
stream's metrics registry through a :class:`~repro.obs.snapshot.SnapshotCollector`
and grades the window against an :class:`SLOPolicy`:

* **p99 step latency** — the ``latency.writer_visible`` histogram must
  stay under ``max_p99_latency``;
* **loss rate** — LOST/ABORTED steps as a fraction of steps finished in
  the window must stay at or under ``max_loss_rate``;
* **stall detection** — steps queued behind the drainer with no commit
  progress for ``stall_window`` seconds means the pipeline is wedged.

Verdicts are published back into the same registry as **labeled
gauges** (``health.verdict{stream="..."}``, numeric per
:data:`VERDICT_CODES`) so they ride the existing snapshot/merge/export
machinery and recorded as flight events on every change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from repro.obs import recorder as flight
from repro.obs.events import EV_HEALTH
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import DeltaSnapshot, SnapshotCollector

#: Metric series the model reads (written by the stream data plane).
STEPS_COMMITTED = "dataplane.drain.steps_committed"
BYTES_COMMITTED = "dataplane.drain.bytes_committed"
STEPS_LOST = "dataplane.drain.steps_lost"
RETRIES = "dataplane.drain.retries"
QUEUE_DEPTH = "dataplane.drain.queue_depth"
WRITER_LATENCY = "latency.writer_visible"

#: Gauge names the model publishes (always with a ``stream`` label).
VERDICT_GAUGE = "health.verdict"
STEPS_PER_S_GAUGE = "health.steps_per_s"
LOSS_RATE_GAUGE = "health.loss_rate"
P99_GAUGE = "health.p99_latency"


class Verdict(Enum):
    """Health grade of one stream over the last window."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"      # working, but paying retries or latency
    UNHEALTHY = "unhealthy"    # losing data beyond the SLO
    STALLED = "stalled"        # queued work, no commit progress


#: Numeric encoding used when a verdict is published as a gauge.
VERDICT_CODES: dict[Verdict, int] = {
    Verdict.HEALTHY: 0,
    Verdict.DEGRADED: 1,
    Verdict.UNHEALTHY: 2,
    Verdict.STALLED: 3,
}


@dataclass(frozen=True)
class SLOPolicy:
    """Service-level objectives one stream is graded against."""

    #: p99 writer-visible step latency ceiling (seconds).
    max_p99_latency: float = 1.0
    #: Allowed fraction of steps LOST/ABORTED per window (0 = none).
    max_loss_rate: float = 0.0
    #: Seconds of queued-but-uncommitted inactivity before STALLED.
    stall_window: float = 5.0

    def __post_init__(self) -> None:
        if self.max_p99_latency <= 0:
            raise ValueError("max_p99_latency must be positive")
        if not (0.0 <= self.max_loss_rate <= 1.0):
            raise ValueError("max_loss_rate in [0, 1]")
        if self.stall_window <= 0:
            raise ValueError("stall_window must be positive")


@dataclass(frozen=True)
class HealthReport:
    """One evaluation of one stream."""

    stream: str
    verdict: Verdict
    at: float
    steps_per_s: float
    bytes_per_s: float
    p99_latency: float
    loss_rate: float
    retries: float            # retry attempts this window
    queue_depth: float
    reasons: tuple[str, ...]  # why the verdict is not HEALTHY

    @property
    def code(self) -> int:
        return VERDICT_CODES[self.verdict]

    def as_dict(self) -> dict:
        return {
            "stream": self.stream,
            "verdict": self.verdict.value,
            "at": self.at,
            "steps_per_s": self.steps_per_s,
            "bytes_per_s": self.bytes_per_s,
            "p99_latency": self.p99_latency,
            "loss_rate": self.loss_rate,
            "retries": self.retries,
            "queue_depth": self.queue_depth,
            "reasons": list(self.reasons),
        }


class StreamHealthModel:
    """Grades one stream; publishes its verdict as labeled gauges."""

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry,
        policy: Optional[SLOPolicy] = None,
        clock=None,
        extra_labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.name = name
        self.registry = registry
        self.policy = policy or SLOPolicy()
        self.clock = clock or time.monotonic
        #: Extra labels on every published gauge (tenant, shard, ...).
        self.extra_labels = dict(extra_labels) if extra_labels else {}
        self.collector = SnapshotCollector(registry, clock=self.clock)
        self.last_report: Optional[HealthReport] = None
        #: Clock time of the last observed commit progress.
        self._last_progress = self.clock()

    def evaluate(self, snap: Optional[DeltaSnapshot] = None) -> HealthReport:
        """Grade the window since the previous evaluation."""
        policy = self.policy
        if snap is None:
            snap = self.collector.collect()
        committed = snap.delta(STEPS_COMMITTED)
        lost = snap.delta(STEPS_LOST)
        finished = committed + lost
        loss_rate = lost / finished if finished > 0 else 0.0
        p99 = snap.percentile(WRITER_LATENCY, "p99")
        queue_depth = snap.gauge_value(QUEUE_DEPTH)
        if committed > 0:
            self._last_progress = snap.at
        stalled_for = snap.at - self._last_progress

        reasons: list[str] = []
        if queue_depth > 0 and committed == 0 and stalled_for >= policy.stall_window:
            verdict = Verdict.STALLED
            reasons.append(
                f"{queue_depth:g} step(s) queued, no commit for {stalled_for:.1f}s "
                f"(stall_window {policy.stall_window:g}s)"
            )
        elif loss_rate > policy.max_loss_rate:
            verdict = Verdict.UNHEALTHY
            reasons.append(
                f"loss rate {loss_rate:.3f} > SLO {policy.max_loss_rate:g}"
            )
        else:
            verdict = Verdict.HEALTHY
            if p99 > policy.max_p99_latency:
                verdict = Verdict.DEGRADED
                reasons.append(
                    f"p99 latency {p99:.4f}s > SLO {policy.max_p99_latency:g}s"
                )
            if snap.delta(RETRIES) > 0:
                verdict = Verdict.DEGRADED
                reasons.append(f"{snap.delta(RETRIES):g} retry attempt(s)")

        report = HealthReport(
            stream=self.name,
            verdict=verdict,
            at=snap.at,
            steps_per_s=snap.rate(STEPS_COMMITTED),
            bytes_per_s=snap.rate(BYTES_COMMITTED),
            p99_latency=p99,
            loss_rate=loss_rate,
            retries=snap.delta(RETRIES),
            queue_depth=queue_depth,
            reasons=tuple(reasons),
        )
        self._publish(report)
        return report

    def _publish(self, report: HealthReport) -> None:
        labels = {"stream": self.name, **self.extra_labels}
        self.registry.gauge(VERDICT_GAUGE, labels).set(report.code)
        self.registry.gauge(STEPS_PER_S_GAUGE, labels).set(report.steps_per_s)
        self.registry.gauge(LOSS_RATE_GAUGE, labels).set(report.loss_rate)
        self.registry.gauge(P99_GAUGE, labels).set(report.p99_latency)
        previous = self.last_report
        if previous is None or previous.verdict is not report.verdict:
            flight.record(
                EV_HEALTH, stream=self.name, verdict=report.verdict.value,
                reasons="; ".join(report.reasons),
            )
        self.last_report = report


class HealthBoard:
    """Health models for every live stream (the monitor CLI's backend).

    ``sample`` takes a mapping of stream name → object exposing a
    ``monitor`` attribute (duck-typed on
    :class:`~repro.core.stream.StreamState`, so this module stays free of
    core imports) and returns one report per stream, creating models on
    first sight.
    """

    def __init__(self, policy: Optional[SLOPolicy] = None, clock=None) -> None:
        self.policy = policy or SLOPolicy()
        self.clock = clock
        self._models: dict[str, StreamHealthModel] = {}

    def model(
        self,
        name: str,
        registry: MetricsRegistry,
        extra_labels: Optional[Mapping[str, object]] = None,
    ) -> StreamHealthModel:
        model = self._models.get(name)
        if model is None or model.registry is not registry:
            model = StreamHealthModel(
                name, registry, policy=self.policy, clock=self.clock,
                extra_labels=extra_labels,
            )
            self._models[name] = model
        return model

    def sample(self, states: Mapping[str, object]) -> dict[str, HealthReport]:
        reports: dict[str, HealthReport] = {}
        for name, state in sorted(states.items()):
            registry = state.monitor.metrics
            tenant = getattr(state, "tenant", None)
            extra = {"tenant": tenant} if tenant else None
            reports[name] = self.model(name, registry, extra).evaluate()
        return reports
