"""Snapshot deltas + stream health SLO verdicts + adaptive coupling."""

import pytest

from repro.obs.health import (
    DEGRADATIONS,
    LOSS_RATE_GAUGE,
    P99_GAUGE,
    QUEUE_DEPTH,
    RETRIES,
    STEPS_COMMITTED,
    STEPS_LOST,
    VERDICT_CODES,
    VERDICT_GAUGE,
    WRITER_LATENCY,
    HealthBoard,
    SLOPolicy,
    StreamHealthModel,
    Verdict,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import SnapshotCollector


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt
        return self.t


# ---------------------------------------------------------------------------
# SnapshotCollector
# ---------------------------------------------------------------------------

def test_collector_reports_deltas_and_rates():
    clock = FakeClock()
    reg = MetricsRegistry()
    col = SnapshotCollector(reg, clock=clock)
    reg.counter("c").inc(10)
    clock.tick(2.0)
    snap = col.collect()
    assert snap.interval == pytest.approx(2.0)
    assert snap.counter("c") == 10
    assert snap.delta("c") == 10
    assert snap.rate("c") == pytest.approx(5.0)
    # Second window only sees the new increments.
    reg.counter("c").inc(4)
    clock.tick(4.0)
    snap2 = col.collect()
    assert snap2.counter("c") == 14
    assert snap2.delta("c") == 4
    assert snap2.rate("c") == pytest.approx(1.0)
    assert col.collections == 2


def test_collector_exposes_gauges_and_histogram_percentiles():
    clock = FakeClock()
    reg = MetricsRegistry()
    col = SnapshotCollector(reg, clock=clock)
    reg.gauge("depth").set(7)
    for v in (0.01, 0.02, 0.5):
        reg.histogram("lat").observe(v)
    clock.tick()
    snap = col.collect()
    assert snap.gauge_value("depth") == 7
    assert snap.percentile("lat", "p99") == pytest.approx(0.5, rel=0.1)
    assert snap.gauge_value("missing", default=-1) == -1
    assert snap.percentile("missing") == 0.0
    assert snap.as_dict()["counters"] == {}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def _model(policy=None):
    clock = FakeClock()
    reg = MetricsRegistry()
    model = StreamHealthModel("s", reg, policy=policy, clock=clock)
    return clock, reg, model


def test_healthy_stream_stays_healthy():
    clock, reg, model = _model()
    reg.counter(STEPS_COMMITTED).inc(10)
    clock.tick()
    report = model.evaluate()
    assert report.verdict is Verdict.HEALTHY
    assert report.steps_per_s == pytest.approx(10.0)
    assert report.reasons == ()


def test_loss_beyond_slo_is_unhealthy():
    clock, reg, model = _model()
    reg.counter(STEPS_COMMITTED).inc(8)
    reg.counter(STEPS_LOST).inc(2)
    clock.tick()
    report = model.evaluate()
    assert report.verdict is Verdict.UNHEALTHY
    assert report.loss_rate == pytest.approx(0.2)
    assert any("loss rate" in r for r in report.reasons)


def test_loss_within_relaxed_slo_is_not_unhealthy():
    clock, reg, model = _model(SLOPolicy(max_loss_rate=0.5))
    reg.counter(STEPS_COMMITTED).inc(8)
    reg.counter(STEPS_LOST).inc(2)
    clock.tick()
    assert model.evaluate().verdict is Verdict.HEALTHY


def test_p99_retries_and_degradations_degrade():
    clock, reg, model = _model(SLOPolicy(max_p99_latency=0.1))
    reg.counter(STEPS_COMMITTED).inc(5)
    reg.histogram(WRITER_LATENCY).observe(2.0)
    clock.tick()
    report = model.evaluate()
    assert report.verdict is Verdict.DEGRADED
    assert any("p99" in r for r in report.reasons)

    clock2, reg2, model2 = _model()
    reg2.counter(STEPS_COMMITTED).inc(5)
    reg2.counter(RETRIES).inc(3)
    reg2.counter(DEGRADATIONS).inc(1)
    clock2.tick()
    report2 = model2.evaluate()
    assert report2.verdict is Verdict.DEGRADED
    assert report2.retries == 3
    assert len(report2.reasons) == 2


def test_stall_detection_requires_queued_work_and_no_progress():
    clock, reg, model = _model(SLOPolicy(stall_window=5.0))
    reg.counter(STEPS_COMMITTED).inc(1)
    reg.gauge(QUEUE_DEPTH).set(3)
    clock.tick(1.0)
    assert model.evaluate().verdict is Verdict.HEALTHY  # progress this window
    clock.tick(3.0)
    assert model.evaluate().verdict is Verdict.HEALTHY  # not stalled yet
    clock.tick(3.0)
    report = model.evaluate()  # 6s > stall_window with depth 3, no commits
    assert report.verdict is Verdict.STALLED
    assert any("queued" in r for r in report.reasons)
    # Progress resets the stall clock.
    reg.counter(STEPS_COMMITTED).inc(1)
    clock.tick(1.0)
    assert model.evaluate().verdict is Verdict.HEALTHY


def test_empty_queue_never_stalls():
    clock, reg, model = _model(SLOPolicy(stall_window=1.0))
    clock.tick(100.0)
    assert model.evaluate().verdict is Verdict.HEALTHY


def test_slo_policy_validation():
    with pytest.raises(ValueError):
        SLOPolicy(max_p99_latency=0)
    with pytest.raises(ValueError):
        SLOPolicy(max_loss_rate=1.5)
    with pytest.raises(ValueError):
        SLOPolicy(stall_window=-1)


# ---------------------------------------------------------------------------
# Publication: labeled gauges + flight events
# ---------------------------------------------------------------------------

def test_verdict_published_as_labeled_gauges():
    clock, reg, model = _model()
    reg.counter(STEPS_COMMITTED).inc(6)
    reg.counter(STEPS_LOST).inc(6)
    clock.tick()
    report = model.evaluate()
    labels = {"stream": "s"}
    assert reg.gauge(VERDICT_GAUGE, labels).value == VERDICT_CODES[Verdict.UNHEALTHY]
    assert reg.gauge(LOSS_RATE_GAUGE, labels).value == pytest.approx(0.5)
    assert reg.gauge(P99_GAUGE, labels).value == report.p99_latency
    # The labeled series is distinct from an unlabeled sibling.
    assert reg.gauge(VERDICT_GAUGE).value == 0.0


def test_verdict_change_lands_in_flight_recorder():
    from repro.obs import recorder
    from repro.obs.events import EV_HEALTH

    rec = recorder.reset()
    clock, reg, model = _model()
    reg.counter(STEPS_COMMITTED).inc(1)
    clock.tick()
    model.evaluate()                      # HEALTHY: first report records
    clock.tick()
    model.evaluate()                      # still HEALTHY: no new event
    reg.counter(STEPS_LOST).inc(5)
    clock.tick()
    model.evaluate()                      # UNHEALTHY: change records
    events = rec.events(code=EV_HEALTH, stream="s")
    assert [dict(e.attrs)["verdict"] for e in events] == [
        "healthy", "unhealthy"
    ]
    recorder.reset()


def test_health_board_samples_duck_typed_states():
    class FakeState:
        def __init__(self, reg):
            self.monitor = type("M", (), {"metrics": reg})()

    clock = FakeClock()
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter(STEPS_COMMITTED).inc(2)
    b.counter(STEPS_LOST).inc(2)
    board = HealthBoard(clock=clock)
    clock.tick()
    reports = board.sample({"a": FakeState(a), "b": FakeState(b)})
    assert reports["a"].verdict is Verdict.HEALTHY
    assert reports["b"].verdict is Verdict.UNHEALTHY
    # Models persist across samples (deltas, not totals).
    clock.tick()
    again = board.sample({"a": FakeState(a), "b": FakeState(b)})
    assert again["b"].verdict is Verdict.HEALTHY  # no NEW losses
