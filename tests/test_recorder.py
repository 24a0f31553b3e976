"""Flight recorder: ring semantics, concurrency, dump/load, fault hook."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import recorder
from repro.obs.events import (
    EV_FLIGHT_DUMP,
    EV_RETRY,
    EV_STEP_COMMIT,
    EV_STEP_LOST,
    EVENT_CODES,
    UnknownEventError,
)
from repro.obs.recorder import FlightEvent, FlightRecorder, load_dump


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt
        return self.t


@pytest.fixture(autouse=True)
def _fresh_process_recorder(monkeypatch):
    """Isolate the process-wide recorder and its dump state per test."""
    monkeypatch.delenv("FLEXIO_FLIGHT", raising=False)
    monkeypatch.delenv("FLEXIO_FLIGHT_DIR", raising=False)
    recorder.set_flight_dir(None)
    recorder.reset()
    yield
    recorder.set_flight_dir(None)
    recorder.reset()


# ---------------------------------------------------------------------------
# Ring semantics
# ---------------------------------------------------------------------------

def test_record_keeps_order_and_evicts_oldest():
    clock = FakeClock()
    rec = FlightRecorder(capacity=4, clock=clock)
    for step in range(6):
        clock.tick()
        rec.record(EV_STEP_COMMIT, stream="s", step=step)
    assert len(rec) == 4
    assert rec.total_recorded == 6
    assert rec.dropped == 2
    events = rec.events()
    assert [dict(e.attrs)["step"] for e in events] == [2, 3, 4, 5]
    assert [e.seq for e in events] == [3, 4, 5, 6]


def test_unknown_code_raises_with_suggestion():
    rec = FlightRecorder()
    with pytest.raises(UnknownEventError) as exc:
        rec.record("step.comit", stream="s")
    assert "step.commit" in str(exc.value)
    assert "step.comit" not in EVENT_CODES


def test_trace_category_is_not_a_flight_code():
    """The recorder takes flight codes only: the zero-duration record
    categories that used to double the point events are gone from the
    table, and the surviving trace category (``transport``) names a
    timed region, never an event."""
    from repro.obs.events import FLIGHT_EVENTS, TRACE_CATEGORIES

    assert set(TRACE_CATEGORIES) == {"transport"}
    assert not set(TRACE_CATEGORIES) & set(FLIGHT_EVENTS)
    rec = FlightRecorder()
    for category in (
        "fault", "drain_fault", "drain_recovered", "drain_error",
        "drain_wedged", "step_lost", "stream_publish", "stream_failed",
        "transport_degraded", "stream_read", "handshake", "redistribution",
        "dc_migration", "transport",
    ):
        assert category not in EVENT_CODES or category == "transport"
        with pytest.raises(UnknownEventError):
            rec.record(category, stream="s")
    assert len(rec) == 0


def test_events_filtering_window_code_stream_limit():
    clock = FakeClock()
    rec = FlightRecorder(clock=clock)
    rec.record(EV_STEP_COMMIT, stream="a", step=0)
    clock.tick(100.0)
    rec.record(EV_STEP_COMMIT, stream="a", step=1)
    rec.record(EV_STEP_LOST, stream="b", step=2)
    clock.tick(1.0)
    rec.record(EV_RETRY, stream="b", step=2, attempt=1)
    assert len(rec.events()) == 4
    assert [e.code for e in rec.events(window_s=30.0)] == [
        EV_STEP_COMMIT, EV_STEP_LOST, EV_RETRY
    ]
    assert [e.stream for e in rec.events(stream="b")] == ["b", "b"]
    assert [e.code for e in rec.events(code=EV_STEP_LOST)] == [EV_STEP_LOST]
    assert [dict(e.attrs)["step"] for e in rec.events(limit=2)] == [2, 2]


def test_event_round_trips_through_dict():
    rec = FlightRecorder(clock=FakeClock())
    ev = rec.record(EV_RETRY, stream="s", step=3, attempt=1)
    back = FlightEvent.from_dict(json.loads(json.dumps(ev.as_dict())))
    assert back == ev


# ---------------------------------------------------------------------------
# Concurrency: no torn events, strict (ts, seq) order under eviction
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=64),
    per_thread=st.integers(min_value=5, max_value=50),
    threads=st.integers(min_value=2, max_value=6),
)
def test_concurrent_producers_never_tear_and_keep_order(
    capacity, per_thread, threads
):
    rec = FlightRecorder(capacity=capacity)
    barrier = threading.Barrier(threads)

    def produce(tid):
        barrier.wait()
        for i in range(per_thread):
            rec.record(EV_STEP_COMMIT, stream=f"t{tid}", step=i, tid=tid)

    workers = [
        threading.Thread(target=produce, args=(t,)) for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()

    assert rec.total_recorded == threads * per_thread
    events = rec.events()
    assert len(events) == min(capacity, threads * per_thread)
    # Strict (ts, seq) order: seqs strictly increase and timestamps
    # never go backwards, even across evictions.
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))
    # No torn events: every attr tuple is self-consistent with its stream.
    for e in events:
        attrs = dict(e.attrs)
        assert e.code == EV_STEP_COMMIT
        assert e.stream == f"t{attrs['tid']}"
        assert 0 <= attrs["step"] < per_thread


def test_concurrent_producers_with_consumer_snapshots():
    rec = FlightRecorder(capacity=128)
    stop = threading.Event()
    seen_bad = []

    def consume():
        while not stop.is_set():
            events = rec.events()
            seqs = [e.seq for e in events]
            if seqs != sorted(seqs):
                seen_bad.append(seqs)

    consumer = threading.Thread(target=consume)
    consumer.start()
    workers = [
        threading.Thread(
            target=lambda t=t: [
                rec.record(EV_STEP_COMMIT, stream="s", step=i, tid=t)
                for i in range(200)
            ]
        )
        for t in range(4)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    stop.set()
    consumer.join()
    assert seen_bad == []
    assert rec.total_recorded == 800


# ---------------------------------------------------------------------------
# Dump / load
# ---------------------------------------------------------------------------

def test_dump_and_load_round_trip(tmp_path):
    from repro.core.monitoring import PerfMonitor

    clock = FakeClock()
    rec = FlightRecorder(clock=clock)
    mon = PerfMonitor()
    mon.metrics.counter("dataplane.drain.steps_committed").inc(5)
    rec.record(EV_STEP_COMMIT, stream="s", step=0)
    clock.tick()
    rec.record(EV_STEP_LOST, stream="s", step=1, error="boom")
    path = rec.dump(str(tmp_path / "f.json"), reason="test", monitor=mon)
    doc = load_dump(path)
    assert doc["reason"] == "test"
    assert [e["code"] for e in doc["events"]] == [EV_STEP_COMMIT, EV_STEP_LOST]
    assert doc["metrics"]["counters"]["dataplane.drain.steps_committed"] == 5


def test_dump_window_excludes_old_events(tmp_path):
    clock = FakeClock()
    rec = FlightRecorder(clock=clock)
    rec.record(EV_STEP_COMMIT, stream="s", step=0)
    clock.tick(100.0)
    rec.record(EV_STEP_LOST, stream="s", step=1)
    doc = rec.dump_dict(window_s=30.0)
    assert [e["step"] for e in doc["events"]] == [1]


def test_load_dump_rejects_non_flight_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"other": 1}')
    with pytest.raises(ValueError):
        load_dump(str(path))


# ---------------------------------------------------------------------------
# Process-wide recorder + fault hook
# ---------------------------------------------------------------------------

def test_env_disables_process_recorder(monkeypatch):
    monkeypatch.setenv("FLEXIO_FLIGHT", "0")
    assert recorder.get() is None
    assert recorder.record(EV_STEP_COMMIT, stream="s") is None
    monkeypatch.setenv("FLEXIO_FLIGHT", "1")
    assert recorder.get() is not None


def test_dump_on_fault_needs_a_configured_dir(tmp_path):
    recorder.record(EV_STEP_LOST, stream="s", step=0)
    assert recorder.dump_on_fault("lost", stream="s") is None  # no dir
    recorder.set_flight_dir(str(tmp_path))
    path = recorder.dump_on_fault("lost", stream="s")
    assert path is not None
    doc = load_dump(path)
    assert doc["reason"] == "lost"
    codes = [e["code"] for e in doc["events"]]
    assert EV_STEP_LOST in codes
    assert EV_FLIGHT_DUMP in codes  # the dump records itself


def test_dump_on_fault_caps_artifacts_and_sanitizes_names(tmp_path):
    recorder.set_flight_dir(str(tmp_path))
    paths = [
        recorder.dump_on_fault("lost", stream="evil/../name")
        for _ in range(recorder.MAX_AUTO_DUMPS + 3)
    ]
    written = [p for p in paths if p is not None]
    assert len(written) == recorder.MAX_AUTO_DUMPS
    assert all("/.." not in p.rsplit("/", 1)[-1] for p in written)
    assert len(list(tmp_path.glob("flight-*.json"))) == recorder.MAX_AUTO_DUMPS


def test_flight_dir_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("FLEXIO_FLIGHT_DIR", str(tmp_path))
    recorder.record(EV_STEP_LOST, stream="s")
    assert recorder.dump_on_fault("lost", stream="s") is not None
    assert list(tmp_path.glob("flight-*.json"))
