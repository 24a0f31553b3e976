"""Tests for performance monitoring."""

import pytest

from repro.core import PerfMonitor


def test_record_and_aggregate():
    mon = PerfMonitor()
    mon.record("data_movement", "zion", start=0.0, duration=2.0, nbytes=100)
    mon.record("data_movement", "zion", start=2.0, duration=4.0, nbytes=300)
    agg = mon.aggregate("data_movement")
    assert agg.count == 2
    assert agg.total_time == 6.0
    assert agg.total_bytes == 400
    assert agg.mean_duration == 3.0
    assert agg.max_duration == 4.0
    assert agg.throughput == pytest.approx(400 / 6.0)


def test_measure_context_manager_uses_clock():
    t = [0.0]

    def clock():
        return t[0]

    mon = PerfMonitor(clock=clock)
    with mon.measure("handshake", "step0", nbytes=64):
        t[0] = 1.5
    rec = mon.trace[0]
    assert rec.start == 0.0
    assert rec.duration == 1.5
    assert rec.bytes == 64


def test_measure_add_bytes():
    mon = PerfMonitor(clock=lambda: 0.0)
    with mon.measure("x", "y") as m:
        m.add_bytes(10)
        m.add_bytes(5)
    assert mon.trace[0].bytes == 15


def test_extra_fields_survive_round_trip(tmp_path):
    mon = PerfMonitor(clock=lambda: 0.0)
    mon.record("dc_plugin", "sampler", 0.0, 0.1, nbytes=7, side="writer")
    path = str(tmp_path / "trace.jsonl")
    n = mon.dump(path)
    assert n == 1
    loaded = PerfMonitor.load(path)
    assert loaded[0]["side"] == "writer"
    assert loaded[0]["category"] == "dc_plugin"


def test_trace_disabled_still_aggregates():
    mon = PerfMonitor(keep_trace=False)
    mon.record("c", "n", 0.0, 1.0, nbytes=10)
    assert mon.trace == []
    assert mon.aggregate("c").count == 1


def test_merge_from_remote_monitor():
    """Simulation-side monitoring gathered to the analytics side."""
    sim = PerfMonitor()
    sim.record("data_movement", "a", 0.0, 1.0, nbytes=10)
    ana = PerfMonitor()
    ana.record("data_movement", "b", 0.0, 2.0, nbytes=20)
    ana.merge_from(sim)
    agg = ana.aggregate("data_movement")
    assert agg.count == 2
    assert agg.total_bytes == 30
    assert agg.max_duration == 2.0


def test_summary_and_categories():
    mon = PerfMonitor()
    mon.record("b_cat", "x", 0.0, 1.0)
    mon.record("a_cat", "y", 0.0, 2.0, nbytes=4)
    assert mon.categories() == ["a_cat", "b_cat"]
    s = mon.summary()
    assert s["a_cat"]["total_bytes"] == 4
    assert s["b_cat"]["count"] == 1


def test_empty_aggregate_is_safe():
    mon = PerfMonitor()
    agg = mon.aggregate("never_seen")
    assert agg.count == 0
    assert agg.mean_duration == 0.0
    assert agg.throughput == 0.0
