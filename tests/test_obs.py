"""Tests for the observability layer: tracing, metrics, export, analysis."""

import json

import numpy as np
import pytest

from repro.core.monitoring import PerfMonitor, TraceRecord
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    build_traces,
    critical_path,
    find_bottleneck,
    is_span_record,
    stage_breakdown,
    to_perfetto,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt
        return self.t


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_span_nesting_shares_trace_and_links_parent():
    clock = FakeClock()
    mon = PerfMonitor(clock=clock, tracing=True)
    with mon.span("write", "s") as outer:
        clock.tick(1.0)
        with mon.span("transport", "s") as inner:
            clock.tick(0.5)
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    spans = [dict(r.extra) for r in mon.trace if "trace_id" in dict(r.extra)]
    assert len(spans) == 2
    by_id = {s["span_id"]: s for s in spans}
    assert by_id[inner.span_id]["parent_id"] == outer.span_id
    assert by_id[outer.span_id]["parent_id"] == ""


def test_disabled_tracing_is_noop_and_adds_no_records():
    mon = PerfMonitor(tracing=False)
    before = len(mon.trace)
    with mon.span("write", "s") as sp:
        sp.set_attr("k", 1)
        sp.add_bytes(10)
    assert sp is NOOP_SPAN
    assert mon.begin_span("write", "s") is NOOP_SPAN
    assert len(mon.trace) == before
    assert not mon.tracing_enabled


def test_explicit_context_parent_crosses_monitors():
    # Writer and reader sides have distinct monitors in the real system;
    # the SpanContext carried with a published step stitches them.
    clock = FakeClock()
    mon = PerfMonitor(clock=clock, tracing=True)
    with mon.span("write", "s") as w:
        clock.tick(1.0)
        ctx = w.context
    with mon.span("read", "s", parent=ctx) as r:
        clock.tick(0.2)
    assert r.trace_id == w.trace_id
    assert r.parent_id == w.span_id


def test_sampling_suppresses_whole_trace():
    clock = FakeClock()
    mon = PerfMonitor(clock=clock, tracing=True, sample_rate=0.5)
    kept = 0
    for _ in range(10):
        with mon.span("write", "s") as root:
            with mon.span("transport", "s") as child:
                clock.tick(0.1)
            # A sampled-out root must suppress its descendants too —
            # no orphan traces.
            assert child.recording == root.recording
        kept += 1 if root.recording else 0
    assert kept == 5
    spans = [dict(r.extra) for r in mon.trace if "trace_id" in dict(r.extra)]
    assert len(spans) == 2 * kept


def test_stream_pipeline_spans_share_one_trace_per_step():
    from repro.adios import BoundingBox, RankContext
    from repro.core import FlexIO

    cfg = """
    <adios-config>
      <adios-group name="g">
        <var name="phi" type="float64" dimensions="8,8"/>
      </adios-group>
      <method group="g" method="FLEXPATH">trace=true</method>
    </adios-config>
    """
    flexio = FlexIO.from_xml(cfg)
    writers = [
        flexio.open_write("g", "obs.pipe", RankContext(r, 2)) for r in range(2)
    ]
    for r, w in enumerate(writers):
        w.write("phi", np.ones((4, 8)) * r,
                box=BoundingBox((r * 4, 0), (4, 8)), global_shape=(8, 8))
        w.end_step()
    for w in writers:
        w.close()
    reader = flexio.open_read("g", "obs.pipe", RankContext(0, 1))
    out = reader.read("phi")
    assert out.shape == (8, 8)
    mon = reader.monitor
    assert mon is writers[0].monitor  # one stream, one monitor
    spans = [dict(r.extra) | {"category": r.category}
             for r in mon.trace if "trace_id" in dict(r.extra)]
    trace_ids = {s["trace_id"] for s in spans}
    assert len(trace_ids) == 1
    cats = {s["category"] for s in spans}
    assert {"write", "read", "redistribute", "transport"} <= cats


def test_writer_side_plugin_spans_join_their_steps_write_trace():
    """The writer-side chain runs inside its step's ``write`` span: each
    rank's ``dc_plugin`` span (``side=writer``) carries that step's trace
    id, under the write root."""
    from repro.adios import RankContext
    from repro.core import FlexIO, PluginSide
    from repro.core.plugins import sampling_plugin

    flexio = FlexIO.from_xml("""
    <adios-config>
      <adios-group name="g"><var name="x" type="float64" dimensions="8"/></adios-group>
      <method group="g" method="FLEXPATH">trace=true</method>
    </adios-config>
    """)
    writers = [flexio.open_write("g", "obs.writer-chain", RankContext(r, 2)) for r in range(2)]
    writers[0].plugins.deploy(sampling_plugin(2), PluginSide.WRITER)
    for step in range(3):
        for w in writers:
            w.write("x", np.full(8, float(step)))
            w.end_step()
    for w in writers:
        w.close()
    records = [dict(r.extra) | {"category": r.category} for r in writers[0].monitor.trace]
    writes = {r["span_id"]: r for r in records if r["category"] == "write"}
    plugins = [r for r in records if r["category"] == "dc_plugin"]
    assert len(writes) == 3 and len(plugins) == 6
    for span in plugins:
        assert span["side"] == "writer"
        assert span["trace_id"] == writes[span["parent_id"]]["trace_id"]
    assert sorted(writes[s["parent_id"]]["step"] for s in plugins) == [0, 0, 1, 1, 2, 2]


def _traced_steps(name, steps, sample_rate=None):
    """Write ``steps`` one-rank steps on a ``trace=true`` stream; returns
    the quiesced stream state."""
    from repro.adios import RankContext
    from repro.core import FlexIO, stream_registry

    flexio = FlexIO.from_xml("""
    <adios-config>
      <adios-group name="g"><var name="x" type="float64" dimensions="4"/></adios-group>
      <method group="g" method="FLEXPATH">trace=true</method>
    </adios-config>
    """)
    w = flexio.open_write("g", name, RankContext(0, 1))
    if sample_rate is not None:
        w.monitor.enable_tracing(sample_rate)
    for step in range(steps):
        w.write("x", np.full(4, float(step)))
        w.end_step()
    w.close()
    return stream_registry._states[name]


@pytest.mark.parametrize("sample_rate, kept", [(None, 5), (0.5, 2)])
def test_traced_drain_is_recorded_once(sample_rate, kept):
    """``trace=true`` used to wrap the drain in ``measure`` *and*
    ``span``: 10 ``drain`` records for 5 steps.  Now one region, one
    record — the span when the step's trace is kept, the flat
    measurement when it was sampled out."""
    mon = _traced_steps(f"obs.drain-once.{kept}", 5, sample_rate).monitor
    assert mon.aggregate("drain").count == 5
    assert mon.metrics.histogram("latency.drain").count == 5
    drains = {dict(r.extra)["step"]: dict(r.extra)
              for r in mon.trace if r.category == "drain"}
    writes = {dict(r.extra)["step"]: dict(r.extra)
              for r in mon.trace if r.category == "write"}
    assert sorted(drains) == [0, 1, 2, 3, 4] and len(writes) == kept
    for step, drain in drains.items():
        if step in writes:  # joins its step's trace, under the write root
            assert drain["trace_id"] == writes[step]["trace_id"]
            assert drain["parent_id"] == writes[step]["span_id"]
        else:               # sampled out: still timed, no ids
            assert "trace_id" not in drain
    # writer_visible is a different region: flat, never the trace's root.
    assert mon.aggregate("writer_visible").count == 5
    assert all("trace_id" not in dict(r.extra)
               for r in mon.trace if r.category == "writer_visible")
    assert all(w["parent_id"] == "" for w in writes.values())


def test_measure_is_the_span_when_traced_and_flat_otherwise():
    clock = FakeClock()
    mon = PerfMonitor(clock=clock, tracing=True, sample_rate=0.5)
    for _ in range(4):  # roots 0 and 2 are sampled out, 1 and 3 kept
        with mon.span("write", "s") as root:
            with mon.measure("dc_plugin", "p", nbytes=8, side="writer") as m:
                clock.tick(0.25)
                m.add_bytes(2)
            assert getattr(m, "recording", False) == root.recording
    agg = mon.aggregate("dc_plugin")
    assert (agg.count, agg.total_bytes, agg.total_time) == (4, 40, 1.0)
    ids = [dict(r.extra).get("trace_id") for r in mon.trace
           if r.category == "dc_plugin"]
    assert [i is not None for i in ids] == [False, True, False, True]
    flat = PerfMonitor(clock=clock)  # tracing off: the classic point
    with flat.measure("dc_plugin", "p") as m:
        clock.tick(0.5)
    assert not getattr(m, "recording", False)
    assert flat.trace[0].duration == 0.5 and flat.trace[0].extra == ()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_histogram_percentiles_match_numpy():
    rng = np.random.default_rng(42)
    samples = rng.lognormal(mean=-6.0, sigma=1.5, size=5000)
    h = Histogram("lat")
    for s in samples:
        h.observe(float(s))
    for q in (50, 95, 99):
        want = float(np.quantile(samples, q / 100))
        got = h.percentile(q)
        assert got == pytest.approx(want, rel=0.15)
    assert h.percentile(0) == pytest.approx(samples.min())
    assert h.percentile(100) == pytest.approx(samples.max())
    assert h.mean == pytest.approx(samples.mean())


def test_registry_merge_counters_gauges_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(3)
    b.counter("c").inc(4)
    b.counter("only_b").inc(1)
    a.gauge("g").set(5)
    b.gauge("g").set(2)
    a.histogram("h").observe(1.0)
    b.histogram("h").observe(2.0)
    a.merge_from(b)
    snap = a.snapshot()
    assert snap["counters"]["c"] == 7
    assert snap["counters"]["only_b"] == 1
    assert snap["gauges"]["g"]["value"] == 5  # gauges keep the running max
    assert a.histogram("h").count == 2


def test_labeled_series_are_distinct_and_key_stably():
    from repro.obs.metrics import label_key

    reg = MetricsRegistry()
    plain = reg.counter("steps")
    s1 = reg.counter("steps", labels={"stream": "s1"})
    s2 = reg.counter("steps", labels={"tenant": "t", "stream": "s2"})
    plain.inc(1)
    s1.inc(2)
    s2.inc(3)
    assert reg.counter("steps") is plain
    assert reg.counter("steps", labels={"stream": "s1"}) is s1
    snap = reg.snapshot()
    assert snap["counters"]["steps"] == 1
    assert snap["counters"]['steps{stream="s1"}'] == 2
    # Label order is canonical (sorted), so key construction is stable.
    assert label_key("steps", {"tenant": "t", "stream": "s2"}) == \
        'steps{stream="s2",tenant="t"}'
    assert snap["counters"][label_key("steps", {"stream": "s2", "tenant": "t"})] == 3


def test_merge_from_is_label_aware():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c", labels={"stream": "s1"}).inc(1)
    b.counter("c", labels={"stream": "s1"}).inc(2)
    b.counter("c").inc(10)                       # unlabeled sibling
    b.gauge("g", labels={"stream": "s1"}).set(4)
    a.gauge("g", labels={"stream": "s1"}).set(9)
    b.histogram("h", labels={"stream": "s1"}).observe(1.0)
    a.merge_from(b)
    snap = a.snapshot()
    assert snap["counters"]['c{stream="s1"}'] == 3   # same labels fold
    assert snap["counters"]["c"] == 10               # never into the sibling
    assert snap["gauges"]['g{stream="s1"}']["value"] == 9
    merged = a.histogram("h", labels={"stream": "s1"})
    assert merged.count == 1 and merged.labels == {"stream": "s1"}


def test_transport_stats_flow_into_monitor_report():
    from repro.transport.shm import ShmChannel

    mon = PerfMonitor()
    chan = ShmChannel(monitor=mon)
    chan.send(b"x" * 100)
    assert chan.recv() == b"x" * 100
    chan.close()
    report = mon.report()
    assert "shm.queue.enqueued" in report
    assert "shm.bytes_sent" in report


def test_rdma_channel_records_transport_and_regcache():
    from repro.machine import smoky
    from repro.transport.rdma import NntiFabric, RdmaChannel

    mon = PerfMonitor()
    fabric = NntiFabric(smoky(4).interconnect)
    a, b = fabric.endpoint(0, "a"), fabric.endpoint(1, "b")
    conn = fabric.connect(a, b)
    chan = RdmaChannel(conn, a, monitor=mon)
    t = chan.send(b"y" * 100_000)
    assert t > 0
    assert chan.recv() == b"y" * 100_000
    chan.emit_stats()
    assert mon.aggregate("transport").count == 1
    report = mon.report()
    assert "rdma.bytes_sent" in report
    assert "rdma.regcache.a.hits" in report


# ---------------------------------------------------------------------------
# Record round-trip + merge
# ---------------------------------------------------------------------------

def test_as_dict_namespaces_colliding_extras_and_round_trips():
    rec = TraceRecord(
        category="c", name="n", start=1.0, duration=2.0, bytes=3,
        extra=(("name", "evil"), ("x.name", "evil2"), ("ok", 7)),
    )
    d = rec.as_dict()
    assert d["name"] == "n"  # core field wins
    assert d["x.name"] == "evil"
    assert d["x.x.name"] == "evil2"
    assert d["ok"] == 7
    back = TraceRecord.from_dict(d)
    assert dict(back.extra) == dict(rec.extra)  # extras come back sorted
    assert (back.category, back.name, back.start, back.duration, back.bytes) == \
        ("c", "n", 1.0, 2.0, 3)
    # A second round-trip is exactly stable.
    assert TraceRecord.from_dict(back.as_dict()) == back


# ---------------------------------------------------------------------------
# Export + analysis
# ---------------------------------------------------------------------------

def _synthetic_records():
    """One trace: write [0,4] with transport child [1,3]; plus a flat rec."""
    def span(cat, name, start, dur, sid, parent, nbytes=0):
        return {"category": cat, "name": name, "start": start, "duration": dur,
                "bytes": nbytes, "trace_id": "t1", "span_id": sid,
                "parent_id": parent}
    return [
        span("write", "w", 0.0, 4.0, "s1", ""),
        span("transport", "x", 1.0, 2.0, "s2", "s1", nbytes=1000),
        {"category": "flat", "name": "f", "start": 0.0, "duration": 1.0, "bytes": 0},
    ]


def test_perfetto_export_schema(tmp_path):
    mon = PerfMonitor(tracing=True)
    with mon.span("write", "w"):
        pass
    path = tmp_path / "trace.json"
    n = mon.export_perfetto(str(path))
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 1 and n == len(doc["traceEvents"])
    ev = xs[0]
    for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
        assert key in ev
    assert any(e["ph"] == "M" for e in doc["traceEvents"])


def test_is_span_record_and_build_traces():
    recs = _synthetic_records()
    assert [is_span_record(r) for r in recs] == [True, True, False]
    traces = build_traces(recs)
    assert set(traces) == {"t1"}
    (root,) = traces["t1"]
    assert root.name == "w" and len(root.children) == 1
    assert root.exclusive == pytest.approx(2.0)


def test_stage_breakdown_and_bottleneck():
    stats = {s.stage: s for s in stage_breakdown(_synthetic_records())}
    assert stats["write"].exclusive_time == pytest.approx(2.0)
    assert stats["transport"].exclusive_time == pytest.approx(2.0)
    assert stats["transport"].total_bytes == 1000
    hint = find_bottleneck(_synthetic_records())
    assert hint is not None
    assert hint.stage in ("write", "transport")
    assert 0 < hint.share <= 1
    assert "bottleneck" in str(hint)


def test_critical_path_follows_children_that_outlast_parent():
    def span(cat, start, dur, sid, parent):
        return {"category": cat, "name": cat, "start": start, "duration": dur,
                "bytes": 0, "trace_id": "t1", "span_id": sid, "parent_id": parent}
    recs = [
        span("write", 0.0, 1.0, "s1", ""),
        span("read", 2.0, 3.0, "s2", "s1"),       # outlasts the root
        span("transport", 2.5, 1.0, "s3", "s2"),
        span("read", 2.2, 0.1, "s4", "s1"),       # concurrent with s2, off-path
    ]
    (root,) = build_traces(recs)["t1"]
    path = [h.node.span_id for h in critical_path(root)]
    assert path == ["s1", "s2", "s3"]


def test_find_bottleneck_none_without_spans():
    assert find_bottleneck([{"category": "flat", "name": "f",
                             "start": 0.0, "duration": 1.0}]) is None


def test_to_perfetto_on_plain_dicts():
    doc = to_perfetto(_synthetic_records())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 3  # flat records are shown too, on their own track
    span_events = [e for e in xs if "span_id" in e["args"]]
    assert len(span_events) == 2
    assert all(e["ts"] >= 0 for e in xs)


def test_to_perfetto_empty_records_is_valid():
    doc = to_perfetto([])
    json.dumps(doc)  # serializable
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # just process meta


def test_to_perfetto_open_span_renders_zero_length_and_tagged():
    rec = {"trace_id": "t1", "span_id": "s1", "name": "w", "category": "write",
           "start": 1.0, "duration": None}
    doc = to_perfetto([rec])
    (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert ev["dur"] == 0.0
    assert ev["args"]["open"] is True
    json.dumps(doc)


def test_to_perfetto_merge_duplicate_span_emitted_once():
    rec = {"trace_id": "t1", "span_id": "s1", "name": "w", "category": "write",
           "start": 1.0, "duration": 2.0}
    # The same record in two concatenated dumps.
    doc = to_perfetto([rec, dict(rec)])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 1


def test_to_perfetto_colliding_span_ids_stay_unique():
    a = {"trace_id": "t1", "span_id": "s1", "name": "w", "category": "write",
         "start": 1.0, "duration": 2.0}
    b = dict(a, name="other", start=5.0)  # different span, same id
    doc = to_perfetto([a, b])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    ids = [e["args"]["span_id"] for e in xs]
    assert len(set(ids)) == 2
    assert ids[0] == "s1" and ids[1] == "s1~2"
    assert xs[1]["args"]["span_id_collision"] == "s1"


# ---------------------------------------------------------------------------
# Prometheus exposition + live server
# ---------------------------------------------------------------------------

def _labeled_registry():
    reg = MetricsRegistry()
    reg.counter("dataplane.drain.steps_committed").inc(5)
    reg.gauge("dataplane.drain.queue_depth").set(2)
    reg.histogram("latency.writer_visible").observe(0.25)
    reg.gauge("health.verdict", labels={"stream": "s1"}).set(1)
    return reg


def test_render_prometheus_valid_and_label_injected():
    from repro.obs.live import render_prometheus, validate_exposition

    text = render_prometheus({"s1": _labeled_registry()})
    assert validate_exposition(text) == []
    assert '# TYPE flexio_dataplane_drain_steps_committed counter' in text
    assert 'flexio_dataplane_drain_steps_committed{stream="s1"} 5' in text
    # Histogram renders as a summary with quantiles + _sum/_count.
    assert 'quantile="0.99"' in text
    assert 'flexio_latency_writer_visible_count{stream="s1"} 1' in text
    # Instrument labels merge with the injected stream label.
    assert 'flexio_health_verdict{stream="s1"} 1' in text


def test_render_prometheus_one_type_line_across_streams():
    from repro.obs.live import render_prometheus, validate_exposition

    regs = {"s1": _labeled_registry(), "s2": _labeled_registry(), "": _labeled_registry()}
    text = render_prometheus(regs)
    assert validate_exposition(text) == []
    type_lines = [l for l in text.splitlines()
                  if l.startswith("# TYPE flexio_dataplane_drain_steps_committed ")]
    assert len(type_lines) == 1
    # The "" registry's samples carry no stream label.
    assert "\nflexio_dataplane_drain_steps_committed 5\n" in text


def test_validate_exposition_catches_violations():
    from repro.obs.live import validate_exposition

    bad = (
        "# TYPE m counter\n"
        "# TYPE m counter\n"          # duplicate TYPE
        "m 1\n"
        "untyped_sample 2\n"          # no TYPE declaration
        "malformed{ 3\n"              # bad sample shape
        "# TYPE x bogus_kind\n"       # unknown type
    )
    problems = validate_exposition(bad)
    assert len(problems) == 4
    assert validate_exposition("# TYPE ok gauge\nok 1\nok_sum 2\n") == []


class _FakeState:
    def __init__(self, reg, closed=False, error=None):
        self.monitor = type("M", (), {"metrics": reg})()
        self.closed = closed
        self.error = error
        self.active_transport = "shm"


def test_live_server_serves_all_endpoints_over_http():
    import urllib.request

    from repro.obs import recorder
    from repro.obs.events import EV_STEP_COMMIT
    from repro.obs.live import LiveTelemetryServer, validate_exposition

    recorder.reset()
    recorder.record(EV_STEP_COMMIT, stream="s1", step=0)
    states = {"s1": _FakeState(_labeled_registry()),
              "s2": _FakeState(MetricsRegistry(), error="boom")}
    server = LiveTelemetryServer(states=lambda: states)
    try:
        host, port = server.start()
        assert port != 0

        def get(path):
            with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as r:
                return r.read().decode()

        assert validate_exposition(get("/metrics")) == []
        events = [json.loads(l) for l in get("/events?stream=s1").splitlines()]
        assert events and events[-1]["code"] == EV_STEP_COMMIT
        health = json.loads(get("/health"))
        assert set(health) == {"s1", "s2"}
        rows = {r["stream"]: r for r in json.loads(get("/streams"))["streams"]}
        assert rows["s1"]["state"] == "open"
        assert rows["s2"]["state"] == "failed"
        assert rows["s1"]["transport"] == "shm"
        index = json.loads(get("/"))
        assert "/metrics" in index["endpoints"]
        with pytest.raises(urllib.error.HTTPError) as exc:
            get("/nope")
        exc.value.close()  # the error carries the response and its socket
        assert exc.value.code == 404
        assert server.requests >= 6
    finally:
        server.stop()
        recorder.reset()


def test_live_server_rejects_non_get():
    import urllib.error
    import urllib.request

    from repro.obs.live import LiveTelemetryServer

    server = LiveTelemetryServer(states=lambda: {})
    try:
        server.start()
        req = urllib.request.Request(
            f"{server.url}/metrics", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=5)
        exc.value.close()  # the error carries the response and its socket
        assert exc.value.code == 405
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# Event bracketing
# ---------------------------------------------------------------------------

def test_simcore_trace_event_brackets_event_lifetime():
    from repro.simcore import Environment
    from repro.simcore.events import trace_event

    env = Environment()
    mon = PerfMonitor(clock=lambda: env.now, tracing=True)
    ev = env.timeout(5.0)
    trace_event(ev, mon, "transport", "bulk_get", flow=1)
    env.run()
    spans = [r for r in mon.trace if "trace_id" in dict(r.extra)]
    assert len(spans) == 1
    assert spans[0].duration == pytest.approx(5.0)
    assert ("flow", 1) in spans[0].extra


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_trace_cli_reports_breakdown_and_bottleneck(tmp_path, capsys):
    import io

    from repro.tools.trace import main as trace_main

    clock = FakeClock()
    mon = PerfMonitor(clock=clock, tracing=True)
    with mon.span("write", "w"):
        clock.tick(1.0)
        with mon.span("transport", "w", nbytes=4096):
            clock.tick(3.0)
    dump = tmp_path / "dump.jsonl"
    mon.dump(str(dump))
    out = io.StringIO()
    rc = trace_main([str(dump), "--perfetto", str(tmp_path / "p.json")], out=out)
    text = out.getvalue()
    assert rc == 0
    assert "2 spans" in text
    assert "transport" in text
    assert "critical path" in text
    assert "bottleneck: transport" in text
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["traceEvents"]


def test_trace_cli_complains_without_spans(tmp_path):
    import io

    mon = PerfMonitor()
    mon.record("x", "y", start=0.0, duration=1.0)
    dump = tmp_path / "dump.jsonl"
    mon.dump(str(dump))
    from repro.tools.trace import main as trace_main
    out = io.StringIO()
    assert trace_main([str(dump)], out=out) == 1
    assert "no span records" in out.getvalue()


# ---------------------------------------------------------------------------
# Central metric-name registry (repro.obs.names)
# ---------------------------------------------------------------------------

def test_metric_registry_static_names_are_validated():
    from repro.obs import names

    assert names.validate_metric("transport.copies") == "transport.copies"
    # Extending a registered family root is valid by construction.
    assert names.validate_metric("faults.injected.torn_frame")
    with pytest.raises(names.UnknownMetricError) as exc:
        names.validate_metric("transport.copiez")
    # The error suggests the nearest registered name.
    assert "transport.copies" in str(exc.value)


def test_metric_name_builds_family_members():
    from repro.obs import names

    assert (
        names.metric_name(names.F_FAULTS_INJECTED, "torn_frame")
        == "faults.injected.torn_frame"
    )
    assert (
        names.metric_name(names.F_SHM_QUEUE, "depth") == "shm.queue.depth"
    )
    # Extended roots (per-endpoint regcache prefixes) are accepted too.
    assert (
        names.metric_name("rdma.regcache.nodeA", "hits")
        == "rdma.regcache.nodeA.hits"
    )


def test_metric_name_rejects_unregistered_family():
    from repro.obs import names

    with pytest.raises(names.UnknownMetricError):
        names.metric_name("totally.adhoc", "x")
    # register_family is the escape hatch for new subsystems.
    names.register_family("totally.adhoc", "test-only family")
    try:
        assert names.metric_name("totally.adhoc", "x") == "totally.adhoc.x"
    finally:
        names.FAMILIES.pop("totally.adhoc", None)


def test_metric_name_builds_a_string_name_once(monkeypatch):
    from repro.obs import names

    assert names.metric_name(names.F_PLUGIN, "bytes_in", "memo") == "plugin.bytes_in.memo"
    scans = []
    root = names._family_root
    monkeypatch.setattr(names, "_family_root", lambda n: scans.append(n) or root(n))
    for _ in range(3):
        assert names.metric_name(names.F_PLUGIN, "bytes_in", "memo") == "plugin.bytes_in.memo"
    assert scans == []  # served from the memo: no family scan
    # Equal keys, different names: non-string parts are judged every call.
    assert names.metric_name(names.F_PLUGIN, True) == "plugin.True"
    assert names.metric_name(names.F_PLUGIN, 1) == "plugin.1"
    # An unhashable part takes the uncached path and still builds.
    assert names.metric_name(names.F_PLUGIN, ["a"]) == "plugin.['a']"
    assert scans == [names.F_PLUGIN] * 3


def test_metric_name_rejects_an_unknown_family_on_every_call():
    from repro.obs import names

    for _ in range(2):
        with pytest.raises(names.UnknownMetricError):
            names.metric_name("never.registered", "x")
    assert ("never.registered", "x") not in names._BUILT


def test_metric_registry_matches_linted_vocabulary():
    """The FXL013 row reads the runtime registry: a name the linter
    accepts is a name the registry knows."""
    from repro.analysis.flexlint import vocabulary
    from repro.analysis.tables import REGISTRIES
    from repro.obs import names

    row = next(r for r in REGISTRIES if r.rule == "FXL013")
    assert vocabulary(row) == (names.METRIC_NAMES, names.FAMILY_ROOTS)
    assert "transport.copies" in names.METRIC_NAMES
    assert all(root in names.FAMILIES for root in names.FAMILY_ROOTS)
