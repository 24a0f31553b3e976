"""Tests for the command-line tools."""

import io

import numpy as np
import pytest

from repro.adios import BoundingBox, BpWriter, block_decompose
from repro.tools.advisor import advise, main as advisor_main
from repro.tools.bpls import list_file, main as bpls_main
from repro.tools.report import generate, main as report_main


@pytest.fixture
def bp_file(tmp_path):
    path = str(tmp_path / "sample.bp")
    shape = (8, 8)
    boxes = block_decompose(shape, (2, 2))
    full = np.arange(64.0).reshape(shape)
    with BpWriter(path) as w:
        for step in range(2):
            w.begin_step()
            for rank, box in enumerate(boxes):
                w.write(rank, "temp", full[box.slices()] + step, box=box, global_shape=shape)
            w.write(0, "count", np.array([42], dtype=np.int64))
            w.end_step()
    return path


# ---------------------------------------------------------------------------
# bpls
# ---------------------------------------------------------------------------

def test_bpls_lists_variables(bp_file):
    out = io.StringIO()
    assert list_file(bp_file, out=out) == 0
    text = out.getvalue()
    assert "of variables:  2" in text
    assert "of steps:      2" in text
    assert "temp" in text and "count" in text
    assert "min=0" in text


def test_bpls_single_variable(bp_file):
    out = io.StringIO()
    assert list_file(bp_file, var="count", out=out) == 0
    text = out.getvalue()
    assert "count" in text
    assert "temp {" not in text


def test_bpls_blocks_detail(bp_file):
    out = io.StringIO()
    assert list_file(bp_file, show_blocks=True, out=out) == 0
    text = out.getvalue()
    assert "rank    0" in text
    assert "start=(0, 0)" in text


def test_bpls_dump(bp_file):
    out = io.StringIO()
    assert list_file(bp_file, var="count", dump=True, out=out) == 0
    assert "42" in out.getvalue()


def test_bpls_unknown_variable(bp_file):
    out = io.StringIO()
    assert list_file(bp_file, var="ghost", out=out) == 1


def test_bpls_bad_file(tmp_path):
    bad = tmp_path / "junk.bp"
    bad.write_bytes(b"not a bp file, sorry")
    out = io.StringIO()
    assert list_file(str(bad), out=out) == 1
    assert "bpls:" in out.getvalue()


def test_bpls_main_entry(bp_file, capsys):
    assert bpls_main([bp_file]) == 0
    assert "temp" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_fig4():
    out = io.StringIO()
    assert generate("fig4", "smoky", out=out) == 0
    text = out.getvalue()
    assert "Figure 4" in text and "dynamic_MBps" in text


def test_report_fig8_both_machines():
    for m in ("smoky", "titan"):
        out = io.StringIO()
        assert generate("fig8", m, out=out) == 0
        assert "llc_misses_per_kinst" in out.getvalue()


def test_report_tuning():
    out = io.StringIO()
    assert generate("tuning", "titan", out=out) == 0
    assert "untuned" in out.getvalue()


def test_report_unknown():
    out = io.StringIO()
    assert generate("fig99", "smoky", out=out) == 1


def test_report_main_entry(capsys):
    assert report_main(["fig4"]) == 0
    assert "Figure 4" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------

def test_advisor_gts_like_recommends_helper():
    out = io.StringIO()
    rc = advise(
        "smoky", sim_ranks=16, threads=3, io_interval=6.0,
        bytes_per_rank=110 << 20, ana_time=20.0, ana_serial=0.01,
        halo_bytes=2 << 20, out=out,
    )
    assert rc == 0
    text = out.getvalue()
    assert "resource allocation" in text
    assert "topology-aware" in text
    assert "helper-core" in text


def test_advisor_s3d_like_recommends_staging():
    out = io.StringIO()
    rc = advise(
        "titan", sim_ranks=64, threads=1, io_interval=20.0,
        bytes_per_rank=1_700_000, ana_time=10.0, ana_serial=0.1,
        halo_bytes=400 << 20, out=out,
    )
    assert rc == 0
    assert "staging" in out.getvalue()


def test_advisor_async_allocation():
    out_sync, out_async = io.StringIO(), io.StringIO()
    kw = dict(sim_ranks=16, threads=1, io_interval=5.0,
              bytes_per_rank=200 << 20, ana_time=30.0, ana_serial=0.01)
    advise("smoky", **kw, out=out_sync)
    advise("smoky", **kw, asynchronous=True, out=out_async)
    assert "sync (rate matching)" in out_sync.getvalue()
    assert "async" in out_async.getvalue()


def test_advisor_main_entry(capsys):
    rc = advisor_main([
        "--machine", "smoky", "--sim-ranks", "8", "--io-interval", "5",
        "--bytes-per-rank", "1000000", "--ana-time", "4",
    ])
    assert rc == 0
    assert "topology-aware" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# trace --flight
# ---------------------------------------------------------------------------

def _flight_dump(tmp_path, with_metrics=True):
    from repro.core.monitoring import PerfMonitor
    from repro.obs.events import EV_RETRY, EV_STEP_BEGIN, EV_STEP_LOST
    from repro.obs.recorder import FlightRecorder

    rec = FlightRecorder()
    rec.record(EV_STEP_BEGIN, stream="s", step=4)
    rec.record(EV_RETRY, stream="s", step=4, attempt=1)
    rec.record(EV_STEP_LOST, stream="s", step=4, error="boom")
    mon = None
    if with_metrics:
        mon = PerfMonitor()
        mon.metrics.counter("dataplane.drain.steps_lost").inc(1)
    path = str(tmp_path / "flight.json")
    rec.dump(path, reason="step 4 lost", monitor=mon)
    return path


def test_trace_flight_renders_timeline_and_metrics(tmp_path):
    from repro.tools.trace import main as trace_main

    path = _flight_dump(tmp_path)
    out = io.StringIO()
    assert trace_main(["--flight", path], out=out) == 0
    text = out.getvalue()
    assert "step 4 lost" in text
    assert "step.begin" in text
    assert "drain.retry" in text
    assert "step.lost" in text
    assert "dataplane.drain.steps_lost" in text


def test_trace_flight_summarizes_faults_from_the_timeline(tmp_path):
    """Faults are point events, written to the flight ring only: an
    untraced lossy run's dump carries no ``records`` and ``--flight``
    still prints the faults-and-recovery section, off the timeline."""
    from repro.adios import Adios, RankContext
    from repro.core import stream_registry
    from repro.obs import recorder as flight
    from repro.obs.recorder import load_dump
    from repro.tools.trace import analyze_flight

    stream_registry.reset()
    recorder = flight.reset()
    # Attempts 1-4 and 6 time out, one retry each: steps 0 and 1 are
    # lost, step 2 commits, step 3 recovers.
    adios = Adios.from_xml("""
    <adios-config>
      <adios-group name="g"><var name="x" type="float64" dimensions="4"/></adios-group>
      <method group="g" method="FLEXPATH">
        max_retries=1;retry_timeout=0.001;retry_jitter=0;faults=ops=1|2|3|4|6
      </method>
    </adios-config>
    """)
    w = adios.open_write("g", "tools.lossy", RankContext(0, 1))
    for step in range(4):
        w.write("x", np.full(4, float(step)))
        w.end_step()
    w.close()
    monitor = stream_registry._states["tools.lossy"].monitor
    doc = load_dump(recorder.dump(
        str(tmp_path / "lossy.json"), reason="lossy run", monitor=monitor
    ))
    stream_registry.reset()
    assert "records" not in doc and monitor.trace == []
    out = io.StringIO()
    assert analyze_flight(doc, out=out) == 0
    section = out.getvalue().split("faults and recovery:")[1].split("\n\n")[0]
    assert [line.strip() for line in section.strip().splitlines()] == [
        "injected 5x shm.timeout",
        "5 drain attempts faulted, 1 steps recovered by retry",
        "2 steps lost/aborted (typed gaps)",
    ]
    assert "embedded trace records" not in out.getvalue()


def test_trace_flight_rejects_plain_json(tmp_path):
    from repro.tools.trace import main as trace_main

    bogus = tmp_path / "x.json"
    bogus.write_text('{"not": "a flight dump"}')
    out = io.StringIO()
    assert trace_main(["--flight", str(bogus)], out=out) == 2
    assert "cannot read" in out.getvalue()


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_monitor_requires_exactly_one_source():
    from repro.tools.monitor import main as monitor_main

    with pytest.raises(SystemExit):
        monitor_main([])
    with pytest.raises(SystemExit):
        monitor_main(["--demo", "--url", "http://127.0.0.1:1"])


def test_monitor_unreachable_url_exits_2():
    from repro.tools.monitor import main as monitor_main

    out = io.StringIO()
    # Port 1 on loopback: nothing listens there.
    assert monitor_main(["--url", "http://127.0.0.1:1"], out=out) == 2
    assert "cannot scrape" in out.getvalue()


def test_monitor_demo_scrapes_table_and_validates_exposition():
    from repro.core import stream_registry
    from repro.tools.monitor import main as monitor_main

    stream_registry.reset()
    out = io.StringIO()
    try:
        rc = monitor_main(["--demo", "--demo-steps", "3", "--check-expo"],
                          out=out)
    finally:
        stream_registry.reset()
    text = out.getvalue()
    assert rc == 0, text
    assert "stream" in text and "health" in text   # table header
    assert "monitor.demo" in text                  # the demo stream's row
    assert "exposition OK" in text


def test_monitor_demo_json_output():
    import json

    from repro.core import stream_registry
    from repro.tools.monitor import main as monitor_main

    stream_registry.reset()
    out = io.StringIO()
    try:
        rc = monitor_main(["--demo", "--demo-steps", "2", "--json"], out=out)
    finally:
        stream_registry.reset()
    text = out.getvalue()
    assert rc == 0, text
    doc = json.loads(text[text.index("{"):])
    (row,) = doc["streams"]
    assert row["state"] == "closed"  # the demo writer closes before scraping
    assert row["stream"].startswith("monitor.demo")


# ---------------------------------------------------------------------------
# flexlint CLI
# ---------------------------------------------------------------------------

import json as _json
import os as _os
import textwrap as _textwrap

from repro.tools import flexlint as _flexlint_cli


@pytest.fixture
def lint_tree(tmp_path):
    """A tiny tree with one active finding (an FXL012 lease leak)."""
    pkg = tmp_path / "repro" / "transport"
    pkg.mkdir(parents=True)
    (pkg / "leaky.py").write_text(_textwrap.dedent("""
        def f(pool):
            lease = pool.lease(100)
            fill(lease.data)
            lease.release()
    """), encoding="utf-8")
    (pkg / "clean.py").write_text(_textwrap.dedent("""
        def g(pool):
            lease = pool.lease(100)
            try:
                fill(lease.data)
            finally:
                lease.release()
    """), encoding="utf-8")
    return tmp_path


def _run(args, cwd):
    out = io.StringIO()
    old = _os.getcwd()
    _os.chdir(cwd)
    try:
        code = _flexlint_cli.main(args, out=out)
    finally:
        _os.chdir(old)
    return code, out.getvalue()


def test_flexlint_run_writes_no_file(lint_tree):
    before = sorted(p.relative_to(lint_tree) for p in lint_tree.rglob("*"))
    code, _ = _run([str(lint_tree)], lint_tree)
    assert code == 1
    assert sorted(p.relative_to(lint_tree) for p in lint_tree.rglob("*")) == before


def test_flexlint_json_output_keeps_rule_key(lint_tree):
    code, text = _run([str(lint_tree), "--json"], lint_tree)
    assert code == 1
    findings = _json.loads(text)
    assert findings and findings[0]["rule"] == "FXL012"


# ---------------------------------------------------------------------------
# flexbench --trace: the callables its span wrappers patch are still there
# ---------------------------------------------------------------------------

#: The harness's top-level modules (it runs with its directory on sys.path).
_FLEXBENCH_MODULES = ("layers", "tracing", "loadgen", "stats", "_paths")


def test_flexbench_trace_patches_resolve_against_the_tree(monkeypatch):
    """``layers.install`` wraps public callables by module and attribute
    name: a moved or renamed one fails here, not only in CI's bench-smoke."""
    import importlib
    import sys

    from repro.adios import selection
    from repro.core import reader
    from repro.core.stream import FlexpathReadHandle, FlexpathWriteHandle
    from repro.transport.buffers import Channel
    from repro.transport.shm import ShmChannel
    from repro.transport.tcp import TcpChannel

    monkeypatch.syspath_prepend(
        _os.path.join(_os.path.dirname(__file__), _os.pardir, "benchmarks", "flexbench")
    )
    end_step, assemble = FlexpathWriteHandle.end_step, selection.assemble
    try:
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracing").Tracer()
        try:
            layers.install(tracer)  # AttributeError: a patched name is gone
            assert FlexpathWriteHandle.end_step.__wrapped__ is end_step
            assert FlexpathReadHandle.read.__wrapped__ is reader.StepReader.read
            # A channel method every rung inherits is wrapped on each
            # subclass, under that rung's own span name.
            assert vars(TcpChannel)["sendv"].__wrapped__ is Channel.sendv
            assert vars(ShmChannel)["recv"].__wrapped__ is Channel.recv
            tcp, shm = TcpChannel(), ShmChannel()
            try:
                tcp.sendv([b"ab"])
                tcp.recv(timeout=5.0)
                shm.sendv([b"cd"])
                shm.recv()
            finally:
                tcp.close()
                shm.close()
            assert [s.name for s in tracer.spans] == [
                "transport.tcp.send", "transport.tcp.recv_wait",
                "transport.shm.sendv", "transport.shm.recv",
            ]
        finally:
            tracer.uninstall()
        assert FlexpathWriteHandle.end_step is end_step
        assert "read" not in vars(FlexpathReadHandle)
        assert "sendv" not in vars(TcpChannel) and "recv" not in vars(ShmChannel)
        assert not hasattr(Channel.sendv, "__wrapped__")
        assert selection.assemble is assemble
    finally:
        for name in _FLEXBENCH_MODULES:
            sys.modules.pop(name, None)
