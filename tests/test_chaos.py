"""Chaos-harness and fault-model tests.

Drives :func:`repro.tools.chaos.run_chaos` — the seeded replay of
GTS/S3D coupled pipelines through the live data plane — across the
fault regimes (recoverable, lossy, transactional) and checks
the resiliency invariants hold; plus unit coverage for the fault
injector, the fault-spec parser, the shared timeout hierarchy, and the
wedged-drainer escape hatch.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.adios import Adios, RankContext, StepStatus
from repro.core import StepState, stream_registry
from repro.obs.analysis import fault_summary
from repro.tools import chaos
from repro.tools.chaos import run_chaos
from repro.transport.faults import (
    FaultKind,
    TransportFault,
    TransportTimeout,
    injector_from_env,
    parse_fault_spec,
)
from repro.transport.shm import QueueEmpty, QueueFull


@pytest.fixture(autouse=True)
def fresh_state():
    stream_registry.reset()
    yield
    stream_registry.reset()


# ---------------------------------------------------------------------------
# Chaos invariants across regimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["gts", "s3d"])
def test_chaos_recoverable_regime_commits_everything(scenario):
    """At 10% fault rate with retries, every step commits byte-identical."""
    report = run_chaos(scenario, seed=7, rate=0.1, steps=10)
    assert report.ok, report.invariant_violations
    assert report.committed == list(range(10))
    assert report.lost == []
    assert report.faults_injected > 0          # the run was not fault-free
    assert report.recovered > 0                # ...retries did the saving
    assert report.retries >= report.recovered


def test_chaos_lossy_regime_agrees_on_both_sides():
    """With retries exhausted, losses are typed and symmetric."""
    report = run_chaos("gts", seed=1, rate=0.45, steps=12, max_retries=1)
    assert report.ok, report.invariant_violations
    assert report.lost                          # this regime must lose steps
    assert report.writer_failures == len(report.lost)
    assert sorted(report.committed + report.lost) == list(range(12))


def test_chaos_transactional_regime():
    report = run_chaos(
        "gts", seed=7, rate=0.45, steps=12, max_retries=1, transactional=True
    )
    assert report.ok, report.invariant_violations
    assert report.lost
    assert report.writer_failures == len(report.lost)


def test_chaos_plugin_run_reads_fused_under_fault():
    report = run_chaos("s3d", seed=5, rate=0.2, steps=10, plugins=True)
    assert report.ok, report.invariant_violations
    assert "xpmem" not in report.as_dict()
    assert report.faults_injected > 0 and report.fused_reads > 0


#: ``chaos`` command line -> (committed steps, lost steps, faults
#: injected, retries, recovered), 20 steps each.  The injector is drawn
#: once per delivery attempt, so these pin the order of the draws.
SEEDED = {
    "--scenario gts --seed 7 --rate 0.1": (list(range(20)), [], 1, 1, 1),
    "--scenario s3d --plugins --seed 5 --rate 0.2": (list(range(20)), [], 5, 5, 4),
    "--scenario s3d --plugins --seed 11 --rate 0.1": (list(range(20)), [], 2, 2, 2),
    "--scenario gts --seed 3 --rate 0.45 --max-retries 1": (
        [0, 1, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18, 19],
        [2, 9, 10], 16, 13, 10),
    "--scenario gts --seed 1 --rate 0.45 --max-retries 1 --transactional": (
        [0, 3, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 19],
        [1, 2, 4, 5, 8, 16, 18], 23, 16, 9),
}


@pytest.mark.parametrize("argv", list(SEEDED))
def test_seeded_chaos_outcomes_do_not_change(argv):
    out = io.StringIO()
    assert chaos.main([*argv.split(), "--json"], out=out) == 0
    (report,) = json.loads(out.getvalue())
    got = (report["committed"], report["lost"], report["faults_injected"],
           report["retries"], report["recovered"])
    assert got == SEEDED[argv]


def test_chaos_same_seed_same_outcome():
    a = run_chaos("gts", seed=13, rate=0.1, steps=10)
    b = run_chaos("gts", seed=13, rate=0.1, steps=10)
    assert a.committed == b.committed
    assert a.lost == b.lost
    assert a.faults_injected == b.faults_injected


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_chaos("xgc")


def test_chaos_report_as_dict_round_trips():
    report = run_chaos("gts", seed=7, rate=0.0, steps=3)
    d = report.as_dict()
    assert d["ok"] is True
    assert d["committed"] == [0, 1, 2]
    assert d["faults_injected"] == 0


def test_chaos_trace_out_writes_perfetto(tmp_path):
    out = tmp_path / "chaos.perfetto.json"
    report = run_chaos("gts", seed=7, rate=0.1, steps=5, trace_out=str(out))
    assert report.ok
    assert out.exists() and out.stat().st_size > 0


def test_chaos_lost_step_always_yields_flight_dump(tmp_path):
    """Any LOST step must leave a flight artifact containing that step's
    retry events — the recorder is the black box that explains the loss."""
    from repro.obs.events import EV_RETRY, EV_STEP_LOST
    from repro.obs.recorder import load_dump

    report = run_chaos(
        "gts", seed=1, rate=0.45, steps=12, max_retries=1,
        flight_dir=str(tmp_path),
    )
    assert report.ok, report.invariant_violations
    assert report.lost
    assert report.flight_dumps
    assert report.flight_events > 0
    docs = [load_dump(p) for p in report.flight_dumps]
    for lost_step in report.lost:
        covering = [
            doc for doc in docs
            if any(
                e["code"] == EV_STEP_LOST and e.get("step") == lost_step
                for e in doc["events"]
            )
        ]
        assert covering, f"no flight dump contains lost step {lost_step}"
        # max_retries=1 means the loss was preceded by a retry attempt,
        # and the dump's window must show it.
        assert any(
            e["code"] == EV_RETRY and e.get("step") == lost_step
            for e in covering[0]["events"]
        ), f"dump for lost step {lost_step} lacks its retry events"


def test_chaos_lossy_run_without_dump_artifact_fails_invariant(tmp_path):
    """The observability invariant itself: lost steps + no artifact = fail.
    Exhaust the per-process auto-dump cap first, so the lossy run below
    cannot write one."""
    from repro.obs import recorder

    report = run_chaos(
        "gts", seed=1, rate=0.45, steps=12, max_retries=1,
        flight_dir=str(tmp_path / "missing-parent-dir-is-fine"),
    )
    assert report.ok  # sanity: normally the dump lands and the run is OK

    # Monkey-path-free cap exhaustion: dump_on_fault stops writing after
    # MAX_AUTO_DUMPS, but run_chaos resets the recorder per run — so
    # instead aim the dump at an unwritable path.
    unwritable = tmp_path / "not-a-dir"
    unwritable.write_text("file, not a directory")
    report2 = run_chaos(
        "gts", seed=1, rate=0.45, steps=12, max_retries=1,
        flight_dir=str(unwritable),
    )
    assert not report2.ok
    assert any("flight" in v for v in report2.invariant_violations)
    recorder.set_flight_dir(None)


def test_chaos_cli_smoke(capsys):
    rc = chaos.main(["--scenario", "all", "--seed", "7", "--steps", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[OK]") == 2


def test_chaos_cli_json(capsys):
    import json

    rc = chaos.main(["--scenario", "gts", "--seed", "7", "--steps", "4",
                     "--json"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1 and reports[0]["ok"] is True


# ---------------------------------------------------------------------------
# Fault injector + spec parsing
# ---------------------------------------------------------------------------

def test_injector_same_seed_same_schedule():
    a = parse_fault_spec("rate=0.3,seed=5")
    b = parse_fault_spec("rate=0.3,seed=5")
    assert [a.next_fault() for _ in range(50)] == [
        b.next_fault() for _ in range(50)
    ]


def test_injector_fail_ops_are_exact():
    inj = parse_fault_spec("ops=2|4,kinds=torn")
    hits = [inj.next_fault() for _ in range(5)]
    assert hits == [None, FaultKind.TORN_SEND, None, FaultKind.TORN_SEND, None]


def test_parse_fault_spec_validation():
    assert parse_fault_spec(None) is None
    assert parse_fault_spec("   ") is None
    with pytest.raises(ValueError, match="unknown fault kind"):
        parse_fault_spec("kinds=gremlin")
    with pytest.raises(ValueError, match="unknown fault spec key"):
        parse_fault_spec("chance=0.5")
    with pytest.raises(ValueError, match="key=value"):
        parse_fault_spec("rate")


def test_injector_from_env():
    inj = injector_from_env({"FLEXIO_FAULTS": "rate=0.25,seed=9"})
    assert inj is not None and inj.rate == 0.25 and inj.seed == 9
    assert injector_from_env({}) is None


def test_timeout_hierarchy_is_unified():
    """SHM queue timeouts are TransportTimeouts are TimeoutErrors."""
    for exc_type in (QueueFull, QueueEmpty):
        assert issubclass(exc_type, TransportTimeout)
        assert issubclass(exc_type, TransportFault)
        assert issubclass(exc_type, TimeoutError)
    assert TransportTimeout.kind is FaultKind.SEND_TIMEOUT


# ---------------------------------------------------------------------------
# Fault summary over a chaos run's flight events
# ---------------------------------------------------------------------------

def test_fault_summary_reflects_chaos_trace():
    from repro.obs import recorder as flight

    recorder = flight.reset()
    name = "chaos.summary.stream"
    adios = Adios.from_xml(
        """
        <adios-config>
          <adios-group name="g"><var name="x" type="float64" dimensions="4"/></adios-group>
          <method group="g" method="FLEXPATH">
            trace=true;faults=rate=0.4,seed=2,kinds=timeout
          </method>
        </adios-config>
        """
    )
    h = adios.open_write("g", name, RankContext(0, 1))
    for step in range(8):
        h.write("x", np.full(4, float(step)))
        h.end_step()
    h.close()
    summary = fault_summary(recorder.events(stream=name))
    assert summary.any()
    assert summary.total_injected == sum(summary.injected.values())
    assert all(key.startswith("shm.") for key in summary.injected)
    assert summary.drain_faults >= summary.total_injected
    lines = summary.lines()
    assert any("injected" in line for line in lines)


# ---------------------------------------------------------------------------
# Wedged drainer escape hatch
# ---------------------------------------------------------------------------

def test_wedged_drainer_stop_times_out_but_does_not_hang(monkeypatch):
    from repro.core import drain

    name = "chaos.wedged.stream"
    adios = Adios.from_xml(
        """
        <adios-config>
          <adios-group name="g"><var name="x" type="float64" dimensions="4"/></adios-group>
          <method group="g" method="FLEXPATH">retry_timeout=0.001</method>
        </adios-config>
        """
    )
    h = adios.open_write("g", name, RankContext(0, 1))
    state = stream_registry._states[name]
    release = threading.Event()
    entered = threading.Event()
    calls = []

    def stuck_retry(*args):
        calls.append(None)
        if len(calls) == 1:       # the first attempt faults: a retry waits
            raise TransportTimeout("injected")
        entered.set()
        release.wait()            # simulate a drain wedged mid-delivery

    monkeypatch.setattr(drain, "consult", stuck_retry)
    h.write("x", np.zeros(4))
    h.end_step()                   # async: queues the step for its retry
    assert entered.wait(timeout=5.0)
    drainer = state._drainer

    assert drainer.stop(timeout=0.1) is False
    assert drainer.wedged is True
    assert (
        state.monitor.metrics.counter("dataplane.drain.wedged").value == 1
    )
    assert drainer.stop(timeout=0.1) is False   # idempotent, still wedged
    assert (
        state.monitor.metrics.counter("dataplane.drain.wedged").value == 1
    )

    release.set()                 # un-wedge so the daemon thread finishes
    drainer._thread.join(timeout=5.0)
    assert state.published and state.published[0].status is StepState.COMMITTED
    h.close()


def test_shutdown_pipeline_is_idempotent():
    name = "chaos.shutdown.stream"
    adios = Adios.from_xml(
        """
        <adios-config>
          <adios-group name="g"><var name="x" type="float64" dimensions="4"/></adios-group>
          <method group="g" method="FLEXPATH"/>
        </adios-config>
        """
    )
    h = adios.open_write("g", name, RankContext(0, 1))
    h.write("x", np.ones(4))
    h.end_step()
    state = stream_registry._states[name]
    state.shutdown_pipeline()
    state.shutdown_pipeline()     # double shutdown must be a no-op
    h.close()                     # close after shutdown must not raise
    reader = adios.open_read("g", name, RankContext(0, 1))
    assert reader.begin_step() is StepStatus.OK
    np.testing.assert_array_equal(reader.read_block("x", 0), np.ones(4))
