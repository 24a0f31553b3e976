"""Tests for the FLEXPATH stream method and its run's liveness lease."""

import numpy as np
import pytest

from repro.adios import (
    Adios,
    BoundingBox,
    EndOfStream,
    RankContext,
    StepStatus,
    block_decompose,
)
from repro.adios.api import Run
from repro.core import PluginSide, StreamStalled, stream_registry
from repro.core.directory import DirectoryError, reap
from repro.core.plugins import PluginManager, range_select_plugin, sampling_plugin

STREAM_CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
  </adios-group>
  <adios-group name="fields">
    <var name="temp" type="float64" dimensions="12,12"/>
  </adios-group>
  <method group="particles" method="FLEXPATH"/>
  <method group="fields" method="FLEXPATH"/>
</adios-config>
"""


@pytest.fixture(autouse=True)
def fresh_registry():
    stream_registry.reset()
    yield
    stream_registry.set_clock(None)  # drop any injected test clock
    stream_registry.reset()


def make_adios():
    return Adios.from_xml(STREAM_CONFIG)


# ---------------------------------------------------------------------------
# Stream mode basics
# ---------------------------------------------------------------------------

def test_stream_process_group_round_trip():
    ad = make_adios()
    writers = [ad.open_write("particles", "gts.stream", RankContext(r, 2)) for r in range(2)]
    for r, w in enumerate(writers):
        w.write("zion", np.full((5, 7), float(r)))
    for w in writers:
        w.end_step()

    reader = ad.open_read("particles", "gts.stream", RankContext(0, 1))
    assert reader.available_vars() == ["zion"]
    for r in range(2):
        assert (reader.read_block("zion", writer_rank=r) == r).all()


def test_stream_global_array_mxn():
    ad = make_adios()
    shape = (12, 12)
    boxes = block_decompose(shape, (3, 1))
    full = np.arange(144.0).reshape(shape)
    writers = [ad.open_write("fields", "s3d.stream", RankContext(r, 3)) for r in range(3)]
    for r, w in enumerate(writers):
        w.write("temp", full[boxes[r].slices()].copy(), box=boxes[r], global_shape=shape)
        w.end_step()

    reader = ad.open_read("fields", "s3d.stream", RankContext(0, 1))
    np.testing.assert_array_equal(reader.read("temp"), full)
    sel = reader.read("temp", start=(5, 2), count=(4, 6))
    np.testing.assert_array_equal(sel, full[5:9, 2:8])


def test_stream_multiple_steps_and_eos():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    for step in range(3):
        w.write("zion", np.full((2, 7), float(step)))
        w.end_step()
    w.close()

    r = ad.open_read("particles", "s", RankContext(0, 1))
    seen = []
    while True:
        seen.append(float(r.read_block("zion", 0)[0, 0]))
        try:
            r._advance()
        except EndOfStream:
            break
    assert seen == [0.0, 1.0, 2.0]


def test_stream_stalls_when_writer_behind():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((1, 7)))
    w.end_step()
    r = ad.open_read("particles", "s", RankContext(0, 1))
    r.read_block("zion", 0)
    with pytest.raises(StreamStalled):
        r._advance()  # step 1 not yet published, writer still open
    w.write("zion", np.ones((1, 7)))
    w.end_step()
    r._advance()
    assert (r.read_block("zion", 0) == 1).all()


def test_stream_reader_before_any_step_stalls():
    ad = make_adios()
    ad.open_write("particles", "s", RankContext(0, 1))
    r = ad.open_read("particles", "s", RankContext(0, 1))
    with pytest.raises(StreamStalled):
        r.read_block("zion", 0)


def test_stream_eos_with_partial_final_step():
    """Writer closing mid-step publishes the partial step then EOS."""
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((1, 7)))
    w.end_step()
    w.write("zion", np.ones((1, 7)))
    w.close()  # no advance: partial step flushed by close

    r = ad.open_read("particles", "s", RankContext(0, 1))
    assert (r.read_block("zion", 0) == 0).all()
    r._advance()
    assert (r.read_block("zion", 0) == 1).all()
    with pytest.raises(EndOfStream):
        r._advance()


def test_rank_closing_after_the_others_ended_the_step_seals_it():
    """The live ranks all ended step 0 before rank 1 closed without
    ending it: the close seals step 0, and rank 0 goes on alone."""
    ad = make_adios()
    w0 = ad.open_write("particles", "s", RankContext(0, 2))
    w1 = ad.open_write("particles", "s", RankContext(1, 2))
    r = ad.open_read("particles", "s", RankContext(0, 1))
    w0.write("zion", np.zeros((1, 7)))
    w0.end_step()
    w1.write("zion", np.full((1, 7), 9.0))
    w1.close()
    assert r.begin_step(timeout=0.5) is StepStatus.OK
    assert r.current_step == 0
    assert (r.read_block("zion", 0) == 0).all()
    assert (r.read_block("zion", 1) == 9).all()  # the closing rank's write went in
    r.end_step()
    w0.write("zion", np.ones((1, 7)))  # step 1, not step 0 written twice
    w0.end_step()
    assert r.begin_step(timeout=0.5) is StepStatus.OK
    assert (r.read_block("zion", 0) == 1).all()
    r.end_step()
    w0.close()
    assert r.begin_step(timeout=0.5) is StepStatus.EndOfStream


def test_stream_two_independent_readers():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    for step in range(2):
        w.write("zion", np.full((1, 7), float(step)))
        w.end_step()
    w.close()
    r1 = ad.open_read("particles", "s", RankContext(0, 2))
    r2 = ad.open_read("particles", "s", RankContext(1, 2))
    assert (r1.read_block("zion", 0) == 0).all()
    r1._advance()
    assert (r1.read_block("zion", 0) == 1).all()
    # r2's cursor is independent.
    assert (r2.read_block("zion", 0) == 0).all()


def test_stream_unknown_name_fails():
    ad = make_adios()
    with pytest.raises(DirectoryError):
        ad.open_read("particles", "never.created", RankContext(0, 1))


def test_stream_name_reusable_after_close():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((1, 7)))
    w.close()
    w2 = ad.open_write("particles", "s", RankContext(0, 1))
    w2.write("zion", np.ones((1, 7)))
    w2.close()
    r = ad.open_read("particles", "s", RankContext(0, 1))
    assert (r.read_block("zion", 0) == 1).all()


# ---------------------------------------------------------------------------
# Stream/file switching — the paper's central claim
# ---------------------------------------------------------------------------

def run_pipeline(adios_obj, name):
    """The same application code, agnostic to the underlying method."""
    shape = (12, 12)
    boxes = block_decompose(shape, (2, 2))
    full = np.arange(144.0).reshape(shape)
    writers = [adios_obj.open_write("fields", name, RankContext(r, 4)) for r in range(4)]
    for r, w in enumerate(writers):
        w.write("temp", full[boxes[r].slices()].copy(), box=boxes[r], global_shape=shape)
    for w in writers:
        w.end_step()
        w.close()
    reader = adios_obj.open_read("fields", name, RankContext(0, 1))
    out = reader.read("temp")
    reader.close()
    return out


def test_same_code_runs_stream_and_file(tmp_path):
    stream_out = run_pipeline(make_adios(), "switch.test")
    file_cfg = STREAM_CONFIG.replace(
        '<method group="fields" method="FLEXPATH"/>',
        '<method group="fields" method="BP"/>',
    )
    file_out = run_pipeline(Adios.from_xml(file_cfg), str(tmp_path / "switch.bp"))
    np.testing.assert_array_equal(stream_out, file_out)


# ---------------------------------------------------------------------------
# DC plug-ins on streams
# ---------------------------------------------------------------------------

def test_writer_side_plugin_reduces_buffered_bytes():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.plugins.deploy(sampling_plugin(stride=10), PluginSide.WRITER)
    w.write("zion", np.random.default_rng(0).normal(size=(1000, 7)))
    w.end_step()
    r = ad.open_read("particles", "s", RankContext(0, 1))
    out = r.read_block("zion", 0)
    assert out.shape == (100, 7)  # conditioned before buffering


def test_reader_side_plugin_applies_on_read():
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    data = np.random.default_rng(1).normal(size=(500, 7))
    w.write("zion", data)
    w.end_step()
    r = ad.open_read("particles", "s", RankContext(0, 1))
    r.plugins.deploy(range_select_plugin("zion", 2, -0.1, 0.1), PluginSide.READER)
    out = r.read_block("zion", 0)
    assert out.shape[0] < 500
    assert ((out[:, 2] >= -0.1) & (out[:, 2] <= 0.1)).all()


def test_plugin_migration_on_live_stream():
    """Migrating the sampler writer-side changes what gets buffered."""
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.plugins.deploy(sampling_plugin(stride=5), PluginSide.READER)
    w.write("zion", np.zeros((100, 7)))
    w.end_step()
    # Step 0 was buffered full-size (plug-in ran reader-side).
    w.plugins.migrate("sample/5", PluginSide.WRITER)
    w.write("zion", np.zeros((100, 7)))
    w.end_step()
    r = ad.open_read("particles", "s", RankContext(0, 1))
    # Step 0 was buffered full-size; the sampler now lives writer-side, so
    # no reader-side conditioning applies on this read.
    assert r.read_block("zion", 0).shape == (100, 7)
    r._advance()
    # Step 1 was conditioned before buffering.
    assert r.read_block("zion", 0).shape == (20, 7)


# ---------------------------------------------------------------------------
# Resiliency: typed losses, lease-based failure detection, crash semantics
# ---------------------------------------------------------------------------

FAULTY_CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
  </adios-group>
  <method group="particles" method="FLEXPATH">{params}</method>
</adios-config>
"""


def test_sync_end_step_raises_and_step_is_typed_gap():
    """A sync publish whose retries are exhausted fails loudly on BOTH
    sides: MovementFailed to the writer, OtherError (never silent commit,
    never torn data) to the reader."""
    from repro.core import StepState
    from repro.core.resilience import MovementFailed

    ad = Adios.from_xml(FAULTY_CONFIG.format(
        params="sync=true;max_retries=1;retry_timeout=0.01;"
               "faults=ops=1|2,kinds=timeout"
    ))
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((4, 7)))
    with pytest.raises(MovementFailed):
        w.end_step()                     # ops 1 and 2 fault: retries exhausted
    w.write("zion", np.ones((4, 7)))
    w.end_step()                         # op 3 onward is clean
    w.close()

    state = stream_registry._states["s"]
    assert state.published[0].status is StepState.LOST
    assert state.published[0].groups == {}        # buffers discarded
    assert state.published[1].status is StepState.COMMITTED

    r = ad.open_read("particles", "s", RankContext(0, 1))
    assert r.begin_step() is StepStatus.OtherError  # step 0: typed gap
    assert r.begin_step() is StepStatus.OK          # step 1 survived
    np.testing.assert_array_equal(r.read_block("zion", 0), np.ones((4, 7)))
    r.end_step()
    assert r.begin_step() is StepStatus.EndOfStream


def test_lease_expiry_ends_stream_with_error_not_stall():
    """A writer that stops heartbeating past its lease is evicted; the
    reader gets OtherError instead of polling a dead stream forever, and
    the writer's partial step is discarded (never torn-visible).

    The failure detector runs on an injected clock — the registry's,
    which every stream's lease reads — so the "crash" is one
    deterministic tick forward, not a wall-clock sleep."""
    from repro.obs import recorder as flight
    from repro.obs.events import EV_LEASE_REAP

    recorder = flight.reset()
    now = [0.0]
    stream_registry.set_clock(lambda: now[0])
    ad = Adios.from_xml(FAULTY_CONFIG.format(params="lease=0.05"))
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((4, 7)))
    w.end_step()                         # publish heartbeats the lease
    w.write("zion", np.full((4, 7), 7.0))  # mid-step data, then "crash":
    now[0] += 0.12                       # no heartbeat within the lease

    r = ad.open_read("particles", "s", RankContext(0, 1))
    assert r.begin_step() is StepStatus.OK          # committed step survives
    np.testing.assert_array_equal(r.read_block("zion", 0), np.zeros((4, 7)))
    r.end_step()
    assert r.begin_step() is StepStatus.OtherError  # lease expired -> failure
    state = stream_registry._states["s"]
    assert state.closed and "lease expired" in state.error
    assert state.open_step == {}                    # partial step discarded
    assert len(recorder.events(code=EV_LEASE_REAP, stream="s")) == 1
    assert state.monitor.metrics.counter("dataplane.stream.failures").value == 1
    # The failure is also idempotent and terminal:
    assert r.begin_step() is StepStatus.OtherError


def test_a_lease_evicted_stream_name_opens_a_new_run():
    """The evicted run stays the name's until a writer opens it again,
    which starts a new run, as after a clean close."""
    now = [0.0]
    stream_registry.set_clock(lambda: now[0])
    ad = Adios.from_xml(FAULTY_CONFIG.format(params="lease=0.05"))
    w = ad.open_write("particles", "s", RankContext(0, 1))
    w.write("zion", np.zeros((4, 7)))
    w.end_step()
    now[0] += 1.0
    r = ad.open_read("particles", "s", RankContext(0, 1))
    assert r.begin_step() is StepStatus.OK
    r.end_step()
    assert r.begin_step() is StepStatus.OtherError
    assert ad.open_read("particles", "s", RankContext(0, 1)).begin_step() is StepStatus.OK
    w2 = ad.open_write("particles", "s", RankContext(0, 1))
    w2.write("zion", np.ones((4, 7)))
    w2.close()
    r2 = ad.open_read("particles", "s", RankContext(0, 1))
    assert r2.begin_step() is StepStatus.OK
    np.testing.assert_array_equal(r2.read_block("zion", 0), np.ones((4, 7)))
    r2.end_step()
    assert r2.begin_step() is StepStatus.EndOfStream


def test_writer_crash_between_steps_reports_failure_without_data_loss():
    """fail() between steps keeps every committed step readable; only the
    end of the stream is abnormal."""
    ad = make_adios()
    w = ad.open_write("particles", "s", RankContext(0, 1))
    for step in range(2):
        w.write("zion", np.full((2, 7), float(step)))
        w.end_step()
    state = stream_registry._states["s"]
    state.fail("writer died")            # crash with no step in flight

    r = ad.open_read("particles", "s", RankContext(0, 1))
    for step in range(2):
        assert r.begin_step() is StepStatus.OK
        assert float(r.read_block("zion", 0)[0, 0]) == float(step)
        r.end_step()
    assert r.begin_step() is StepStatus.OtherError  # not EndOfStream
    state.fail("again")                  # second fail is a no-op
    assert state.error == "writer died"


class _LeasedRun(Run):
    """The least a run needs to be reaped: a name, ``closed`` and ``fail``."""

    name, closed, failed = "s", False, None

    def fail(self, reason):
        self.closed, self.failed = True, reason


def test_directory_lease_reap_with_fake_clock():
    """Unit-level failure detector: a run's lease on a deterministic
    clock, and the one reaper that fails a lapsed run."""
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731
    leased, eternal = _LeasedRun(PluginManager()), _LeasedRun(PluginManager())
    leased.hold_lease(1.0, clock)
    eternal.hold_lease(None, clock)      # no lease: never lapses
    assert not leased.lapsed()
    now[0] = 0.9
    leased.beat()                        # refreshes the deadline to 1.9
    eternal.beat()
    now[0] = 1.5
    assert reap([leased, eternal]) == []
    now[0] = 1.9
    assert not leased.lapsed()           # lapses strictly past the deadline
    now[0] = 2.0
    assert leased.lapsed()
    assert reap([leased, eternal]) == [leased]
    assert "lease expired" in leased.failed
    assert reap([leased, eternal]) == []  # a failed run is not reaped again
    now[0] = 1e9
    assert not eternal.lapsed() and eternal.deadline is None
    for period in (0.0, -1.0):
        with pytest.raises(ValueError):
            Run(PluginManager()).hold_lease(period, clock)
