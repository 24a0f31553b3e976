"""One reader for every placement.

The same read scenarios run through an in-process stream, through an
in-process daemon and through the file methods (``BP`` and
``MPI_AGGREGATE``) must return byte-identical arrays and move the
fused/interpreted counters identically — every handle runs
:class:`repro.core.reader.StepReader`'s one read path.  Net-only tests
cover what remote readers inherit from it: plan-cache hits, a
``read_into`` that scatters into the caller's array, ``read_all`` and
the read spans.  Plus the :class:`FusedPlan` tiling analysis that
replaced the net handle's hand-rolled gap check.

One writer, too: the same rank schedules through the stream, both file
methods and the daemon (``STAGING``, each rank its own data connection)
deliver the same steps (one rank handle, one
:class:`~repro.adios.api.StepBarrier`), a writer-side chain conditions
a step alike in process, on both file methods and through the daemon
(:func:`~repro.adios.api.condition`), every write handle shows its
run's chain and monitor, and every write handle refuses a closed handle
and a block that does not fit its box alike.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.adios import AdiosError, BoundingBox, StepStatus, VariableNotFound
from repro.adios.config import MethodSpec
from repro.obs import sanitize
from repro.core import PluginManager, PluginSide
from repro.core.directory import TenantSpec
from repro.core.hints import StreamHints, defaults
from repro.core.plugins import (
    DCPlugin,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.redistribution import CompiledPlan, FusedPlan, compute_plan
from repro.core.stream import stream_registry
from repro import connect
from repro.net.client import _CachedStep
from repro.net.protocol import encode_var
from repro.net.server import DirectoryDaemon
from repro.obs.names import M_PLUGIN_FUSED_READS, M_PLUGIN_INTERPRETED_READS
from repro.transport.buffers import as_byte_view
from repro.transport.shm import ShmArena

SHAPE = (32, 6)
BANDS = [BoundingBox((r * 8, 0), (8, 6)) for r in range(4)]
#: Column-split writers: no selection row-tiles over these.
COLUMNS = [BoundingBox((0, c * 3), (32, 3)) for c in range(2)]
DATA = np.random.default_rng(13).random(SHAPE)


@pytest.fixture(autouse=True)
def fresh_registry():
    """CI also runs this file under ``FLEXIO_SANITIZE=1``: no case may end
    with a violation on record, nor with a drainer thread its streams'
    close paths left un-joined (checked before the registry's reset
    joins whatever is left)."""
    active = sanitize.get()
    if active is not None:
        active.reset()
    stream_registry.reset()
    yield
    if active is not None:
        active.check_shutdown()
    stream_registry.reset()
    if active is not None:
        active.assert_clean()


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False, lease_interval=0.05
    )
    d.start()
    yield d
    d.stop()


def _uri(daemon) -> str:
    return f"flexio://{daemon.host}:{daemon.control_port}/public"


def _write_step(writers, boxes=BANDS, extra=()):
    """One step of the array: a writer rank per block in process, one
    remote writer publishing every block over the net."""
    for w in writers:
        w.begin_step()
    for i, box in enumerate(boxes):
        w = writers[i % len(writers)]
        w.write("zion", DATA[box.slices()], box=box, global_shape=SHAPE)
    for name, arr, box, gshape in extra:
        writers[0].write(name, arr, box=box, global_shape=gshape)
    for w in writers:
        w.end_step()


def _open_inproc(name, boxes=BANDS, extra=(), params="", steps=1):
    return _open_local(connect("local://", params=params), name, boxes, extra, steps)


def _open_local(client, name, boxes, extra, steps):
    writers = [client.open(name, "w", rank=r, num_ranks=4) for r in range(4)]
    for _ in range(steps):
        _write_step(writers, boxes, extra)
    for w in writers:
        w.close()
    return client.open(name, "r")


_FILE_CONFIG = """
<adios-config>
  <adios-group name="flexio"/>
  <method group="flexio" method="{method}">{params}</method>
</adios-config>
"""

#: The offline placement: one file, or two subfiles behind a manifest.
FILE_METHODS = {"BP": "", "MPI_AGGREGATE": "aggregators=2"}


def _open_file(path, method, boxes=BANDS, extra=(), steps=1):
    """The same four writer ranks as in process, onto ``method``'s files."""
    config = _FILE_CONFIG.format(method=method, params=FILE_METHODS[method])
    return _open_local(connect("local://", config=config), str(path), boxes, extra, steps)


def _open_net(client, name, boxes=BANDS, extra=(), steps=1):
    writer = client.open(name, "w")
    for _ in range(steps):
        _write_step([writer], boxes, extra)
    return client.open(name, "r", timeout=2.0)


def _unit(plugins):
    plugins.deploy(unit_conversion_plugin("zion", 2.5), PluginSide.READER)


def _sample_select(plugins):
    plugins.deploy(sampling_plugin(stride=3, only=("zion",)), PluginSide.READER)
    plugins.deploy(range_select_plugin("zion", 0, 0.2, 0.8), PluginSide.READER)


#: name -> (writer boxes, deploy reader chain, read, fused delta, interpreted delta)
SCENARIOS = {
    "mxn_plain": (BANDS, None, lambda r: r.read("zion"), 0, 0),
    "sub_box": (
        BANDS, None, lambda r: r.read("zion", start=(5, 1), count=(20, 3)), 0, 0,
    ),
    "fused_filter_free": (BANDS, _unit, lambda r: r.read("zion"), 1, 0),
    "fused_filtering": (BANDS, _sample_select, lambda r: r.read("zion"), 1, 0),
    "non_tiling_interpreted": (
        COLUMNS, _sample_select, lambda r: r.read("zion"), 0, 1,
    ),
    "read_block": (BANDS, _unit, lambda r: r.read_block("zion", 0), 0, 0),
}


def _run(reader, deploy, read):
    if deploy is not None:
        deploy(reader.plugins)
    m = reader.monitor.metrics
    before = (m.counter(M_PLUGIN_FUSED_READS).value,
              m.counter(M_PLUGIN_INTERPRETED_READS).value)
    assert reader.begin_step(timeout=2.0) is StepStatus.OK
    got = read(reader)
    reader.end_step()
    return got, (m.counter(M_PLUGIN_FUSED_READS).value - before[0],
                 m.counter(M_PLUGIN_INTERPRETED_READS).value - before[1])


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_same_read_on_both_planes(daemon, scenario):
    boxes, deploy, read, fused, interpreted = SCENARIOS[scenario]
    name = f"planes.{scenario}"
    local, local_counts = _run(_open_inproc(name, boxes), deploy, read)
    with connect(_uri(daemon)) as c:
        remote, remote_counts = _run(_open_net(c, name, boxes), deploy, read)
    assert remote.dtype == local.dtype and remote.shape == local.shape
    assert remote.tobytes() == local.tobytes()
    assert local_counts == remote_counts == (fused, interpreted)


@pytest.mark.parametrize("method", sorted(FILE_METHODS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_same_read_on_the_file_plane(tmp_path, method, scenario):
    boxes, deploy, read, fused, interpreted = SCENARIOS[scenario]
    local, local_counts = _run(_open_inproc(f"planes.{scenario}", boxes), deploy, read)
    reader = _open_file(tmp_path / "run.bp", method, boxes)
    offline, offline_counts = _run(reader, deploy, read)
    reader.close()
    assert offline.dtype == local.dtype and offline.shape == local.shape
    assert offline.tobytes() == local.tobytes()
    assert local_counts == offline_counts == (fused, interpreted)


def test_non_global_read_raises_adios_error_on_both_planes(daemon):
    extra = [("tag", np.arange(3.0), None, None)]
    local = _open_inproc("planes.tag", extra=extra)
    with connect(_uri(daemon)) as c:
        remote = _open_net(c, "planes.tag", extra=extra)
        for reader in (local, remote):
            assert reader.begin_step(timeout=2.0) is StepStatus.OK
            with pytest.raises(AdiosError, match="not a global array"):
                reader.read("tag")
            with pytest.raises(AdiosError, match="not a global array"):
                reader.read_into("tag", np.empty(3))


# ---------------------------------------------------------------------------
# What a reader is told about step k: one store, so one answer per plane
# ---------------------------------------------------------------------------

@pytest.fixture(params=["inproc", "net", "net-nonce-blanked"])
def plane(request):
    """``(client, tick)`` on one plane; ``tick(seconds)`` moves the
    injected clock its lease reaper runs on.  The daemon plane runs twice:
    as the same-node peer this process is (bulk steps by reference), and
    as a peer that could not read the daemon's nonce (inline frames)."""
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    if request.param == "inproc":
        stream_registry.set_clock(lambda: now[0])
        yield connect("local://", params="lease=5"), tick
        return
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False, lease_interval=0.02,
        clock=lambda: now[0],
    ).start()
    try:
        with connect(_uri(d)) as c:
            if request.param == "net-nonce-blanked":
                c._nonce = ""
            yield c, tick
            rung = d._streams[f"public/planes.{request.node.callspec.params['outcome']}"]
            assert (rung.pool is not None) == (request.param == "net")
    finally:
        d.stop()


#: float64 elements of a step well over ``INLINE_MAX``.
BULK = 1 << 15


@pytest.mark.parametrize("outcome", ["clean_end", "lease_expiry", "reader_ahead"])
def test_step_outcomes_are_the_same_on_both_planes(plane, outcome):
    client, tick = plane
    name = f"planes.{outcome}"
    w = client.open(name, "w", lease=5.0)
    for k in range(2):  # bulk: the second one moves by reference where it can
        w.begin_step()
        w.write("x", np.full(BULK, float(k)))
        w.end_step()
    r = client.open(name, "r", timeout=2.0)
    for k in range(2):  # retained steps are served whatever happens next
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        np.testing.assert_array_equal(r.read_block("x", 0), np.full(BULK, float(k)))
        r.end_step()
    if outcome == "clean_end":
        w.close()
        assert r.begin_step(timeout=2.0) is StepStatus.EndOfStream
        assert r.begin_step() is StepStatus.EndOfStream
    elif outcome == "lease_expiry":
        tick(10.0)  # the writer went silent for two lease periods
        for _ in range(3):  # typed, terminal: never a clean end, never NotReady
            assert r.begin_step(timeout=2.0) is StepStatus.OtherError
        assert r.current_step == 1  # a failed stream, not a lost step
    else:
        assert r.begin_step() is StepStatus.NotReady
        t0 = time.monotonic()
        assert r.begin_step(timeout=0.2) is StepStatus.NotReady
        assert 0.2 <= time.monotonic() - t0 < 2.0
    r.close()
    w.close()


def test_end_step_in_process_releases_nothing():
    """``end_step()`` calls the source's release hook; only the net handle
    has anything to let go of (``tests/test_net_colocated.py``)."""
    from repro.core.reader import StepReader

    reader = _open_inproc("planes.release")
    assert type(reader)._release is StepReader._release
    assert reader.begin_step(timeout=2.0) is StepStatus.OK
    first = reader.read("zion")
    assert reader.end_step() is StepStatus.OK
    with pytest.raises(AdiosError):
        reader.end_step()  # still one end per begin
    np.testing.assert_array_equal(reader.read("zion"), first)
    np.testing.assert_array_equal(first, DATA)
    reader.close()


# ---------------------------------------------------------------------------
# What the net handle inherits
# ---------------------------------------------------------------------------

def test_net_second_step_is_a_plan_cache_hit(daemon):
    with connect(_uri(daemon)) as c:
        r = _open_net(c, "planes.cache", steps=3)
        for _ in range(3):
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            assert r.read("zion").tobytes() == DATA.tobytes()
            r.end_step()
        m = c.monitor.metrics
        assert m.counter("dataplane.plan_cache.misses").value == 1
        assert m.counter("dataplane.plan_cache.hits").value == 2


def test_net_read_into_scatters_into_the_callers_array(daemon, monkeypatch):
    def forbidden(*_a, **_k):
        raise AssertionError("read_into must not materialize an intermediate")

    calls = []
    execute_into = CompiledPlan.execute_into

    def counted(self, blocks, outs, **kw):
        calls.append(outs[0])
        return execute_into(self, blocks, outs, **kw)

    monkeypatch.setattr(CompiledPlan, "execute", forbidden)
    monkeypatch.setattr(CompiledPlan, "execute_into", counted)
    with connect(_uri(daemon)) as c:
        r = _open_net(c, "planes.into")
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        out = np.empty((20, 3))
        got = r.read_into("zion", out, start=(5, 1), count=(20, 3))
        assert got is out and np.shares_memory(got, out)
        assert len(calls) == 1 and calls[0] is out
        assert out.tobytes() == np.ascontiguousarray(DATA[5:25, 1:4]).tobytes()
        with pytest.raises(ValueError, match="out shape"):
            r.read_into("zion", np.empty((4, 4)))


def test_net_read_all_returns_every_global_array(daemon):
    rho = np.arange(12.0).reshape(4, 3)
    extra = [
        ("rho", rho, BoundingBox((0, 0), (4, 3)), (4, 3)),
        ("tag", np.arange(3.0), None, None),
    ]
    with connect(_uri(daemon)) as c:
        r = _open_net(c, "planes.all", extra=extra)
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        got = r.read_all()
        assert set(got) == {"zion", "rho"}
        assert got["zion"].tobytes() == DATA.tobytes()
        assert got["rho"].tobytes() == rho.tobytes()
        assert set(r.read_all(["rho"])) == {"rho"}


def test_net_read_emits_read_span_with_transport_child(daemon):
    with connect(_uri(daemon)) as c:
        c.monitor.enable_tracing()
        r = _open_net(c, "planes.trace")
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        r.read("zion")
        spans = {
            rec.category: dict(rec.extra) for rec in c.monitor.trace
            if rec.category in ("read", "redistribute", "transport")
            and rec.name == "zion"
        }
        assert set(spans) == {"read", "redistribute", "transport"}
        assert spans["transport"]["parent_id"] == spans["read"]["span_id"]
        assert spans["transport"]["trace_id"] == spans["read"]["trace_id"]


# ---------------------------------------------------------------------------
# What the file handle inherits
# ---------------------------------------------------------------------------

@pytest.fixture(params=sorted(FILE_METHODS))
def file_method(request):
    return request.param


def test_file_read_all_returns_every_global_array(tmp_path, file_method):
    rho = np.arange(12.0).reshape(4, 3)
    extra = [
        ("rho", rho, BoundingBox((0, 0), (4, 3)), (4, 3)),
        ("tag", np.arange(3.0), None, None),
    ]
    with _open_file(tmp_path / "all.bp", file_method, extra=extra) as r:
        assert r.begin_step() is StepStatus.OK
        got = r.read_all()
        assert set(got) == {"zion", "rho"}
        assert got["zion"].tobytes() == DATA.tobytes()
        assert got["rho"].tobytes() == rho.tobytes()
        assert set(r.read_all(["rho"])) == {"rho"}


def test_file_read_into_scatters_into_the_callers_array(tmp_path, file_method):
    with _open_file(tmp_path / "into.bp", file_method) as r:
        assert r.begin_step() is StepStatus.OK
        out = np.empty((20, 3))
        got = r.read_into("zion", out, start=(5, 1), count=(20, 3))
        assert got is out
        assert out.tobytes() == np.ascontiguousarray(DATA[5:25, 1:4]).tobytes()
        with pytest.raises(ValueError, match="out dtype"):
            r.read_into("zion", np.empty(SHAPE, dtype=np.float32))


def test_file_handle_tracks_the_current_step(tmp_path, file_method):
    with _open_file(tmp_path / "steps.bp", file_method, steps=2) as r:
        assert r.begin_step() is StepStatus.OK
        assert r.current_step == 0
        r.end_step()
        assert r.begin_step() is StepStatus.OK
        assert r.current_step == 1
        r.end_step()
        assert r.begin_step() is StepStatus.EndOfStream
        assert r.current_step == 1


def test_file_handle_types_a_missing_variable_or_writer(tmp_path, file_method):
    with _open_file(tmp_path / "missing.bp", file_method) as r:
        assert r.begin_step() is StepStatus.OK
        with pytest.raises(VariableNotFound):
            r.read("nope")
        with pytest.raises(VariableNotFound):
            r.read_block("zion", 9)
        with pytest.raises(VariableNotFound):
            r.read_block("nope", 0)


def test_unplaced_global_array_is_a_typed_error_in_process_and_on_file(tmp_path, file_method):
    """A global shape with no block placed in it (every block written
    without a box) is refused alike: no plan exists to read it through."""
    extra = [("g", np.arange(3.0), None, (3,))]
    with _open_file(tmp_path / "unplaced.bp", file_method, extra=extra) as offline:
        for reader in (_open_inproc("planes.unplaced", extra=extra), offline):
            assert reader.begin_step(timeout=2.0) is StepStatus.OK
            with pytest.raises(AdiosError, match="no block of 'g' is placed"):
                reader.read("g")


# ---------------------------------------------------------------------------
# read_into zero-fills what no block covers, whatever the plan path
# ---------------------------------------------------------------------------

#: Three of the four bands: rows 24..31 of the array have no block.
PARTIAL = BANDS[:3]


def _assert_zero_filled(reader):
    assert reader.begin_step(timeout=2.0) is StepStatus.OK
    for _ in range(2):  # compiled, then replayed where plans are cached
        out = np.full(SHAPE, 7.0)
        assert reader.read_into("zion", out) is out
        np.testing.assert_array_equal(out[:24], DATA[:24])
        assert not out[24:].any()
    reader.end_step()


@pytest.mark.parametrize("caching", ["none", "local"])
def test_read_into_zero_fills_uncovered_cells_in_process(caching):
    _assert_zero_filled(
        _open_inproc(f"planes.fill.{caching}", PARTIAL, params=f"caching={caching}")
    )


def test_read_into_zero_fills_uncovered_cells_on_the_file_plane(tmp_path, file_method):
    with _open_file(tmp_path / "fill.bp", file_method, PARTIAL) as r:
        _assert_zero_filled(r)


# ---------------------------------------------------------------------------
# FusedPlan: gap-tolerant vs gapless row tiling
# ---------------------------------------------------------------------------

def _fused(writer_boxes, chain_of):
    mgr = PluginManager()
    chain_of(mgr)
    chain = mgr.compiled_chain(PluginSide.READER)
    target = BoundingBox((0, 0), SHAPE)
    return FusedPlan(CompiledPlan(compute_plan(writer_boxes, [target])), chain)


def test_fused_plan_records_row_tiled_and_gapless_separately():
    full = _fused(BANDS, _sample_select)
    assert full.row_tiled and full.fusable

    holed = [BANDS[0], BANDS[1], BANDS[3]]  # band 2 pruned
    gappy = _fused(holed, _sample_select)
    assert gappy.row_tiled and not gappy.fusable
    # A filtering chain reads the gappy tiling: the survivors of the
    # blocks that are there, in row order.
    blocks = [DATA[b.slices()] for b in holed]
    got = gappy.execute(blocks, "zion", dtype=DATA.dtype)
    oracle = _fused([BoundingBox((0, 0), (24, 6))], _sample_select)
    want = oracle.execute([np.concatenate(blocks)], "zion", dtype=DATA.dtype)
    assert got.tobytes() == want.tobytes() and got.shape[0] > 0

    # A filter-free chain would leave the gap's rows unwritten: refused.
    transform = _fused(holed, _unit)
    assert transform.row_tiled and not transform.can_execute_into("zion")
    with pytest.raises(ValueError, match="gapless"):
        transform.execute(blocks, "zion", dtype=DATA.dtype)

    # Overlapping or column-split blocks are not a row tiling at all.
    overlap = _fused([BANDS[0], BoundingBox((4, 0), (28, 6))], _sample_select)
    split = _fused(
        [BoundingBox((0, 0), (32, 3)), BoundingBox((0, 3), (32, 3))], _sample_select
    )
    assert not overlap.row_tiled and not split.row_tiled


# ---------------------------------------------------------------------------
# One memoised block index, and none outlives the slot it viewed
# ---------------------------------------------------------------------------

def test_an_owned_step_indexes_no_memory_of_the_slot_it_was_fetched_from():
    arena = ShmArena(DATA.nbytes)
    run = np.concatenate([as_byte_view(p) for p in encode_var({
        "name": "v", "writer_rank": 0, "start": [0, 0], "shape": list(SHAPE),
        "gshape": list(SHAPE), "vmin": 0.0, "vmax": 0.0, "has_stats": False,
        "data": DATA})])
    slot = arena.arr[:run.nbytes]
    slot[:] = run
    step = _CachedStep(0, 1, slot, 0)  # as a STEP_REF is read: where it lies
    index = step.blocks("v")
    assert step.blocks("v") is index  # built once, like a sealed step's
    assert np.shares_memory(index[1][0], arena.arr)
    step.own()
    owned = step.blocks("v")
    assert owned is not index
    assert not any(np.shares_memory(data, arena.arr) for data in owned[1])
    np.testing.assert_array_equal(owned[1][0], DATA)


# ---------------------------------------------------------------------------
# StreamHints restates nothing
# ---------------------------------------------------------------------------

def test_stream_hints_defaults_are_the_registry():
    registry = dict(defaults())
    built = asdict(StreamHints())
    assert built == asdict(StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {})))
    built["caching"] = built["caching"].value
    assert built == registry


# ---------------------------------------------------------------------------
# One writer: the same rank schedule delivers the same steps on every method
# ---------------------------------------------------------------------------

#: Every method a program's ranks write through: the stream, one file,
#: two subfiles behind a manifest.
WRITE_METHODS = {"FLEXPATH": "", **FILE_METHODS}

#: Rows of the two-rank array each rank's band covers.
BAND = 4

#: name -> (schedule of (op, rank), the writer ranks of each delivered
#: step).  ``w`` writes the rank's next block, ``e`` ends its step and
#: ``c`` closes it.
SCHEDULES = {
    "lockstep": (
        "w0 w1 e0 e1 w0 w1 e0 e1 c0 c1", [[0, 1], [0, 1]],
    ),
    # Rank 1 closes after rank 0, the only live rank left, ended step 0:
    # the close ends that step, so rank 0's next block starts step 1.
    "close_after_live_ranks_ended": ("w0 e0 w1 c1 w0 e0 c0", [[0, 1], [0]]),
    "last_rank_out_leaves_a_partial_step": (
        "w0 w1 e0 e1 w0 w1 c0 c1", [[0, 1], [0, 1]],
    ),
    "close_before_writing": ("c1 w0 e0 w0 e0 c0", [[0], [0]]),
}


def _band(rank, k):
    return np.random.default_rng(100 * k + rank).random((BAND, 3))


def _run_schedule(path, method, schedule, params=None):
    params = WRITE_METHODS[method] if params is None else params
    client = connect("local://", config=_FILE_CONFIG.format(method=method, params=params))
    writers = [client.open(path, "w", rank=r, num_ranks=2) for r in range(2)]
    written = [0, 0]
    for op in schedule.split():
        kind, rank = op[0], int(op[1])
        w = writers[rank]
        if kind == "w":
            box = BoundingBox((rank * BAND, 0), (BAND, 3))
            w.write("a", _band(rank, written[rank]), box=box, global_shape=(2 * BAND, 3))
            written[rank] += 1
        elif kind == "e":
            w.end_step()
        else:
            w.close()
    return client.open(path, "r")


def _delivered(reader):
    """Every step: its writer ranks and the global array's bytes."""
    steps = []
    while reader.begin_step(timeout=2.0) is StepStatus.OK:
        ranks = []
        for rank in range(2):
            try:
                reader.read_block("a", rank)
            except VariableNotFound:
                continue
            ranks.append(rank)
        steps.append((ranks, reader.read("a").tobytes()))
        reader.end_step()
    reader.close()
    return steps


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_same_schedule_delivers_the_same_steps_on_every_method(tmp_path, daemon, schedule):
    """The staging placement is one ``<method>`` line too: each writer
    rank opens its own session and data connection to the daemon."""
    ops, ranks = SCHEDULES[schedule]
    got = {
        method: _delivered(_run_schedule(str(tmp_path / f"{method}.bp"), method, ops))
        for method in WRITE_METHODS
    }
    staging = f"daemon={daemon.host}:{daemon.control_port};tenant=public"
    got["STAGING"] = _delivered(_run_schedule(f"schedule.{schedule}", "STAGING", ops, staging))
    # Two writer ranks and the reader, a session (and a data connection) each.
    assert daemon.metrics.counter("net.sessions", labels={"tenant": "public"}).value == 3
    stream = got.pop("FLEXPATH")
    assert [r for r, _ in stream] == ranks
    for method, steps in got.items():
        assert steps == stream, method


# ---------------------------------------------------------------------------
# One writer-side chain step, in process and through the daemon
# ---------------------------------------------------------------------------

PAIR = np.random.default_rng(7).random((2, 8, 2))

SUM_SRC = """
def condition(vars):
    out = dict(vars)
    out['c'] = vars['a'] + vars['b']
    return out
"""


def _units_chain(plugins):
    plugins.deploy(unit_conversion_plugin("zion", 2.5), PluginSide.WRITER)


def _sum_chain(plugins):
    plugins.deploy(DCPlugin("sum", SUM_SRC), PluginSide.WRITER)


def _sample_chain(plugins):
    plugins.deploy(sampling_plugin(2), PluginSide.WRITER)


def _units_read(reader):
    got = reader.read("zion")
    np.testing.assert_array_equal(got, DATA * 2.5)
    return got.tobytes()


def _sum_read(reader):
    """Each writer's ``a`` and ``b`` blocks are one record: ``c`` is their
    sum, a new output and so local data."""
    c = reader.read_block("c", 0)
    np.testing.assert_array_equal(c, PAIR[0, :4] + PAIR[1, :4])
    with pytest.raises(AdiosError, match="not a global array"):
        reader.read("c")
    return (sorted(reader.available_vars()), reader.read("a").tobytes(),
            reader.read("b").tobytes(), c.tobytes())


def _sample_read(reader):
    """The sampled block lost its box, not its global shape."""
    with pytest.raises(AdiosError, match="no block of 'a' is placed"):
        reader.read("a")
    block = reader.read_block("a", 0)
    np.testing.assert_array_equal(block, PAIR[0, ::2])
    return block.tobytes()


#: name -> (deploy the writer chain, blocks each rank writes, read the step)
WRITER_CHAINS = {
    "units": (
        _units_chain,
        [[("zion", DATA[box.slices()], box, SHAPE)] for box in BANDS],
        _units_read,
    ),
    "two_variable_codelet": (
        _sum_chain,
        [
            [(name, PAIR[i, r * 4:(r + 1) * 4], BoundingBox((r * 4, 0), (4, 2)), (8, 2))
             for i, name in enumerate("ab")]
            for r in range(2)
        ],
        _sum_read,
    ),
    "sampling_a_global_array": (
        _sample_chain,
        [[("a", PAIR[0], BoundingBox((0, 0), (8, 2)), (8, 2))]],
        _sample_read,
    ),
}


def _write_blocks(w, blocks):
    for name, arr, box, gshape in blocks:
        w.write(name, arr, box=box, global_shape=gshape)


@pytest.mark.parametrize("chain", sorted(WRITER_CHAINS))
def test_writer_chain_conditions_a_step_alike_on_both_planes(tmp_path, daemon, chain):
    """In process and on both file methods, rank r writes the r-th block
    of each name and the chain deployed on one rank's handle is the
    run's; the one net writer writes them all, and its r-th block of a
    name goes into the chain's r-th record."""
    deploy, ranks, read = WRITER_CHAINS[chain]

    def ranks_read(client, name):
        writers = [client.open(name, "w", rank=r, num_ranks=len(ranks))
                   for r in range(len(ranks))]
        deploy(writers[0].plugins)
        for w, blocks in zip(writers, ranks):
            w.begin_step()
            _write_blocks(w, blocks)
        for w in writers:
            w.end_step()
            w.close()
        reader = client.open(name, "r")
        assert reader.begin_step(timeout=2.0) is StepStatus.OK
        got = read(reader)
        reader.close()
        return got

    local = ranks_read(connect("local://"), f"planes.writer.{chain}")
    for method, params in FILE_METHODS.items():
        config = _FILE_CONFIG.format(method=method, params=params)
        path = str(tmp_path / f"{method}.bp")
        assert ranks_read(connect("local://", config=config), path) == local, method
    with connect(_uri(daemon)) as c:
        w = c.open(f"planes.writer.{chain}", "w")
        deploy(w.plugins)
        w.begin_step()
        for blocks in ranks:
            _write_blocks(w, blocks)
        w.end_step()
        remote = c.open(f"planes.writer.{chain}", "r", timeout=2.0)
        assert remote.begin_step(timeout=2.0) is StepStatus.OK
        assert read(remote) == local
        w.close()


@pytest.mark.parametrize("method", [*sorted(WRITE_METHODS), "STAGING", "net"])
def test_every_write_handle_shows_its_runs_chain_and_monitor(tmp_path, daemon, method):
    """Two ranks' handles on every method: in process and on the file
    methods both show their one run's chain and monitor; a staging rank's
    run is its own data connection, on its session's monitor."""
    if method == "net":
        session = connect(_uri(daemon))
        writers = [session.open("planes.run", "w", rank=r, num_ranks=2) for r in range(2)]
    else:
        params = (f"daemon={daemon.host}:{daemon.control_port};tenant=public"
                  if method == "STAGING" else WRITE_METHODS[method])
        client = connect("local://", config=_FILE_CONFIG.format(method=method, params=params))
        writers = [client.open(str(tmp_path / "run.bp"), "w", rank=r, num_ranks=2)
                   for r in range(2)]
    for w in writers:
        assert w.plugins is w._run.plugins and w.monitor is w._run.monitor
        assert w.plugins.monitor is w.monitor
    if method in ("STAGING", "net"):
        assert all(w.monitor is w._run._link.client.monitor for w in writers)
        assert writers[0].plugins is not writers[1].plugins
    else:
        assert writers[0]._run is writers[1]._run
    for w in writers:
        w.close()
    if method == "net":
        session.close()


# ---------------------------------------------------------------------------
# Every write handle refuses the same misuse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", [*sorted(WRITE_METHODS), "net"])
def test_write_handle_refuses_a_closed_handle_and_a_misfit_block(request, tmp_path, method):
    path = str(tmp_path / "closed.bp")
    if method == "net":
        client = connect(_uri(request.getfixturevalue("daemon")))
        w = client.open("planes.closed", "w")
    else:
        config = _FILE_CONFIG.format(method=method, params=WRITE_METHODS[method])
        client = connect("local://", config=config)
        w = client.open(path, "w")
    box = BoundingBox((0, 0), (4, 3))
    with pytest.raises(ValueError, match="box count"):
        w.write("a", np.zeros((3, 3)), box=box, global_shape=(4, 3))
    w.begin_step()
    w.write("a", np.zeros((4, 3)), box=box, global_shape=(4, 3))
    w.end_step()
    w.close()
    with pytest.raises(AdiosError, match="write after close"):
        w.write("a", np.zeros((4, 3)), box=box, global_shape=(4, 3))
    with pytest.raises(AdiosError, match="end_step after close"):
        w.end_step()
    client.close()


@pytest.mark.parametrize("method", [*sorted(WRITE_METHODS), "STAGING"])
def test_every_method_keeps_every_block_a_rank_writes_of_one_name(tmp_path, daemon, method):
    """One rank writes a name as two blocks in a step: every ``<method>``
    keeps both, reads them back as the one array, and serves the rank's
    first from ``read_block`` — the rule ``WriteHandle.write`` states."""
    params = (f"daemon={daemon.host}:{daemon.control_port};tenant=public"
              if method == "STAGING" else WRITE_METHODS[method])
    client = connect("local://", config=_FILE_CONFIG.format(method=method, params=params))
    path = str(tmp_path / "halves.bp")
    w = client.open(path, "w")
    a = np.arange(24.0).reshape(8, 3)
    w.begin_step()
    for rows in (slice(0, 4), slice(4, 8)):
        w.write("a", a[rows], box=BoundingBox((rows.start, 0), (4, 3)), global_shape=(8, 3))
    w.end_step()
    w.close()
    r = client.open(path, "r")
    assert r.begin_step(timeout=2.0) is StepStatus.OK
    np.testing.assert_array_equal(r.read("a"), a)
    np.testing.assert_array_equal(r.read_block("a", 0), a[:4])
    r.end_step()
    r.close()
    client.close()
