"""The fused executor's value filter: a row gather, on both planes.

Three tiers:

* property — :func:`repro.core.plugins._gather_rows` against ``arr[keep]``
  over dtypes, row widths, memory layouts and masks: byte-identical, a
  fresh writable array, and the same exception for a wrong-length mask;
* both planes — a fused ``sampling`` + ``range_select`` read of a 2-D
  variable in process and through a same-node net stream (steps read out
  of the daemon's slots) equals the interpreted chain, and what it
  returned shares no memory with the blocks it was read from;
* pushdown lifetime — a closed in-process reader's predicate stops
  steering the drain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import Adios, BoundingBox, RankContext, StepStatus, block_decompose
from repro.core import PluginManager, PluginSide
from repro.core.directory import TenantSpec
from repro.core.hints import stream_params
from repro.core.plugins import (
    _ChainCursor,
    _gather_rows,
    range_select_plugin,
    sampling_plugin,
)
from repro.core.redistribution import PlanCache
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import DirectoryDaemon
from repro.obs.names import M_PLUGIN_BLOCKS_SKIPPED, M_PLUGIN_FUSED_READS

# ---------------------------------------------------------------------------
# The row gather is arr[keep]
# ---------------------------------------------------------------------------

DTYPES = ("f8", ">f8", "f4", "i1", "c16", "O")

#: layout -> (rows, width) -> the array under test, built from a C base.
LAYOUTS = {
    "c": lambda base, n, w: base[:n, :w].copy(),
    "fortran": lambda base, n, w: np.asfortranarray(base[:n, :w]),
    "column_range": lambda base, n, w: base[:n, 1:w + 1],
    "column_strided": lambda base, n, w: base[:n, :2 * w:2],
    "strided_rows": lambda base, n, w: base[:3 * n:3, :w],
    "reversed_rows": lambda base, n, w: base[:n, :w][::-1],
    "three_d": lambda base, n, w: base[:n, :2 * w].reshape(n, w, 2),
    "one_d": lambda base, n, w: base[:n, 0].copy(),
    "read_only": lambda base, n, w: _read_only(base[:2 * n:2, :w]),
}


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _base(dtype, rng):
    values = rng.integers(-100, 100, size=(30, 20))
    base = values.astype(dtype)
    if base.dtype.kind == "c":
        base = base + 1j * values[::-1].astype(dtype)
    return base


def _owns_its_bytes(got, src) -> bool:
    root = got
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root.flags.owndata and not np.shares_memory(got, src)


@settings(max_examples=300, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    layout=st.sampled_from(sorted(LAYOUTS)),
    rows=st.integers(0, 10),
    width=st.integers(1, 9),
    mask=st.sampled_from(("random", "none", "all")),
    seed=st.integers(0, 10_000),
)
def test_row_gather_is_arr_keep(dtype, layout, rows, width, mask, seed):
    rng = np.random.default_rng(seed)
    arr = LAYOUTS[layout](_base(dtype, rng), rows, width)
    keep = {
        "random": rng.random(arr.shape[0]) < 0.5,
        "none": np.zeros(arr.shape[0], dtype=bool),
        "all": np.ones(arr.shape[0], dtype=bool),
    }[mask]
    want = arr[keep]
    got = _gather_rows(arr, keep)
    assert got.dtype == want.dtype and got.shape == want.shape
    if arr.dtype.hasobject:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and _owns_its_bytes(got, arr)
    if rows and dtype != "O":
        # A block whose rows are each contiguous is gathered a row at a
        # time (the result views the gathered items); the rest is arr[keep].
        whole_rows = arr.ndim > 1 and arr[0].flags.c_contiguous
        assert got.flags.owndata == (not whole_rows)

    wrong = np.ones(arr.shape[0] + 1, dtype=bool)
    with pytest.raises(Exception) as expected:
        arr[wrong]
    with pytest.raises(expected.type):
        _gather_rows(arr, wrong)


def _fused_plan(chain_of):
    boxes = [BoundingBox((0, 0), (2, 3)), BoundingBox((2, 0), (2, 3))]
    mgr = PluginManager()
    chain_of(mgr)
    fplan, _ = PlanCache().get(boxes, [BoundingBox((0, 0), (4, 3))], (4, 3),
                               chain=mgr.compiled_chain(PluginSide.READER))
    return fplan


def test_a_lone_survivor_that_views_its_block_is_copied():
    blocks = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 12.0).reshape(2, 3)]
    fplan = _fused_plan(
        lambda m: m.deploy(sampling_plugin(stride=4, only=("v",)), PluginSide.READER)
    )
    got = fplan.execute(blocks, "v")
    assert got.tobytes() == blocks[0][:1].tobytes()
    assert not any(np.shares_memory(got, b) for b in blocks)


def test_a_variable_no_kernel_touches_is_scattered_without_the_cursor(monkeypatch):
    """A chain over another variable leaves ``v``'s read a plain scatter:
    no kernel call per block, and nothing accounted as plug-in work."""
    fplan = _fused_plan(
        lambda m: m.deploy(sampling_plugin(stride=4, only=("w",)), PluginSide.READER)
    )
    calls = []
    monkeypatch.setattr(_ChainCursor, "apply_block_into",
                        lambda self, arr, dst: calls.append(arr))
    blocks = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 12.0).reshape(2, 3)]
    got = fplan.execute(blocks, "v")
    assert got.tobytes() == np.arange(12.0).tobytes() and calls == []
    assert all(p.stats.invocations == 0 for p, _ in fplan.chain.pairs)


# ---------------------------------------------------------------------------
# Both planes: a fused sample + range read equals the interpreted chain
# ---------------------------------------------------------------------------

SHAPE = (512, 32)  # 128 KiB of float64: over INLINE_MAX, so steps go by slot
HALF = SHAPE[0] // 2
HALVES = [BoundingBox((0, 0), (HALF, 32)), BoundingBox((HALF, 0), (HALF, 32))]


def _deploy(plugins):
    plugins.deploy(sampling_plugin(stride=3, only=("f",)), PluginSide.READER)
    plugins.deploy(range_select_plugin("f", 0, 0.25, 0.75), PluginSide.READER)


def _step(k: int, lone: bool) -> np.ndarray:
    """Uniform rows; with ``lone`` the second half has none in range, so
    one block survives the chain and is the whole result."""
    a = np.random.default_rng(k).random(SHAPE)
    if lone:
        a[HALF:] += 2.0
    return a


def _oracle(a: np.ndarray) -> bytes:
    mgr = PluginManager()
    _deploy(mgr)
    return mgr.apply_side(PluginSide.READER, {"f": a})["f"].tobytes()


def _read_step(reader):
    """Read the current step fused; returns it and the blocks it came from."""
    blocks = [data for _, _, data in reader._source().var_blocks("f")]
    got = reader.read("f", start=(0, 0), count=SHAPE)
    reader.end_step()
    return got, blocks


_XML = """
<adios-config>
  <adios-group name="field">
    <var name="f" type="float64" dimensions="512,32"/>
  </adios-group>
  <method group="field" method="FLEXPATH">{params}</method>
</adios-config>
"""


@pytest.mark.parametrize("lone", [False, True], ids=["pieces", "lone"])
@pytest.mark.parametrize("xpmem", [False, True], ids=["pool", "mapped"])
def test_in_process_fused_read_is_the_oracle_and_its_own(xpmem, lone):
    ad = Adios.from_xml(_XML.format(params=stream_params(sync=True, xpmem=xpmem)))
    name = f"rowgather.{xpmem}.{lone}"
    writers = [ad.open_write("field", name, RankContext(r, 2)) for r in range(2)]
    state = stream_registry._states[name]
    _deploy(state.plugins)
    reader = ad.open_read("field", name, RankContext(0, 1))
    try:
        for k in range(3):
            a = _step(k, lone)
            for h, box in zip(writers, HALVES):
                h.write("f", a[box.slices()], box=box, global_shape=SHAPE)
                h.end_step()
            assert reader.begin_step(timeout=5.0) is StepStatus.OK
            got, blocks = _read_step(reader)
            assert got.tobytes() == _oracle(a) and got.flags.writeable
            assert not any(np.shares_memory(got, b) for b in blocks)
        assert state.monitor.metrics.counter(M_PLUGIN_FUSED_READS).value == 3
    finally:
        for h in writers:
            h.close()
        reader.close()
        stream_registry.close_stream(name)


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    yield d
    d.stop()


@pytest.mark.parametrize("lone", [False, True], ids=["pieces", "lone"])
def test_net_fused_read_out_of_a_slot_is_the_oracle_and_its_own(daemon, lone):
    with connect(f"flexio://{daemon.host}:{daemon.control_port}/public") as c:
        w, r = c.open("rowgather", "w"), c.open("rowgather", "r", timeout=2.0)
        _deploy(r.plugins)
        for k in range(4):
            a = _step(k, lone)
            w.begin_step()
            for box in HALVES:
                w.write("f", a[box.slices()], box=box, global_shape=SHAPE)
            w.end_step()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            # The stream's first step comes inline and sizes the pool.
            assert (r._held is not None) == (k > 0)
            got, blocks = _read_step(r)
            assert got.tobytes() == _oracle(a) and got.flags.writeable
            assert not any(np.shares_memory(got, b) for b in blocks)
            if k:
                assert not np.shares_memory(got, r._pool)
        assert c.monitor.metrics.counter(M_PLUGIN_FUSED_READS).value == 4
        w.close()
        r.close()


# ---------------------------------------------------------------------------
# A closed pushdown reader's predicate goes with it
# ---------------------------------------------------------------------------


def test_closed_pushdown_reader_withdraws_its_predicate():
    ad = Adios.from_xml(_XML.format(params=stream_params(sync=True, pushdown=True)))
    name = "rowgather.pushdown.close"
    boxes = block_decompose(SHAPE, (2, 1))
    writers = [ad.open_write("field", name, RankContext(r, 2)) for r in range(2)]
    state = stream_registry._states[name]
    state.plugins.deploy(range_select_plugin("f", 0, 0.0, 1.0), PluginSide.READER)
    reader = ad.open_read("field", name, RankContext(0, 1))
    keep = np.full(tuple(boxes[0].count), 0.5)
    drop = np.full(tuple(boxes[1].count), 2.5)
    skipped = state.monitor.metrics.counter(M_PLUGIN_BLOCKS_SKIPPED)

    def write_step():
        for h, data, box in zip(writers, (keep, drop), boxes):
            h.write("f", data, box=box, global_shape=SHAPE)
            h.end_step()

    try:
        write_step()
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        assert reader.read("f", start=(0, 0), count=SHAPE).tobytes() == keep.tobytes()
        reader.end_step()
        assert state.readers.combined is not None
        write_step()  # the predicate is armed: the drain skips ``drop``
        assert skipped.value == 1

        reader.close()
        reader.close()
        assert state.readers.combined is None
        write_step()  # nobody left to prune for
        assert skipped.value == 1
    finally:
        for h in writers:
            h.close()
        stream_registry.close_stream(name)
