"""The fused executor's value filter: a row selection, on both planes.

Four tiers:

* property — a fused filter read (:meth:`FusedPlan.execute`) over random
  chains of ``sampling``, ``range_select`` and ``unit_conversion``, row
  splits, dtypes and block layouts is the interpreted chain over the
  assembled array: byte-identical, a fresh writable array, and the same
  per-plug-in stats; a faulty mask raises ``IndexError``;
* both planes — a fused ``sampling`` + ``range_select`` read of a 2-D
  variable in process and through a same-node net stream (steps read out
  of the daemon's slots) equals the interpreted chain, and what it
  returned shares no memory with the blocks it was read from;
* ``read_into`` under a filtering chain, on both planes, fills ``out``
  only when the chain's output has its shape, and otherwise raises a
  typed error and leaves ``out`` as it was;
* pushdown lifetime — a closed in-process reader's predicate stops
  steering the drain.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import (
    Adios,
    AdiosError,
    BoundingBox,
    RankContext,
    StepStatus,
    block_decompose,
)
from repro.core import DCPlugin, PluginManager, PluginSide
from repro.core.directory import TenantSpec
from repro.core.hints import stream_params
from repro.core.plugins import (
    Capability,
    PluginKernel,
    _ChainCursor,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.redistribution import PlanCache
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import DirectoryDaemon
from repro.obs.names import M_PLUGIN_BLOCKS_SKIPPED, M_PLUGIN_FUSED_READS

# ---------------------------------------------------------------------------
# A fused filter read is the interpreted chain
# ---------------------------------------------------------------------------

DTYPES = ("f8", ">f8", "f4", "i4")

#: layout -> (base, rows, width) -> one writer block cut from ``base``.
LAYOUTS = {
    "c": lambda base, n, w: base[:n, :w].copy(),
    "fortran": lambda base, n, w: np.asfortranarray(base[:n, :w]),
    "strided_rows": lambda base, n, w: base[:2 * n:2, :w],
    "column_sliced": lambda base, n, w: base[:n, 1:w + 1],
}

KERNELS = st.one_of(
    st.tuples(st.just("sample"), st.integers(1, 5)),
    st.tuples(st.just("range"), st.floats(-4.0, 4.0), st.floats(0.0, 4.0)),
    st.tuples(st.just("unit"), st.floats(-2.0, 2.0)),
)


def _chain(specs) -> PluginManager:
    """A reader-side manager with fresh plug-ins for ``specs``."""
    mgr = PluginManager()
    for kind, *args in specs:
        if kind == "sample":
            plugin = sampling_plugin(stride=args[0])
        elif kind == "range":
            lo, span = args
            plugin = range_select_plugin("v", 0, lo, lo + span)
        else:
            plugin = unit_conversion_plugin("v", args[0])
        mgr.deploy(plugin, PluginSide.READER)
    return mgr


def _row_tiling(rows, width):
    boxes, at = [], 0
    for n in rows:
        boxes.append(BoundingBox((at, 0), (n, width)))
        at += n
    return boxes, (at, width)


def _stats(mgr):
    return [
        (p.name, p.stats.bytes_in, p.stats.bytes_out, p.stats.invocations)
        for p in mgr.plugins(PluginSide.READER)
    ]


@settings(max_examples=300, deadline=None)
@given(
    specs=st.lists(KERNELS, min_size=1, max_size=3, unique_by=lambda k: k[0]),
    rows=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    width=st.integers(1, 5),
    dtype=st.sampled_from(DTYPES),
    layout=st.sampled_from(sorted(LAYOUTS)),
    seed=st.integers(0, 10_000),
)
def test_fused_filter_read_is_the_interpreted_chain(
    specs, rows, width, dtype, layout, seed
):
    rng = np.random.default_rng(seed)
    bases = [
        rng.uniform(-4.0, 4.0, size=(2 * n, width + 1)).astype(dtype)
        for n in rows
    ]
    blocks = [LAYOUTS[layout](base, n, width) for base, n in zip(bases, rows)]
    boxes, gshape = _row_tiling(rows, width)
    reader = [BoundingBox((0, 0), gshape)]

    fused_mgr = _chain(specs)
    fplan, _ = PlanCache().get(
        boxes, reader, gshape, chain=fused_mgr.compiled_chain(PluginSide.READER)
    )
    got = fplan.execute(blocks, "v")

    plain, _ = PlanCache().get(boxes, reader, gshape)
    oracle = _chain(specs)
    want = oracle.apply_side(PluginSide.READER, {"v": plain.execute(blocks)[0]})["v"]

    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if gshape[0]:  # with no row to run it over, no chain picks the dtype
        assert got.dtype == want.dtype
    assert got.flags.writeable
    assert not any(np.shares_memory(got, base) for base in bases)
    assert _stats(fused_mgr) == _stats(oracle)


@settings(max_examples=200, deadline=None)
@given(
    order=st.permutations(("sample", "range", "unit")),
    take=st.integers(1, 3),
    rows=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    dtype=st.sampled_from(("f8", ">f8", "i4")),
    stride=st.integers(1, 6),
    lo=st.floats(-3.0, 3.0),
    span=st.floats(0.0, 3.0),
    none_survive=st.booleans(),
    factor=st.floats(0.25, 4.0),
    seed=st.integers(0, 10_000),
)
def test_gather_once_is_the_interpreted_chain(
    order, take, rows, dtype, stride, lo, span, none_survive, factor, seed
):
    """Each block's survivors are gathered straight into the one result —
    no per-block piece is concatenated — and that is the interpreted
    chain over the assembled array, dtype included (``i4`` scaled comes
    out float, ``>f8`` stays swapped), sharing no memory with a block."""
    if none_survive:
        lo, span = 100.0, 1.0  # above every value, scaled or not: none survive
    specs = {"sample": ("sample", stride), "range": ("range", lo, span),
             "unit": ("unit", factor)}
    chain = [specs[kind] for kind in order[:take]]
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-4.0, 4.0, size=(n, 3)).astype(dtype) for n in rows]
    boxes, gshape = _row_tiling(rows, 3)
    reader = [BoundingBox((0, 0), gshape)]
    plain, _ = PlanCache().get(boxes, reader, gshape)
    want = _chain(chain).apply_side(
        PluginSide.READER, {"v": plain.execute(blocks)[0]})["v"]
    fplan, _ = PlanCache().get(
        boxes, reader, gshape, chain=_chain(chain).compiled_chain(PluginSide.READER))

    def refuse(*_, **__):
        raise AssertionError("a per-block piece was concatenated")

    with mock.patch.object(np, "concatenate", refuse):
        got = fplan.execute(blocks, "v")
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if gshape[0]:  # with no row to run it over, no chain picks the dtype
        assert got.dtype == want.dtype
    assert not any(np.shares_memory(got, block) for block in blocks)


def _faulty(mask_of):
    kernel = PluginKernel(Capability.FILTER, fingerprint="faulty", mask_fn=mask_of)
    return DCPlugin("faulty", "def condition(vars):\n    return vars\n", kernel=kernel)


@pytest.mark.parametrize("mask_of", [
    lambda arr: np.ones(arr.shape[0] + 1, dtype=bool),
    lambda arr: np.ones(arr.shape[0], dtype=np.float64),
    lambda arr: np.zeros(arr.shape[0], dtype=np.intp),
], ids=["wrong_length", "float", "int"])
@pytest.mark.parametrize("stride", [1, 2], ids=["whole", "sampled"])
def test_a_faulty_mask_raises_index_error(mask_of, stride):
    """A mask that is not a boolean row mask of the selection raises what
    ``arr[mask]`` raises for a wrong length — and an integer one is
    refused too, never taken for row indices."""
    blocks = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 12.0).reshape(2, 3)]
    fplan = _fused_plan(lambda m: (
        m.deploy(sampling_plugin(stride=stride), PluginSide.READER),
        m.deploy(_faulty(mask_of), PluginSide.READER),
    ))
    with pytest.raises(IndexError):
        fplan.execute(blocks, "v")


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
                assert not np.shares_memory(got, r._link.pool)
        assert c.monitor.metrics.counter(M_PLUGIN_FUSED_READS).value == 4
        w.close()
        r.close()


# ---------------------------------------------------------------------------
# read_into under a filtering chain: the whole shape, or a typed error
# ---------------------------------------------------------------------------

SMALL = (8, 3)

_SMALL_XML = """
<adios-config>
  <adios-group name="small">
    <var name="v" type="float64" dimensions="8,3"/>
  </adios-group>
  <method group="small" method="FLEXPATH">{params}</method>
</adios-config>
"""

#: survivors -> rows of column 0 equal to 10.0, the one value the chain keeps.
KEPT = {"none": [], "one": [5], "all": list(range(SMALL[0]))}


def _small_step(survivors: str) -> np.ndarray:
    a = np.arange(24.0).reshape(SMALL) + 100.0
    a[KEPT[survivors], 0] = 10.0
    return a


def _read_into(reader, a: np.ndarray, survivors: str) -> None:
    """``read_into`` either fills ``out`` with every row (all survive)
    or raises and leaves ``out`` holding what it held."""
    out = np.full(SMALL, -1.0)
    if survivors == "all":
        assert reader.read_into("v", out, start=(0, 0), count=SMALL) is out
        assert out.tobytes() == a.tobytes()
    else:
        with pytest.raises(AdiosError, match="read_into"):
            reader.read_into("v", out, start=(0, 0), count=SMALL)
        assert (out == -1.0).all()
    reader.end_step()


@pytest.mark.parametrize("survivors", sorted(KEPT))
def test_in_process_read_into_under_a_filter_is_whole_or_refused(survivors):
    ad = Adios.from_xml(_SMALL_XML.format(params=stream_params(sync=True)))
    name = f"rowgather.into.{survivors}"
    writer = ad.open_write("small", name, RankContext(0, 1))
    state = stream_registry._states[name]
    state.plugins.deploy(range_select_plugin("v", 0, 10.0, 10.0), PluginSide.READER)
    reader = ad.open_read("small", name, RankContext(0, 1))
    try:
        a = _small_step(survivors)
        writer.write("v", a, box=BoundingBox((0, 0), SMALL), global_shape=SMALL)
        writer.end_step()
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        _read_into(reader, a, survivors)
    finally:
        writer.close()
        reader.close()
        stream_registry.close_stream(name)


@pytest.mark.parametrize("survivors", sorted(KEPT))
def test_net_read_into_under_a_filter_is_whole_or_refused(daemon, survivors):
    with connect(f"flexio://{daemon.host}:{daemon.control_port}/public") as c:
        w, r = c.open("into", "w"), c.open("into", "r", timeout=2.0)
        r.plugins.deploy(range_select_plugin("v", 0, 10.0, 10.0), PluginSide.READER)
        a = _small_step(survivors)
        w.begin_step()
        w.write("v", a, box=BoundingBox((0, 0), SMALL), global_shape=SMALL)
        w.end_step()
        assert r.begin_step(timeout=2.0) is StepStatus.OK
        _read_into(r, a, survivors)
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
