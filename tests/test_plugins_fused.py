"""Fused analytics plan: sandbox fuzz, fused-vs-interpreted equivalence,
plan-cache chain keys, and predicate pushdown on both planes.

Four tiers:

* codelet sandbox — hypothesis fuzz over forbidden constructs (every
  escape attempt is a :class:`CodeletError`, never an execution) and
  over the arithmetic subset that must keep compiling;
* fused plan — random writer row decompositions x random kernel chains:
  :class:`FusedPlan` output is byte-identical to scattering with the
  plain plan and running the chain interpreted;
* plan cache — chain-hash-extended keys never collide across chains and
  geometry invalidation drops every fused variant;
* pushdown — the net broker skips blocks the run's reader chain
  provably drops, counted in ``plugin.blocks_skipped``, with reads
  staying exact (in process every reader reads the writer's arrays,
  so nothing is pruned).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import Adios, BoundingBox, RankContext, StepStatus, block_decompose
from repro.core import CodeletError, DCPlugin, PluginManager, PluginSide
from repro.core.directory import TenantSpec
from repro.core.hints import stream_params
from repro.core.plugins import (
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)
from repro.core.redistribution import PlanCache
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import DirectoryDaemon
from repro.obs.names import (
    M_PLUGIN_BLOCKS_SKIPPED,
    M_PLUGIN_FUSED_READS,
)


# ---------------------------------------------------------------------------
# Codelet sandbox: fuzz the validator
# ---------------------------------------------------------------------------

#: Escape attempts parameterized by a fuzzed identifier; every one must
#: be rejected at DCPlugin construction (CodeletError), whatever name
#: the fuzzer picks (keywords degrade to syntax errors — also typed).
_ESCAPES = (
    "import {m}\ndef condition(vars):\n    return vars\n",
    "from {m} import x\ndef condition(vars):\n    return vars\n",
    "def condition(vars):\n    with vars:\n        pass\n    return vars\n",
    "def condition(vars):\n    try:\n        pass\n    except Exception:\n        pass\n    return vars\n",
    "def condition(vars):\n    {m} = lambda a: a\n    return vars\n",
    "class {m}:\n    pass\ndef condition(vars):\n    return vars\n",
    "def condition(vars):\n    return vars['{m}'].__class__\n",
    "def condition(vars):\n    return np._{m}\n",
    "def condition(vars):\n    global {m}\n    return vars\n",
    "def condition(vars):\n    yield vars\n",
    "async def condition(vars):\n    return vars\n",
    "def condition(vars):\n    assert vars\n    return vars\n",
    "def condition(vars):\n    raise ValueError('{m}')\n",
)


@settings(max_examples=120, deadline=None)
@given(
    template=st.sampled_from(_ESCAPES),
    name=st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
)
def test_fuzz_sandbox_rejects_every_escape(template, name):
    with pytest.raises(CodeletError):
        DCPlugin("fuzz", template.format(m=name))


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(0.25, 4.0),
    bias=st.floats(-2.0, 2.0),
)
def test_fuzz_sandbox_accepts_arithmetic_codelets(scale, bias):
    """The restricted subset stays expressive: arbitrary arithmetic
    comprehensions over the vars dict compile and run."""
    src = (
        "def condition(vars):\n"
        f"    return {{k: v * {scale!r} + {bias!r} for k, v in vars.items()}}\n"
    )
    p = DCPlugin("arith", src)
    out = p.apply({"x": np.ones(5)})
    np.testing.assert_allclose(out["x"], np.ones(5) * scale + bias)


# ---------------------------------------------------------------------------
# FusedPlan == scatter-then-interpret, for arbitrary blocks and chains
# ---------------------------------------------------------------------------


def _chain_kernels(order, stride, lo, hi, factor):
    """Fresh plug-in instances for one fuzzed chain composition."""
    factories = {
        "sample": lambda: sampling_plugin(stride=stride, only=("zion",)),
        "range": lambda: range_select_plugin("zion", 0, lo, hi),
        "unit": lambda: unit_conversion_plugin("zion", factor),
    }
    return [factories[k]() for k in order]


def _manager(order, stride, lo, hi, factor):
    mgr = PluginManager()
    for k in _chain_kernels(order, stride, lo, hi, factor):
        mgr.deploy(k, PluginSide.READER)
    return mgr


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    order=st.permutations(("unit", "sample", "range")),
    take=st.integers(1, 3),
    stride=st.integers(1, 5),
    lo=st.floats(-1.0, 0.5),
    span=st.floats(0.0, 1.5),
    factor=st.floats(0.5, 2.0),
    seed=st.integers(0, 10_000),
)
def test_fuzz_fused_plan_matches_interpreted_chain(
    rows, order, take, stride, lo, span, factor, seed
):
    """Random writer row splits x random kernel chains: the fused
    single-pass execute is byte-identical to the two-pass oracle
    (plain scatter, then the chain interpreted over the whole array)."""
    total = sum(rows)
    gshape = (total, 7)
    starts, at = [], 0
    for n in rows:
        starts.append(at)
        at += n
    writer_boxes = [
        BoundingBox((s, 0), (n, 7)) for s, n in zip(starts, rows)
    ]
    reader_boxes = [BoundingBox((0, 0), gshape)]
    chain_order = tuple(order[:take])
    hi = lo + span
    chain = _manager(chain_order, stride, lo, hi, factor).compiled_chain(
        PluginSide.READER
    )
    assert chain is not None and chain.supports("zion")

    cache = PlanCache()
    fplan, _ = cache.get(writer_boxes, reader_boxes, gshape, chain=chain)
    assert fplan.fusable  # contiguous row tilings always fuse
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-1.0, 2.0, size=(n, 7)) for n in rows]
    fused = fplan.execute(blocks, "zion")

    plain, _ = cache.get(writer_boxes, reader_boxes, gshape)
    assembled = plain.execute(blocks)[0]
    oracle = _manager(chain_order, stride, lo, hi, factor)
    want = oracle.apply_side(PluginSide.READER, {"zion": assembled})["zion"]

    assert fused.shape == want.shape
    assert fused.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Plan cache: chain-hash-extended keys
# ---------------------------------------------------------------------------


def _stride_chain(stride):
    mgr = PluginManager()
    mgr.deploy(sampling_plugin(stride=stride, only=("v",)), PluginSide.READER)
    return mgr.compiled_chain(PluginSide.READER)


def test_plan_cache_chain_hash_separates_variants():
    boxes = [BoundingBox((0, 0), (8, 4)), BoundingBox((8, 0), (8, 4))]
    readers = [BoundingBox((0, 0), (16, 4))]
    cache = PlanCache()
    plain, hit = cache.get(boxes, readers, (16, 4))
    assert not hit
    fused, hit = cache.get(boxes, readers, (16, 4), chain=_stride_chain(2))
    assert not hit
    # The fused variant reuses the already-compiled geometry.
    assert fused.compiled is plain
    again, hit = cache.get(boxes, readers, (16, 4), chain=_stride_chain(2))
    assert hit and again is fused
    other, hit = cache.get(boxes, readers, (16, 4), chain=_stride_chain(3))
    assert not hit and other is not fused
    assert len(cache) == 3
    # One geometry invalidation drops the plain plan AND every chain
    # variant (the update_writer_boxes path).
    assert cache.invalidate(boxes, readers, (16, 4))
    assert len(cache) == 0


def test_chain_hash_stable_and_parameter_sensitive():
    def digest(stride):
        mgr = PluginManager()
        mgr.deploy(sampling_plugin(stride=stride, only=("zion",)),
                   PluginSide.READER)
        return mgr.chain_hash(PluginSide.READER)

    assert digest(2) == digest(2)
    assert digest(2) != digest(3)


# ---------------------------------------------------------------------------
# Fused reads, in-process plane
# ---------------------------------------------------------------------------

_S3D_XML = """
<adios-config>
  <adios-group name="field">
    <var name="temp" type="float64" dimensions="32,32"/>
  </adios-group>
  <method group="field" method="FLEXPATH">{params}</method>
</adios-config>
"""


@pytest.mark.parametrize("xpmem", [False, True])
def test_stream_fused_read_matches_interpreted_chain(xpmem):
    """The same steps read through the fused plan (``fused=true``) and
    through scatter-then-interpret; the drain delivers the steps by
    reference whether or not the ``xpmem`` hint is set."""
    boxes = block_decompose((32, 32), (2, 1))
    rng = np.random.default_rng(11)
    steps = [[rng.uniform(-1.0, 2.0, size=tuple(b.count)) for b in boxes]
             for _ in range(4)]
    reads, counts = {}, {}
    for fused in (True, False):
        params = stream_params(sync=True, fused=fused, xpmem=xpmem)
        ad = Adios.from_xml(_S3D_XML.format(params=params))
        name = f"fused.equiv.{xpmem}.{fused}"
        handles = [ad.open_write("field", name, RankContext(r, 2)) for r in range(2)]
        state = stream_registry._states[name]
        for kernel in (unit_conversion_plugin("temp", 1.5),
                       sampling_plugin(stride=3, only=("temp",)),
                       range_select_plugin("temp", 0, 0.0, 1.0)):
            state.plugins.deploy(kernel, PluginSide.READER)
        reader = ad.open_read("field", name, RankContext(0, 1))
        try:
            reads[fused] = []
            for blocks in steps:
                for h, data, box in zip(handles, blocks, boxes):
                    h.write("temp", data, box=box, global_shape=(32, 32))
                    h.end_step()
                assert reader.begin_step(timeout=5.0) is StepStatus.OK
                reads[fused].append(
                    reader.read("temp", start=(0, 0), count=(32, 32)).tobytes()
                )
                reader.end_step()
            metrics = state.monitor.metrics
            counts[fused] = metrics.counter(M_PLUGIN_FUSED_READS).value
            assert metrics.counter("shm.messages_sent").value == len(steps)
        finally:
            for h in handles:
                h.close()
            reader.close()
            stream_registry.close_stream(name)
    assert reads[True] == reads[False]
    assert counts == {True: len(steps), False: 0}


# ---------------------------------------------------------------------------
# Predicate pushdown, network plane
# ---------------------------------------------------------------------------


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False, lease_interval=0.05
    )
    d.start()
    yield d
    d.stop()


def test_net_broker_prunes_blocks_for_pushdown_readers(daemon):
    uri = f"flexio://{daemon.host}:{daemon.control_port}/public"
    rng = np.random.default_rng(5)
    keep = rng.uniform(0.0, 0.5, size=(16, 32))
    drop = rng.uniform(2.0, 3.0, size=(16, 32))
    with connect(uri) as c:
        w = c.open("flux", "w")
        r = c.open("flux", "r", timeout=2.0, pushdown=True)
        r.plugins.deploy(
            range_select_plugin("temp", 0, 0.0, 1.0), PluginSide.READER
        )

        def publish():
            w.begin_step()
            w.write("temp", keep,
                    box=BoundingBox((0, 0), (16, 32)), global_shape=(32, 32))
            w.write("temp", drop,
                    box=BoundingBox((16, 0), (16, 32)), global_shape=(32, 32))
            w.end_step()

        # The run's chain and the pushdown reader are there before step 0:
        # every step is pruned, and both reads return exactly the
        # surviving rows — the broker pruned a block only the chain
        # would have dropped anyway.
        for _ in range(2):
            publish()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            got = r.read("temp", start=(0, 0), count=(32, 32))
            r.end_step()
            assert got.shape == (16, 32)
            assert got.tobytes() == keep.tobytes()
        hosted = daemon._streams["public/flux"]
        skipped = hosted.monitor.metrics.counter(
            M_PLUGIN_BLOCKS_SKIPPED, labels={"tenant": "public"}
        ).value
        assert skipped == 2
        # Both reads took the fused per-block path on the client.
        assert c.monitor.metrics.counter(M_PLUGIN_FUSED_READS).value == 2
        w.close()
        r.close()


def test_net_broker_keeps_a_fully_pruned_variable_visible(daemon):
    """A chain that drops every block of a variable still reads it on the
    pruned step: the broker keeps one block of the name — of the step,
    not of each rank — and the reader's chain drops its rows, so pruning
    never turns into ``VariableNotFound``."""
    uri = f"flexio://{daemon.host}:{daemon.control_port}/public"
    rng = np.random.default_rng(6)
    with connect(uri) as c:
        writers = [c.open("gone", "w", rank=k, num_ranks=2) for k in range(2)]
        r = c.open("gone", "r", timeout=2.0, pushdown=True)
        r.plugins.deploy(range_select_plugin("temp", 0, 0.0, 1.0), PluginSide.READER)

        def publish():
            for k, w in enumerate(writers):
                w.begin_step()
                for half in range(2):
                    w.write("temp", rng.uniform(2.0, 3.0, size=(8, 32)),
                            box=BoundingBox((16 * k + 8 * half, 0), (8, 32)),
                            global_shape=(32, 32))
                w.end_step()

        reads = []
        for _ in range(2):
            publish()
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            reads.append(r.read("temp", start=(0, 0), count=(32, 32)))
            r.end_step()
        assert [got.shape for got in reads] == [(0, 32), (0, 32)]
        hosted = daemon._streams["public/gone"]
        skipped = hosted.monitor.metrics.counter(
            M_PLUGIN_BLOCKS_SKIPPED, labels={"tenant": "public"}
        ).value
        assert skipped == 6  # of each step's four blocks, one stays
        for w in writers:
            w.close()
        r.close()
