"""Tests for the cached, pipelined data plane and the step-oriented API.

Covers the plan cache (compile-once, replay slice assignments), the
async publication drainer with back-pressure, the begin_step/end_step +
StepStatus surface on both stream and file methods, Selection-object
reads, the unified VariableNotFound error, and the counter-backed
handshake accounting.
"""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import (
    Adios,
    AdiosError,
    BoundingBox,
    BoxSelection,
    EndOfStream,
    FullSelection,
    RankContext,
    StepStatus,
    VariableNotFound,
    block_decompose,
)
from repro.adios.selection import assemble, resolve_selection
from repro.core import StepState, StreamStalled, stream_registry
from repro.core.redistribution import (
    CachingOption,
    CompiledPlan,
    PlanCache,
    RedistributionEngine,
    compute_plan,
    global_plan_cache,
)
from repro.core.stepstore import Outcome
from repro.obs import sanitize
from repro.transport.faults import TransportTimeout

STREAM_CONFIG = """
<adios-config>
  <adios-group name="fields">
    <var name="temp" type="float64" dimensions="16,16"/>
    <var name="rho" type="float64" dimensions="16,16"/>
  </adios-group>
  <method group="fields" method="FLEXPATH">{params}</method>
</adios-config>
"""

SHAPE = (16, 16)


@pytest.fixture(autouse=True, scope="module")
def sanitizer_outlives_the_file():
    """Under ``FLEXIO_SANITIZE=1`` every test of this file runs
    sanitized: a test that switches the sanitizer must restore it."""
    yield
    wanted = os.environ.get("FLEXIO_SANITIZE", "").strip().lower() in ("1", "true", "yes", "on")
    assert sanitize.enabled() is wanted, "a test left the sanitizer switched"


@pytest.fixture(autouse=True)
def fresh_state():
    stream_registry.reset()
    global_plan_cache.clear()
    yield
    stream_registry.reset()
    global_plan_cache.clear()


def make_adios(params=""):
    return Adios.from_xml(STREAM_CONFIG.format(params=params))


def write_steps(adios, name, num_steps, num_writers=4, vars_=("temp",), scale=1.0):
    boxes = block_decompose(SHAPE, (2, 2))
    handles = [
        adios.open_write("fields", name, RankContext(r, num_writers))
        for r in range(num_writers)
    ]
    for step in range(num_steps):
        for r, h in enumerate(handles):
            for i, v in enumerate(vars_):
                data = (
                    np.arange(boxes[r].size, dtype=np.float64).reshape(boxes[r].count)
                    * scale
                    + step * 100
                    + r * 10
                    + i
                )
                h.write(v, data, box=boxes[r], global_shape=SHAPE)
        for h in handles:
            h.end_step()
    for h in handles:
        h.close()
    return boxes


# ---------------------------------------------------------------------------
# CompiledPlan / PlanCache
# ---------------------------------------------------------------------------

def test_compiled_plan_matches_assemble():
    gshape = (12, 10)
    wboxes = block_decompose(gshape, (3, 2))
    rboxes = block_decompose(gshape, (2, 1))
    blocks = [
        np.random.default_rng(i).normal(size=b.count) for i, b in enumerate(wboxes)
    ]
    cp = CompiledPlan(compute_plan(wboxes, rboxes))
    got = cp.execute(blocks)
    for rbox, out in zip(rboxes, got):
        ref = assemble(rbox, zip(wboxes, blocks), dtype=blocks[0].dtype)
        assert out.tobytes() == ref.tobytes()
    # Full decompositions cover every reader box.
    assert all(cp.covered)


def test_compiled_plan_uncovered_uses_fill():
    wboxes = [BoundingBox((0, 0), (4, 4))]
    rboxes = [BoundingBox((2, 2), (4, 4))]  # half sticks out of coverage
    cp = CompiledPlan(compute_plan(wboxes, rboxes))
    assert cp.covered == [False]
    blocks = [np.ones((4, 4))]
    out = cp.execute(blocks, fill=-5.0)[0]
    ref = assemble(rboxes[0], zip(wboxes, blocks), dtype=np.float64, fill=-5.0)
    assert out.tobytes() == ref.tobytes()
    assert out[-1, -1] == -5.0


def test_compiled_plan_validates_blocks():
    wboxes = block_decompose((8, 8), (2, 1))
    cp = CompiledPlan(compute_plan(wboxes, [BoundingBox((0, 0), (8, 8))]))
    with pytest.raises(ValueError, match="expected 2 writer blocks"):
        cp.execute([np.zeros((4, 8))])
    with pytest.raises(ValueError, match="shape"):
        cp.execute([np.zeros((4, 8)), np.zeros((3, 8))])


def test_plan_cache_hit_miss_and_eviction():
    cache = PlanCache(maxsize=2)
    gshape = (8, 8)
    w1 = block_decompose(gshape, (2, 1))
    w2 = block_decompose(gshape, (1, 2))
    w3 = block_decompose(gshape, (2, 2))
    r = [BoundingBox((0, 0), gshape)]
    _, hit = cache.get(w1, r, gshape)
    assert not hit
    _, hit = cache.get(w1, r, gshape)
    assert hit
    cache.get(w2, r, gshape)
    cache.get(w3, r, gshape)  # evicts w1 (LRU)
    assert len(cache) == 2
    _, hit = cache.get(w1, r, gshape)
    assert not hit
    assert cache.stats.hits == 1
    assert cache.stats.misses == 4
    assert cache.stats.evictions >= 1


def test_plan_cache_invalidate():
    cache = PlanCache()
    w = block_decompose((8, 8), (2, 1))
    r = [BoundingBox((0, 0), (8, 8))]
    cache.get(w, r)
    assert cache.invalidate(w, r)
    assert not cache.invalidate(w, r)  # already gone
    _, hit = cache.get(w, r)
    assert not hit


def test_engine_with_plan_cache_recompiles_on_update():
    gshape = (8, 8)
    cache = PlanCache()
    w1 = block_decompose(gshape, (2, 1))
    w2 = block_decompose(gshape, (1, 2))
    rbox = [BoundingBox((0, 0), gshape)]
    eng = RedistributionEngine(w1, rbox, plan_cache=cache)
    blocks1 = [np.full(b.count, i, dtype=np.float64) for i, b in enumerate(w1)]
    out1 = eng.move(blocks1)[0]
    eng.update_writer_boxes(w2)
    blocks2 = [np.full(b.count, i + 7, dtype=np.float64) for i, b in enumerate(w2)]
    out2 = eng.move(blocks2)[0]
    ref1 = assemble(rbox[0], zip(w1, blocks1), dtype=np.float64)
    ref2 = assemble(rbox[0], zip(w2, blocks2), dtype=np.float64)
    assert out1.tobytes() == ref1.tobytes()
    assert out2.tobytes() == ref2.tobytes()


# ---------------------------------------------------------------------------
# Property test: cached execute() == seed assemble(), all caching options,
# including a mid-stream distribution change.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(4, 20), st.integers(4, 20)),
    grid1=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    grid2=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    sel_frac=st.tuples(
        st.floats(0.0, 0.6), st.floats(0.0, 0.6),
        st.floats(0.2, 1.0), st.floats(0.2, 1.0),
    ),
    caching=st.sampled_from(list(CachingOption)),
    seed=st.integers(0, 10_000),
)
def test_property_cached_execute_matches_assemble(
    dims, grid1, grid2, sel_frac, caching, seed
):
    gshape = dims
    rng = np.random.default_rng(seed)
    # Random read selection inside the global array.
    start = (int(sel_frac[0] * gshape[0]), int(sel_frac[1] * gshape[1]))
    count = (
        max(1, int(sel_frac[2] * (gshape[0] - start[0]))),
        max(1, int(sel_frac[3] * (gshape[1] - start[1]))),
    )
    target = BoundingBox(start, count)

    cache = {
        CachingOption.NO_CACHING: None,
        CachingOption.CACHING_LOCAL: PlanCache(maxsize=16),
        CachingOption.CACHING_ALL: global_plan_cache,
    }[caching]

    for grid in (grid1, grid2):  # second grid = mid-stream redistribution
        wboxes = block_decompose(gshape, grid)
        for _ in range(2):  # second pass exercises the cache-hit replay
            blocks = [rng.normal(size=b.count) for b in wboxes]
            ref = assemble(
                target,
                ((b, d) for b, d in zip(wboxes, blocks)),
                dtype=np.float64,
            )
            if cache is None:
                cp = CompiledPlan(compute_plan(wboxes, [target]))
            else:
                cp, _ = cache.get(wboxes, [target], gshape)
            got = cp.execute(blocks, dtype=np.float64)[0]
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Stream reads through the plan cache
# ---------------------------------------------------------------------------

def read_all_steps(adios, name, selection=None):
    reader = adios.open_read("fields", name, RankContext(0, 1))
    outs = []
    while reader.begin_step() is StepStatus.OK:
        outs.append(reader.read("temp", selection=selection))
        reader.end_step()
    return outs


@pytest.mark.parametrize("params", ["", "caching=LOCAL", "caching=ALL"])
def test_stream_read_identical_across_caching_options(params):
    adios = make_adios(params)
    name = f"dp.caching.{params or 'none'}"
    write_steps(adios, name, num_steps=3)
    outs = read_all_steps(adios, name, BoxSelection((3, 2), (9, 11)))
    ref_adios = make_adios("")
    ref_name = name + ".ref"
    write_steps(ref_adios, ref_name, num_steps=3)
    refs = read_all_steps(ref_adios, ref_name, BoxSelection((3, 2), (9, 11)))
    assert len(outs) == 3
    for got, ref in zip(outs, refs):
        assert got.tobytes() == ref.tobytes()


def test_caching_all_uses_global_plan_cache():
    adios = make_adios("caching=ALL")
    write_steps(adios, "dp.global", num_steps=3)
    assert len(global_plan_cache) == 0
    outs = read_all_steps(adios, "dp.global")
    assert len(outs) == 3
    state = stream_registry._states["dp.global"]
    hits = state.monitor.metrics.counter("dataplane.plan_cache.hits").value
    misses = state.monitor.metrics.counter("dataplane.plan_cache.misses").value
    # First read compiles (miss), the steady-state steps replay (hits).
    assert misses >= 1
    assert hits >= 2
    assert len(global_plan_cache) >= 1


def test_no_caching_never_touches_plan_cache():
    adios = make_adios("")
    write_steps(adios, "dp.none", num_steps=2)
    read_all_steps(adios, "dp.none")
    state = stream_registry._states["dp.none"]
    assert state.monitor.metrics.counter("dataplane.plan_cache.hits").value == 0
    assert state.monitor.metrics.counter("dataplane.plan_cache.misses").value == 0
    assert len(global_plan_cache) == 0


def test_distribution_change_mid_stream_stays_correct():
    adios = make_adios("caching=ALL")
    name = "dp.redist"
    num_writers = 4
    handles = [
        adios.open_write("fields", name, RankContext(r, num_writers))
        for r in range(num_writers)
    ]
    grids = [(2, 2), (2, 2), (4, 1), (4, 1)]  # change at step 2
    per_step = []
    for step, grid in enumerate(grids):
        boxes = block_decompose(SHAPE, grid)
        blocks = []
        for r, h in enumerate(handles):
            data = np.random.default_rng(step * 10 + r).normal(size=boxes[r].count)
            blocks.append((boxes[r], data))
            h.write("temp", data, box=boxes[r], global_shape=SHAPE)
        per_step.append(blocks)
        for h in handles:
            h.end_step()
    for h in handles:
        h.close()
    reader = adios.open_read("fields", name, RankContext(0, 1))
    target = BoundingBox((0, 0), SHAPE)
    step = 0
    while reader.begin_step() is StepStatus.OK:
        got = reader.read("temp")
        ref = assemble(target, iter(per_step[step]), dtype=np.float64)
        assert got.tobytes() == ref.tobytes()
        reader.end_step()
        step += 1
    assert step == 4


# ---------------------------------------------------------------------------
# begin_step / end_step / StepStatus
# ---------------------------------------------------------------------------

def test_begin_step_not_ready_then_ok():
    adios = make_adios()
    name = "dp.steps"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    # Nothing published yet: non-blocking NotReady, no exception.
    assert reader.begin_step() is StepStatus.NotReady
    writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    assert reader.begin_step() is StepStatus.OK
    assert reader.read("temp").shape == SHAPE
    reader.end_step()
    # Writer behind again.
    assert reader.begin_step() is StepStatus.NotReady
    writer.close()
    assert reader.begin_step() is StepStatus.EndOfStream


def test_begin_step_timeout_polls_until_ready():
    adios = make_adios()
    name = "dp.timeout"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))

    def delayed_write():
        time.sleep(0.05)
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()

    t = threading.Thread(target=delayed_write)
    t.start()
    try:
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
    finally:
        t.join()
    writer.close()


def test_begin_step_misuse_raises():
    adios = make_adios()
    name = "dp.misuse"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    writer.begin_step()
    with pytest.raises(AdiosError, match="begin_step"):
        writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    with pytest.raises(AdiosError, match="end_step"):
        reader.end_step()
    assert reader.begin_step() is StepStatus.OK
    with pytest.raises(AdiosError, match="begin_step"):
        reader.begin_step()
    reader.end_step()
    writer.close()


def test_advance_alias_is_gone():
    # The pre-redesign public alias was removed: end_step() is the only
    # step seal, and the positional selection spelling is rejected.
    adios = make_adios()
    name = "dp.alias"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    assert not hasattr(writer, "advance")
    assert not hasattr(reader, "advance")
    writer.end_step()
    assert reader.read("temp").shape == SHAPE
    with pytest.raises(TypeError):
        reader.read("temp", BoxSelection((0, 0), (4, 4)))  # positional: rejected
    with pytest.raises(AdiosError, match="selection= keyword"):
        reader.read("temp", start=BoxSelection((0, 0), (4, 4)))
    with pytest.raises(AdiosError, match="not both"):
        reader.read("temp", start=(0, 0), count=(4, 4),
                    selection=BoxSelection((0, 0), (4, 4)))
    writer.close()


def test_bp_handles_support_step_api(tmp_path):
    path = str(tmp_path / "steps.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    for step in range(3):
        writer.begin_step()
        writer.write("temp", np.full(SHAPE, step), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    seen = []
    while reader.begin_step() is StepStatus.OK:
        seen.append(float(reader.read("temp")[0, 0]))
        reader.end_step()
    assert seen == [0.0, 1.0, 2.0]
    reader.close()


# ---------------------------------------------------------------------------
# Selection objects + unified errors
# ---------------------------------------------------------------------------

def test_selection_objects_on_stream_reads():
    adios = make_adios()
    write_steps(adios, "dp.sel", num_steps=1)
    reader = adios.open_read("fields", "dp.sel", RankContext(0, 1))
    by_tuple = reader.read("temp", start=(4, 4), count=(8, 8))
    by_box = reader.read("temp", selection=BoxSelection((4, 4), (8, 8)))
    by_bbox = reader.read("temp", selection=BoundingBox((4, 4), (8, 8)))
    assert by_tuple.tobytes() == by_box.tobytes() == by_bbox.tobytes()
    full = reader.read("temp", selection=FullSelection())
    assert full.shape == SHAPE
    assert full.tobytes() == reader.read("temp").tobytes()


def test_selection_objects_on_bp_reads(tmp_path):
    path = str(tmp_path / "sel.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    writer.write("temp", np.arange(256, dtype=np.float64).reshape(SHAPE),
                 box=BoundingBox((0, 0), SHAPE), global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    by_tuple = reader.read("temp", start=(2, 3), count=(5, 6))
    by_box = reader.read("temp", selection=BoxSelection((2, 3), (5, 6)))
    assert by_tuple.tobytes() == by_box.tobytes()
    assert reader.read("temp", selection=FullSelection()).shape == SHAPE
    reader.close()


def test_selection_with_count_rejected():
    with pytest.raises(ValueError, match="count must be None"):
        resolve_selection(BoxSelection((0, 0), (2, 2)), (1, 1), (8, 8))


def test_variable_not_found_unified():
    adios = make_adios()
    write_steps(adios, "dp.missing", num_steps=1)
    reader = adios.open_read("fields", "dp.missing", RankContext(0, 1))
    with pytest.raises(VariableNotFound):
        reader.read("nope")
    with pytest.raises(VariableNotFound):
        reader.read_block("nope", 0)
    # Back-compat: VariableNotFound is both AdiosError and KeyError.
    with pytest.raises(KeyError):
        reader.read("nope")
    with pytest.raises(AdiosError):
        reader.read("nope")


def test_variable_not_found_on_bp(tmp_path):
    path = str(tmp_path / "missing.bp")
    config = STREAM_CONFIG.format(params="").replace("FLEXPATH", "BP")
    adios = Adios.from_xml(config)
    writer = adios.open_write("fields", path, RankContext(0, 1))
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", path, RankContext(0, 1))
    with pytest.raises(VariableNotFound):
        reader.read("nope")
    with pytest.raises(VariableNotFound):
        reader.read_block("nope", 0)
    with pytest.raises(KeyError):
        reader.read("nope")
    reader.close()


def test_variable_not_found_str_is_clean():
    err = VariableNotFound("no variable 'x' at step 0")
    assert str(err) == "no variable 'x' at step 0"


# ---------------------------------------------------------------------------
# handshake_messages: counter-backed, no trace scan
# ---------------------------------------------------------------------------

def test_handshake_messages_counter_matches_trace():
    """The per-round message counts (deltas of ``handshake.messages``
    around each read) add up to what the handle reports."""
    adios = make_adios("caching=ALL")
    write_steps(adios, "dp.hs", num_steps=3)
    reader = adios.open_read("fields", "dp.hs", RankContext(0, 1))
    messages = stream_registry._states["dp.hs"].monitor.metrics.counter(
        "handshake.messages"
    )
    per_round = []
    while reader.begin_step() is StepStatus.OK:
        before = messages.value
        reader.read("temp")
        per_round.append(messages.value - before)
        reader.end_step()
    assert len(per_round) == 3
    assert reader.handshake_messages() == sum(per_round)
    assert reader.handshake_messages() > 0


def write_two_distributions(adios, name, steps=6):
    """``steps`` steps of ``temp`` and ``rho`` from four writer ranks:
    2 x 2 blocks, then — from half-way — 4 x 1 row bands."""
    writers = [adios.open_write("fields", name, RankContext(r, 4)) for r in range(4)]
    for step in range(steps):
        boxes = block_decompose(SHAPE, (2, 2) if step < steps // 2 else (4, 1))
        for w, box in zip(writers, boxes):
            for var in ("temp", "rho"):
                w.write(var, FIELD[box.slices()] * step, box=box, global_shape=SHAPE)
            w.end_step()
    for w in writers:
        w.close()


@pytest.mark.parametrize("batching", [False, True])
@pytest.mark.parametrize("caching", ["NONE", "LOCAL", "ALL"])
def test_handshake_counters_read_what_the_engines_rounds_cost(caching, batching):
    """Across a distribution change, at every caching level: the stream
    pays what an engine's rounds cost — one round a variable read, one
    a step when batched — though its steady state builds no round."""
    option = {"NONE": CachingOption.NO_CACHING, "LOCAL": CachingOption.CACHING_LOCAL,
              "ALL": CachingOption.CACHING_ALL}[caching]
    adios = make_adios(f"caching={caching};batching={str(batching).lower()}")
    write_two_distributions(adios, "dp.hs.parity")
    reader = adios.open_read("fields", "dp.hs.parity", RankContext(0, 1))
    while reader.begin_step() is StepStatus.OK:
        for var in ("temp", "rho"):
            reader.read(var, start=(0, 0), count=(4, 16))
        reader.end_step()
    engines = {var: RedistributionEngine(block_decompose(SHAPE, (2, 2)), [WHOLE],
                                         caching=option, batching=batching)
               for var in ("temp", "rho")}
    want = []
    for step in range(6):
        if step == 3:
            for eng in engines.values():
                eng.update_writer_boxes(block_decompose(SHAPE, (4, 1)))
        for var in ("temp",) if batching else ("temp", "rho"):
            want.append(engines[var].handshake())
    metrics = stream_registry._states["dp.hs.parity"].monitor.metrics
    assert metrics.counter("handshake.messages").value == sum(c.messages for c in want)
    assert metrics.counter("handshake.control_bytes").value == sum(
        c.control_bytes for c in want)
    assert (want[-1].messages == 0) == (option is CachingOption.CACHING_ALL)


@pytest.mark.parametrize("caching", ["LOCAL", "ALL"])
def test_handshake_accounting_compiles_no_data_plan(monkeypatch, caching):
    """Reads of a band across a distribution change compile one plan a
    distribution — the reads' own — and the handshake none."""
    built = []
    init = CompiledPlan.__init__

    def counted(self, plan):
        built.append(plan.reader_boxes)
        init(self, plan)

    monkeypatch.setattr(CompiledPlan, "__init__", counted)
    adios = make_adios(f"caching={caching}")
    write_two_distributions(adios, "dp.hs.plans")
    reader = adios.open_read("fields", "dp.hs.plans", RankContext(0, 1))
    while reader.begin_step() is StepStatus.OK:
        reader.read("temp", start=(0, 0), count=(4, 16))
        reader.end_step()
    assert built == [[BoundingBox((0, 0), (4, 16))]] * 2


def test_handshake_messages_zero_before_reads():
    adios = make_adios()
    write_steps(adios, "dp.hs0", num_steps=1)
    reader = adios.open_read("fields", "dp.hs0", RankContext(0, 1))
    assert reader.handshake_messages() == 0


# ---------------------------------------------------------------------------
# read_all: batched multi-variable moves
# ---------------------------------------------------------------------------

def test_read_all_batching_single_round_per_step():
    adios = make_adios("batching=true")
    write_steps(adios, "dp.batch", num_steps=2, vars_=("temp", "rho"))
    reader = adios.open_read("fields", "dp.batch", RankContext(0, 1))
    messages = stream_registry._states["dp.batch"].monitor.metrics.counter(
        "handshake.messages"
    )
    # What one round costs: a second handle reading one variable once.
    adios.open_read("fields", "dp.batch", RankContext(0, 1)).read("temp")
    one_round = messages.value
    assert one_round > 0
    per_step = []
    while reader.begin_step() is StepStatus.OK:
        before = messages.value
        out = reader.read_all()
        assert set(out) == {"temp", "rho"}
        per_step.append(messages.value - before)
        reader.end_step()
    # One aggregated handshake round per step despite two variables.
    assert per_step == [one_round, one_round]


def test_read_all_matches_individual_reads():
    adios = make_adios()
    write_steps(adios, "dp.all", num_steps=1, vars_=("temp", "rho"))
    reader = adios.open_read("fields", "dp.all", RankContext(0, 1))
    batched = reader.read_all(["temp", "rho"])
    assert batched["temp"].tobytes() == reader.read("temp").tobytes()
    assert batched["rho"].tobytes() == reader.read("rho").tobytes()


# ---------------------------------------------------------------------------
# Async publication pipeline
# ---------------------------------------------------------------------------

def test_writer_visible_span_is_measured():
    adios = make_adios()
    write_steps(adios, "dp.vis", num_steps=3)
    mon = stream_registry._states["dp.vis"].monitor
    agg = mon.aggregate("writer_visible")
    assert agg.count == 3
    assert agg.total_time >= 0.0
    drains = mon.aggregate("drain")
    assert drains.count == 3


def test_untraced_stream_monitor_does_not_grow():
    """An untraced stream keeps no per-step record list (it used to
    append 11 frozen records per step, forever); the aggregates and the
    latency histogram the health model reads are fed all the same."""
    adios = make_adios()
    write_steps(adios, "dp.flat", num_steps=1000, num_writers=1)
    reader = adios.open_read("fields", "dp.flat", RankContext(0, 1))
    while reader.begin_step() is StepStatus.OK:
        reader.read("temp", start=(0, 0), count=(8, 8))
        reader.end_step()
    mon = stream_registry._states["dp.flat"].monitor
    assert len(mon.trace) == 0
    assert mon.aggregate("writer_visible").count == 1000
    assert mon.aggregate("drain").count == 1000
    assert mon.metrics.histogram("latency.writer_visible").count == 1000
    assert mon.metrics.counter("dataplane.bytes_read").value == 1000 * 64 * 8
    # Asking for the trace later starts keeping it, from then on.
    mon.enable_tracing()
    assert mon.keep_trace


def test_metrics_export_has_no_all_zero_latency_family():
    """``/metrics`` used to export ``latency.stream_publish`` /
    ``handshake`` / ``stream_read`` histograms that held nothing but the
    zeros of the pseudo-events; the facts stay as counters, the timed
    regions keep their histograms."""
    from repro.obs.live import render_prometheus

    adios = make_adios()
    write_steps(adios, "dp.prom", num_steps=10)
    reader = adios.open_read("fields", "dp.prom", RankContext(0, 1))
    reads = 0
    while reader.begin_step() is StepStatus.OK:
        reader.read("temp")
        reader.end_step()
        reads += 1
    assert reads == 10
    text = render_prometheus(
        {"dp.prom": stream_registry._states["dp.prom"].monitor.metrics}
    )
    for gone in ("stream_publish", "handshake", "stream_read"):
        assert f"flexio_latency_{gone}" not in text
    for kept in ("writer_visible", "drain"):
        assert f'flexio_latency_{kept}_count{{stream="dp.prom"}} 10' in text
    assert 'flexio_dataplane_drain_steps_committed{stream="dp.prom"} 10' in text
    assert f'flexio_dataplane_bytes_read{{stream="dp.prom"}} {10 * 256 * 8}' in text
    assert 'flexio_handshake_messages{stream="dp.prom"}' in text


def test_sync_advance_commits_before_returning():
    adios = make_adios("sync=true")
    name = "dp.sync"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    for step in range(2):
        writer.begin_step()
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
        # No quiesce needed: sync publish drained before returning.
        assert len(state.store) == step + 1
    writer.close()


def test_end_step_sync_override():
    adios = make_adios()  # async by default
    name = "dp.sync-override"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    writer.begin_step()
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step(sync=True)
    assert len(state.store) == 1
    writer.close()


def test_async_backpressure_on_slow_channel(monkeypatch):
    from repro.core import drain

    adios = make_adios("queue_depth=1;retry_timeout=0.001;retry_jitter=0")
    name = "dp.bp"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    calls = []

    def slow_retries(*args):
        calls.append(None)
        if len(calls) == 1:
            raise TransportTimeout("step 0 waits for a retry")
        time.sleep(0.02)

    # Step 0's first attempt faults and every retried attempt takes 20 ms:
    # the steps sealed behind it queue, and the drain falls behind the writer.
    monkeypatch.setattr(drain, "consult", slow_retries)
    for _ in range(4):
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step()
    writer.close()
    assert state.monitor.metrics.counter("dataplane.backpressure_waits").value > 0
    # Every step still committed, in order.
    assert [s.step for s in state.published] == [0, 1, 2, 3]
    assert all(s.status is StepState.COMMITTED for s in state.published)


def test_drain_error_marks_step_lost_not_committed():
    """Regression: a faulted drain must NOT commit the step as readable.

    The old pipeline committed every step in a ``finally`` even when the
    transport push failed — readers got a step whose payload never moved.
    Now the step is published as a typed LOST gap instead.
    """
    adios = make_adios("max_retries=0;faults=ops=1,kinds=disconnect")
    name = "dp.fault"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                 global_shape=SHAPE)
    writer.end_step()
    writer.close()
    reader = adios.open_read("fields", name, RankContext(0, 1))
    # The reader sees a typed gap (OtherError), never the undelivered data.
    assert reader.begin_step() is StepStatus.OtherError
    assert reader.begin_step() is StepStatus.EndOfStream
    assert state.published[0].status is StepState.LOST
    assert state.published[0].groups == {}  # payload discarded, not torn
    assert state.monitor.metrics.counter("dataplane.drain.errors").value == 1
    assert state.monitor.metrics.counter("dataplane.drain.steps_lost").value == 1


def test_drain_retries_through_the_one_attempt_loop():
    """Two faulted attempts then success, then a step whose every attempt
    faults: the counters and events ``retry_call`` drives."""
    from repro.obs import recorder as flight
    from repro.obs.events import EV_RETRY, EV_STEP_COMMIT, EV_STEP_LOST

    recorder = flight.reset()
    adios = make_adios(
        "max_retries=2;retry_timeout=0.001;retry_jitter=0;faults=ops=1|2|4|5|6")
    name = "dp.retry"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    for _ in range(2):
        writer.write("temp", np.ones(SHAPE), box=BoundingBox((0, 0), SHAPE),
                     global_shape=SHAPE)
        writer.end_step(sync=False)
    state._quiesce()
    m = state.monitor.metrics
    assert [s.status for s in state.published] == [
        StepState.COMMITTED, StepState.LOST,
    ]
    assert m.counter("dataplane.drain.retries").value == 4
    assert m.counter("dataplane.drain.faults").value == 5
    assert m.counter("dataplane.drain.recovered").value == 1
    retries = [dict(e.attrs) for e in recorder.events(code=EV_RETRY, stream=name)]
    assert [(r["step"], r["attempt"]) for r in retries] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert all("TransportTimeout" in r["error"] for r in retries)
    commits = [dict(e.attrs) for e in recorder.events(code=EV_STEP_COMMIT, stream=name)]
    assert [(c["step"], c["attempts"]) for c in commits] == [(0, 3)]
    lost = [dict(e.attrs) for e in recorder.events(code=EV_STEP_LOST, stream=name)]
    assert [s["step"] for s in lost] == [1] and "injected timeout" in lost[0]["error"]
    writer.close()


# ---------------------------------------------------------------------------
# Commit path: constant cost per step, readers woken on their own step
# ---------------------------------------------------------------------------

FIELD = np.arange(256, dtype=np.float64).reshape(SHAPE)
WHOLE = BoundingBox((0, 0), SHAPE)


def write_step(writer, value=1.0, **end_kw):
    writer.write("temp", FIELD * value, box=WHOLE, global_shape=SHAPE)
    writer.end_step(**end_kw)


class GatedRetry:
    """Stands in for the drain's fault consult: the ``faulted``-th
    delivery attempt faults — a first attempt, on the writer's thread, so
    its step waits for a retry — and the next one, that retry on the
    drainer thread, blocks until ``gate``."""

    def __init__(self, faulted):
        self.faulted = faulted
        self.calls = 0
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __call__(self, *args):
        self.calls += 1
        if self.calls == self.faulted:
            raise TransportTimeout("held for a retry")
        if self.calls == self.faulted + 1:
            self.entered.set()
            assert self.gate.wait(10.0)


def gated_stream(monkeypatch, name, faulted):
    from repro.core import drain

    adios = make_adios("queue_depth=4;retry_timeout=0.001;retry_jitter=0")
    writer = adios.open_write("fields", name, RankContext(0, 1))
    reader = adios.open_read("fields", name, RankContext(0, 1))
    gate = GatedRetry(faulted)
    monkeypatch.setattr(drain, "consult", gate)
    return writer, reader, stream_registry._states[name], gate


def in_thread(fn, *args, **kwargs):
    """Run ``fn`` on a thread that must finish: a hang fails, not stalls."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn(*args, **kwargs)))
    t.start()
    t.join(10.0)
    assert not t.is_alive(), f"{fn.__name__} hung"
    return box[0]


def test_commit_cost_does_not_grow_with_stream_length(monkeypatch):
    from repro.core import stream

    seals = []
    seal = stream._rank_parts

    def counted(step, **kw):
        seals.append((step.step, sorted(step.groups)))
        return seal(step, **kw)

    monkeypatch.setattr(stream, "_rank_parts", counted)
    adios = make_adios()
    boxes = block_decompose(SHAPE, (4, 4))
    writers = [
        adios.open_write("fields", "dp.flat", RankContext(r, 16)) for r in range(16)
    ]
    for step in range(301):
        for w, box in zip(writers, boxes):
            w.write("temp", np.ones(box.count), box=box, global_shape=SHAPE)
            w.end_step(sync=True)   # the 16th seals, drains and commits
    for w in writers:
        w.close()
    # Each step is sized by one seal pass over its own 16 groups and no
    # other step's, at step 300 as at step 5; the store keeps the total.
    assert seals == [(k, list(range(16))) for k in range(301)]
    state = stream_registry._states["dp.flat"]
    assert [s.nbytes for s in state.published] == [FIELD.nbytes] * 301
    assert state.store.nbytes == 301 * FIELD.nbytes


MXN_STEPS = 3


def mxn_16_to_4(name):
    """``MXN_STEPS`` committed steps of a 16 → 4 ``caching=all`` stream,
    the whole field written; returns the 4 reader handles and the state."""
    adios = make_adios("caching=ALL;sync=true")
    boxes = block_decompose(SHAPE, (4, 4))
    writers = [adios.open_write("fields", name, RankContext(r, 16)) for r in range(16)]
    readers = [adios.open_read("fields", name, RankContext(r, 4)) for r in range(4)]
    for step in range(MXN_STEPS):
        for w, box in zip(writers, boxes):
            w.write("temp", FIELD[box.slices()] * step, box=box, global_shape=SHAPE)
            w.end_step()
    for w in writers:
        w.close()
    return readers, stream_registry._states[name]


def read_bands(readers):
    """Every reader rank reads its band of every step of the stream."""
    band = SHAPE[0] // len(readers)
    for step in range(MXN_STEPS):
        for i, r in enumerate(readers):
            assert r.begin_step() is StepStatus.OK
            got = r.read("temp", start=(i * band, 0), count=(band, SHAPE[1]))
            np.testing.assert_array_equal(got, (FIELD * step)[i * band:(i + 1) * band])
            r.end_step()


def test_a_steps_block_index_is_built_once_for_every_reader_rank(monkeypatch):
    from repro.core import reader

    built = []
    index = reader.index_blocks

    def counted(blocks):
        found = index(blocks)
        built.append(len(found[0]))
        return found

    monkeypatch.setattr(reader, "index_blocks", counted)
    readers, _ = mxn_16_to_4("dp.index")
    read_bands(readers)
    assert built == [16] * MXN_STEPS  # one 16-block index per step, not per rank


def test_a_positioned_reader_looks_its_step_up_once(monkeypatch):
    readers, state = mxn_16_to_4("dp.positioned")
    asked = []
    await_step = state.await_step
    monkeypatch.setattr(
        state, "await_step", lambda k, t: asked.append(k) or await_step(k, t)
    )
    read_bands(readers)
    assert asked == [k for k in range(MXN_STEPS) for _ in readers]  # at begin_step only


def test_peak_buffered_bytes_matches_brute_force_over_mixed_outcomes():
    adios = make_adios("max_retries=0;faults=ops=2|3|6,kinds=timeout")
    writer = adios.open_write("fields", "dp.peak", RankContext(0, 1))
    state = stream_registry._states["dp.peak"]
    for step in range(8):
        write_step(writer, step)
    writer.close()
    published = state.published
    assert {s.status for s in published} == {StepState.COMMITTED, StepState.LOST}
    assert all(
        s.nbytes == (FIELD.nbytes if s.status is StepState.COMMITTED else 0)
        for s in published
    )
    brute = sum(g.nbytes for s in published for g in s.groups.values())
    assert state.peak_buffered_bytes == state.store.nbytes == brute > 0


def test_reader_is_woken_by_its_own_steps_commit(monkeypatch):
    """Step 0 is readable while step 1 still waits for its retry."""
    writer, reader, state, channel = gated_stream(monkeypatch, "dp.wake", faulted=2)
    write_step(writer, 1.0)
    write_step(writer, 2.0)
    assert channel.entered.wait(10.0)
    assert in_thread(reader.begin_step) is StepStatus.OK
    np.testing.assert_array_equal(reader.read("temp"), FIELD)
    reader.end_step()
    assert len(state.store) == 1   # step 1 still waits for its retry
    channel.gate.set()
    assert in_thread(reader.begin_step) is StepStatus.OK
    np.testing.assert_array_equal(reader.read("temp"), FIELD * 2.0)
    writer.close()


def test_timed_begin_step_gives_up_on_a_stuck_drain(monkeypatch):
    writer, reader, state, channel = gated_stream(monkeypatch, "dp.stuck", faulted=1)
    write_step(writer)
    assert channel.entered.wait(10.0)
    # Sealed but held in its retry: the probe waits for the commit, to its
    # deadline.
    assert in_thread(reader.begin_step, timeout=0.05) is StepStatus.NotReady
    channel.gate.set()
    assert in_thread(reader.begin_step, timeout=10.0) is StepStatus.OK
    np.testing.assert_array_equal(reader.read("temp"), FIELD)
    writer.close()


def test_a_calm_stream_commits_each_step_at_its_seal_on_the_writers_thread():
    adios = make_adios()
    writer = adios.open_write("fields", "dp.inline", RankContext(0, 1))
    state = stream_registry._states["dp.inline"]
    for step in range(100):
        write_step(writer, float(step))
        assert state.store.lookup(step)[0] is Outcome.HIT
    assert state._drainer._thread is None
    assert not [t for t in threading.enumerate() if t.name.startswith("flexio-drain-")]
    reader = adios.open_read("fields", "dp.inline", RankContext(0, 1))
    for step in range(100):
        assert reader.begin_step() is StepStatus.OK
        np.testing.assert_array_equal(reader.read("temp"), FIELD * step)
        reader.end_step()
    writer.close()


def test_a_step_sealed_behind_a_retry_commits_after_it(monkeypatch):
    from repro.obs import recorder as flight
    from repro.obs.events import EV_STEP_COMMIT

    recorder = flight.reset()
    writer, reader, state, channel = gated_stream(monkeypatch, "dp.order", faulted=1)
    write_step(writer, 1.0)  # its first attempt faults: queued for a retry
    assert channel.entered.wait(10.0)
    write_step(writer, 2.0)  # sealed behind it: queued, not tried
    write_step(writer, 3.0)
    assert channel.calls == 2 and len(state.store) == 0
    channel.gate.set()
    state._quiesce()
    commits = [dict(e.attrs)["step"]
               for e in recorder.events(code=EV_STEP_COMMIT, stream="dp.order")]
    assert commits == [0, 1, 2]
    assert [s.status for s in state.published] == [StepState.COMMITTED] * 3
    write_step(writer, 4.0)  # nothing pending again: committed at its seal
    assert state.store.lookup(3)[0] is Outcome.HIT and channel.calls == 5
    for value in (1.0, 2.0, 3.0, 4.0):
        assert reader.begin_step() is StepStatus.OK
        np.testing.assert_array_equal(reader.read("temp"), FIELD * value)
        reader.end_step()
    writer.close()


@pytest.mark.parametrize("end, status", [
    (lambda writer, state: state.fail("writer died"), StepStatus.OtherError),
    (lambda writer, state: writer.close(), StepStatus.EndOfStream),
], ids=["fail", "close"])
def test_stream_end_wakes_a_waiting_reader(monkeypatch, end, status):
    from repro.core import stream

    # No periodic re-probe: only the end-of-stream signal can wake it.
    monkeypatch.setattr(stream, "_REAP_INTERVAL", 60.0)
    adios = make_adios()
    writer = adios.open_write("fields", "dp.end", RankContext(0, 1))
    reader = adios.open_read("fields", "dp.end", RankContext(0, 1))
    state = stream_registry._states["dp.end"]
    write_step(writer)
    assert reader.begin_step() is StepStatus.OK
    reader.end_step()
    got = []
    t = threading.Thread(target=lambda: got.append(reader.begin_step(timeout=60.0)))
    t.start()
    end(writer, state)
    t.join(10.0)
    assert not t.is_alive() and got == [status]


def test_free_running_writer_never_loses_a_reader_wakeup():
    """Three readers chase a writer that runs ahead of the drain: a lost
    notify would park one for good, a stale one would hand it the wrong
    step."""
    import sys

    adios = make_adios("queue_depth=4")
    writer = adios.open_write("fields", "dp.stress", RankContext(0, 1))
    readers = [
        adios.open_read("fields", "dp.stress", RankContext(i, 3)) for i in range(3)
    ]
    steps, seen = 200, [[] for _ in readers]

    def produce():
        for step in range(steps):
            write_step(writer, float(step))
        writer.close()

    def consume(reader, out):
        while reader.begin_step(timeout=10.0) is StepStatus.OK:
            out.append(float(reader.read("temp", start=(0, 1), count=(1, 1))[0, 0]))
            reader.end_step()

    threads = [threading.Thread(target=produce)] + [
        threading.Thread(target=consume, args=(r, out))
        for r, out in zip(readers, seen)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[float(s) for s in range(steps)]] * 3


def test_shm_channel_carries_step_payload():
    adios = make_adios()
    write_steps(adios, "dp.shm", num_steps=2)
    mon = stream_registry._states["dp.shm"].monitor
    # 4 writers x 8x8 float64 blocks x 2 steps, delivered on the shm rung.
    assert mon.metrics.counter("shm.bytes_sent").value == 2 * 16 * 16 * 8


def test_bad_hints_rejected():
    from repro.core.hints import StreamError

    with pytest.raises(StreamError, match="transport"):
        make_adios("transport=carrier-pigeon").open_write(
            "fields", "dp.bad", RankContext(0, 1)
        )


def test_gauge_inc_dec():
    from repro.obs.metrics import Gauge

    g = Gauge("g")
    g.inc()
    g.inc(2)
    assert g.value == 3
    g.dec()
    assert g.value == 2
    assert g.max_value == 3


# ---------------------------------------------------------------------------
# Mapped drain: a sealed step is delivered by reference, through no channel
# ---------------------------------------------------------------------------

def delivered(state):
    """``(messages, bytes)`` the drain delivered on the shm rung."""
    m = state.monitor.metrics
    return m.counter("shm.messages_sent").value, m.counter("shm.bytes_sent").value


def test_mapped_drain_copies_nothing_and_reads_the_same_bytes():
    """The drain delivers every step by reference whatever the ``xpmem``
    hint says: the hint still parses, and nothing reads it."""
    reads = {}
    for xpmem in ("true", "false"):
        adios = make_adios(f"xpmem={xpmem}")
        name = f"dp.mapped.{xpmem}"
        write_steps(adios, name, num_steps=20)
        reads[xpmem] = [a.tobytes() for a in read_all_steps(adios, name)]
        state = stream_registry._states[name]
        assert state.monitor.metrics.histogram("transport.copies").count == 0
        assert delivered(state) == (20, 20 * FIELD.nbytes)
    assert len(reads["true"]) == 20 and reads["true"] == reads["false"]


def counted_constructors(monkeypatch, *classes):
    """Patch each class's ``__init__`` to count its instances by name."""
    made = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return made


def sixteen_rank_step(name, params):
    """16 writer handles of one step, every rank's block written and all
    but the last rank's step ended: the last ``end_step`` seals it."""
    adios = make_adios(params)
    boxes = block_decompose(SHAPE, (4, 4))
    handles = [adios.open_write("fields", name, RankContext(r, 16)) for r in range(16)]
    for r, h in enumerate(handles):
        h.write("temp", np.full(boxes[r].count, float(r)), box=boxes[r], global_shape=SHAPE)
    for h in handles[:-1]:
        h.end_step()
    return handles


def test_mapped_drain_views_no_block_between_seal_and_release(monkeypatch):
    """A 16-block step crosses the in-process drain with constant work:
    from the seal to the commit nothing makes a byte view or a span of a
    block — only the sanitizer's digests (FLEXIO_SANITIZE=1) walk the
    step's arrays, once when they are lent and once at the commit."""
    from repro.transport import buffers

    calls = dict.fromkeys(("as_byte_view", "frombuffer"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    handles = sixteen_rank_step("dp.mapped.constant", "sync=true")
    from repro.core import drain

    monkeypatch.setattr(drain, "as_byte_view", counted("as_byte_view", buffers.as_byte_view))
    monkeypatch.setattr(np, "frombuffer", counted("frombuffer", np.frombuffer))
    handles[-1].end_step()  # seals; with sync, returns once the step is committed
    monkeypatch.undo()
    state = stream_registry._states["dp.mapped.constant"]
    assert [s.status for s in state.published] == [StepState.COMMITTED]
    assert delivered(state) == (1, FIELD.nbytes)
    walks = 0 if state._drainer._san is None else 2
    assert calls == {"as_byte_view": 16 * walks, "frombuffer": 0}
    for h in handles:
        h.close()


def test_a_transactional_step_builds_no_wire_object_from_seal_to_commit(monkeypatch):
    """Sixteen prepare votes, and not one ``WireBuffer`` or ``WireVector``
    between the seal and the commit: each vote is one fault consult."""
    from repro.transport.buffers import WireBuffer, WireVector

    handles = sixteen_rank_step("dp.mapped.tx16", "sync=true;transactional=true")
    made = counted_constructors(monkeypatch, WireBuffer, WireVector)
    handles[-1].end_step()
    monkeypatch.undo()
    state = stream_registry._states["dp.mapped.tx16"]
    assert [s.status for s in state.published] == [StepState.COMMITTED]
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 1
    assert made == {"WireBuffer": 0, "WireVector": 0}
    for h in handles:
        h.close()


def test_a_streams_life_opens_no_channel(monkeypatch):
    from repro.transport.rdma import RdmaChannel
    from repro.transport.shm import ShmChannel
    from repro.transport.tcp import TcpChannel

    made = counted_constructors(monkeypatch, ShmChannel, TcpChannel, RdmaChannel)
    adios = make_adios("faults=rate=0.3,seed=2;retry_timeout=0.001")
    write_steps(adios, "dp.mapped.life", num_steps=5)
    assert len(read_all_steps(adios, "dp.mapped.life")) == 5
    stream_registry.close_stream("dp.mapped.life")
    assert made == {"ShmChannel": 0, "TcpChannel": 0, "RdmaChannel": 0}


def test_mapped_drain_sync_write_does_not_deadlock():
    adios = make_adios("xpmem=true;sync=true")
    writer = adios.open_write("fields", "dp.mapped.sync", RankContext(0, 1))
    state = stream_registry._states["dp.mapped.sync"]
    for value in (1.0, 2.0):
        in_thread(write_step, writer, value)
    assert [s.status for s in state.published] == [StepState.COMMITTED] * 2
    assert delivered(state) == (2, 2 * FIELD.nbytes)
    writer.close()


def test_mapped_drain_retries_and_loses_steps_with_nothing_left_mapped():
    from repro.obs import recorder as flight
    from repro.obs.events import EV_STEP_COMMIT

    recorder = flight.reset()
    adios = make_adios(
        "xpmem=true;max_retries=1;retry_timeout=0.001;retry_jitter=0;"
        "faults=ops=1|3|4,kinds=torn"
    )
    name = "dp.mapped.retry"
    writer = adios.open_write("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    for value in (1.0, 2.0, 3.0):
        write_step(writer, value)  # attempts 1+2 | 3+4 | 5
    assert [s.status for s in state.published] == [
        StepState.COMMITTED, StepState.LOST, StepState.COMMITTED,
    ]
    commits = [dict(e.attrs) for e in recorder.events(code=EV_STEP_COMMIT, stream=name)]
    assert [(c["step"], c.get("attempts")) for c in commits] == [(0, 2), (2, None)]
    assert state.published[1].groups == {}  # the lost step holds no array
    assert delivered(state) == (2, 2 * FIELD.nbytes)
    writer.close()


def test_mapped_drain_carries_the_transactional_per_rank_sends():
    adios = make_adios("xpmem=true;transactional=true")
    name = "dp.mapped.tx"
    write_steps(adios, name, num_steps=3)
    ref = make_adios("")
    write_steps(ref, name + ".ref", num_steps=3)
    got = [a.tobytes() for a in read_all_steps(adios, name)]
    assert got == [a.tobytes() for a in read_all_steps(ref, name + ".ref")]
    state = stream_registry._states[name]
    assert state.monitor.metrics.counter("dataplane.tx.committed").value == 3
    assert delivered(state) == (3, 3 * FIELD.nbytes)  # one delivery a step


@pytest.fixture()
def san():
    was = sanitize.get()  # under FLEXIO_SANITIZE=1 the later tests keep one
    yield sanitize.enable(fresh=True)
    sanitize.disable()
    if was is not None:
        sanitize.enable()


def test_sanitizer_names_a_writer_that_modifies_a_mapped_array(san, monkeypatch):
    """A step's arrays are lent to its readers from the seal on: one the
    writer changes while the step waits for a retry is named at its
    commit."""
    writer, _, state, channel = gated_stream(monkeypatch, "dp.mutate", faulted=2)
    write_step(writer, 1.0)  # committed at its seal
    data = FIELD.copy()
    writer.write("temp", data, box=WHOLE, global_shape=SHAPE)
    writer.end_step()  # step 1's first attempt faults ...
    assert channel.entered.wait(10.0)  # ... and the drainer holds its retry
    data[0, 0] = -1.0
    channel.gate.set()
    state._quiesce()
    assert [s.status for s in state.published] == [StepState.COMMITTED] * 2
    (violation,) = san.violations()
    assert violation.kind == sanitize.XPMEM_SOURCE_MUTATED
    assert "step 1" in violation.what and "dp.mutate" in violation.what
    write_step(writer, 2.0)  # a writer that keeps the contract: silence
    state._quiesce()
    assert len(san.violations()) == 1
    writer.close()


# ---------------------------------------------------------------------------
# Result buffers: a plain read reuses memory its caller has dropped
# ---------------------------------------------------------------------------

def address(a):
    return a.__array_interface__["data"][0]


def test_a_held_result_or_slice_of_one_is_never_overwritten():
    adios = make_adios("")
    writer = adios.open_write("fields", "dp.outs.held", RankContext(0, 1))
    reader = adios.open_read("fields", "dp.outs.held", RankContext(0, 1))

    def step(value):
        write_step(writer, value)
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        got = reader.read("temp")
        reader.end_step()
        return got

    first = step(1.0)
    row = step(2.0)[3]  # only a slice of step 1's result is kept
    for value in range(3, 9):
        got = step(float(value))
        np.testing.assert_array_equal(got, FIELD * value)
        assert not np.shares_memory(got, first) and not np.shares_memory(got, row)
    np.testing.assert_array_equal(first, FIELD)
    np.testing.assert_array_equal(row, FIELD[3] * 2.0)
    writer.close()
    reader.close()


def test_a_dropped_result_is_reused_through_a_fresh_view():
    """The memory comes back, the array object does not: a weak reference
    to an old result never sees a later step's bytes."""
    import weakref

    adios = make_adios("")
    writer = adios.open_write("fields", "dp.outs.reuse", RankContext(0, 1))
    reader = adios.open_read("fields", "dp.outs.reuse", RankContext(0, 1))
    seen, held = [], None
    for value in range(1, 7):
        write_step(writer, float(value))
        assert reader.begin_step(timeout=5.0) is StepStatus.OK
        got = reader.read("temp")
        reader.end_step()
        if held is not None:
            assert not np.shares_memory(got, held)  # the one still held
            old = weakref.ref(held)
            held = None
            assert old() is None
        np.testing.assert_array_equal(got, FIELD * value)
        seen.append(address(got))
        held = got
        del got
    # Step s's result is held while step s+1 is read: two buffers in turn.
    assert len(set(seen)) == 2 and seen[2:] == seen[:-2]
    writer.close()
    reader.close()


def test_live_results_never_share_memory():
    adios = make_adios("")
    write_steps(adios, "dp.outs.live", num_steps=1, vars_=("temp", "rho"))
    reader = adios.open_read("fields", "dp.outs.live", RankContext(0, 1))
    assert reader.begin_step(timeout=5.0) is StepStatus.OK
    live = [reader.read("temp"), reader.read("rho"), reader.read("temp"),
            reader.read("rho", start=(0, 0), count=(4, 16))]
    reader.end_step()
    for i, a in enumerate(live):
        assert not any(np.shares_memory(a, b) for b in live[i + 1:])
    np.testing.assert_array_equal(live[0], live[2])
    np.testing.assert_array_equal(live[1][:4], live[3])
    reader.close()


#: One long in-process stream, run in a fresh interpreter: whether freed
#: memory goes back to the OS depends on what the process freed before.
LONG_STREAM = """
import json, resource, sys
import numpy as np
import repro
from repro.adios import StepStatus, block_decompose
from repro.core.hints import CACHING_ALL, stream_params

SHAPE, GRID, READERS, WARMUP, STEPS = (512, 512), (4, 4), 4, 50, 300
rng = np.random.default_rng(7)
ring = [rng.random(SHAPE) for _ in range(4)]
boxes = block_decompose(SHAPE, GRID)
blocks = [[np.ascontiguousarray(a[b.slices()]) for b in boxes] for a in ring]
band = SHAPE[0] // READERS
params = stream_params(caching=CACHING_ALL, **json.loads(sys.argv[1]))
client = repro.connect("local://", params=params)
writers = [client.open("long", "w", rank=r, num_ranks=len(boxes)) for r in range(len(boxes))]
readers = [client.open("long", "r", rank=r, num_ranks=READERS) for r in range(READERS)]

def step(s):
    for h, box, block in zip(writers, boxes, blocks[s % 4]):
        h.begin_step()
        h.write("field", block, box=box, global_shape=SHAPE)
        h.end_step()
    bands = []
    for i, r in enumerate(readers):
        assert r.begin_step(timeout=5.0) is StepStatus.OK
        bands.append(r.read("field", start=(i * band, 0), count=(band, SHAPE[1])))
        r.end_step()
    return bands

for s in range(WARMUP):
    held = step(s)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for s in range(WARMUP, WARMUP + STEPS):
    held = step(s)  # a step's bands are dropped once the next step's are read
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
want = ring[(WARMUP + STEPS - 1) % 4]
exact = all(np.array_equal(b, want[i * band:(i + 1) * band]) for i, b in enumerate(held))
for h in (*writers, *readers):
    h.close()
print(json.dumps({"faults_per_step": faults / STEPS, "exact": exact}))
"""


@pytest.mark.parametrize("hints", [{}, {"xpmem": True}], ids=["default", "xpmem"])
def test_a_long_stream_faults_no_pages_in_per_step(hints):
    """A 16 -> 4 MxN of a 2 MB array, each step's bands held until all
    four are read: the drain delivers the step by reference and the
    reads reuse their dropped bands, so the steady state allocates
    nothing the allocator could hand back and fault in again (about 240
    minor faults a step when it did)."""
    import json
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run(
        [sys.executable, "-c", LONG_STREAM, json.dumps(hints)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["exact"], got
    assert got["faults_per_step"] <= 10, got
