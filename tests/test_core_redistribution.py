"""Tests for MxN redistribution: plans, handshake caching, data movement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import BoundingBox, block_decompose
from repro.core import CachingOption, RedistributionEngine
from repro.core.redistribution import HandshakeCost, compute_plan


def grid_boxes(shape, grid):
    return block_decompose(shape, grid)


# ---------------------------------------------------------------------------
# Plan computation
# ---------------------------------------------------------------------------

def test_figure3_9_writers_2_readers():
    """The paper's Figure 3: 2D array on 9 writers passed to 2 readers."""
    shape = (9, 9)
    writers = grid_boxes(shape, (3, 3))
    readers = grid_boxes(shape, (2, 1))  # two horizontal halves (5+4 rows)
    plan = compute_plan(writers, readers)
    assert plan.num_writers == 9
    assert plan.num_readers == 2
    # Every writer's data lands somewhere; every reader gets full coverage.
    total = sum(p.overlap.size for p in plan.pairs)
    assert total == 81
    # Middle row of writers (rows 3..5) straddles the reader boundary at 5.
    middle = [p for p in plan.pairs if p.writer in (3, 4, 5)]
    assert {p.reader for p in middle} == {0, 1}


def test_identity_plan():
    boxes = grid_boxes((8, 8), (2, 2))
    plan = compute_plan(boxes, boxes)
    assert len(plan.pairs) == 4
    for p in plan.pairs:
        assert p.writer == p.reader
        assert p.overlap == boxes[p.writer]


def test_plan_lookup_tables():
    writers = grid_boxes((4,), (4,))
    readers = grid_boxes((4,), (2,))
    plan = compute_plan(writers, readers)
    assert len(plan.sends_of(0)) == 1
    assert plan.sends_of(0)[0].reader == 0
    assert {p.writer for p in plan.recvs_of(1)} == {2, 3}
    assert plan.data_message_count() == 4


def test_plan_total_bytes_and_matrix():
    writers = grid_boxes((4, 4), (2, 2))
    readers = [BoundingBox((0, 0), (4, 4))]
    plan = compute_plan(writers, readers)
    assert plan.total_bytes(itemsize=8) == 16 * 8
    mat = plan.communication_matrix(itemsize=8)
    assert mat.shape == (4, 1)
    assert mat.sum() == 128


def test_plan_validation():
    with pytest.raises(ValueError):
        compute_plan([], [BoundingBox((0,), (1,))])
    with pytest.raises(ValueError):
        compute_plan([BoundingBox((0,), (1,))], [])
    with pytest.raises(ValueError):
        compute_plan([BoundingBox((0,), (1,))], [BoundingBox((0, 0), (1, 1))])


# ---------------------------------------------------------------------------
# Data movement correctness
# ---------------------------------------------------------------------------

def test_move_reproduces_global_array():
    shape = (9, 6)
    writers = grid_boxes(shape, (3, 2))
    readers = grid_boxes(shape, (2, 3))
    eng = RedistributionEngine(writers, readers)
    full = np.arange(54.0).reshape(shape)
    blocks = [full[b.slices()].copy() for b in writers]
    out = eng.move(blocks)
    for rb, arr in zip(readers, out):
        np.testing.assert_array_equal(arr, full[rb.slices()])


def test_move_m_to_one_gather():
    shape = (8, 8)
    writers = grid_boxes(shape, (4, 2))
    readers = [BoundingBox((0, 0), shape)]
    eng = RedistributionEngine(writers, readers)
    full = np.random.default_rng(1).normal(size=shape)
    out = eng.move([full[b.slices()].copy() for b in writers])
    np.testing.assert_array_equal(out[0], full)


def test_move_one_to_n_scatter():
    shape = (10,)
    writers = [BoundingBox((0,), shape)]
    readers = grid_boxes(shape, (5,))
    eng = RedistributionEngine(writers, readers)
    full = np.arange(10.0)
    out = eng.move([full])
    for rb, arr in zip(readers, out):
        np.testing.assert_array_equal(arr, full[rb.slices()])


def test_move_partial_reader_selection():
    """Readers asking for a sub-region only receive that region."""
    shape = (8, 8)
    writers = grid_boxes(shape, (2, 2))
    readers = [BoundingBox((2, 2), (4, 4))]
    eng = RedistributionEngine(writers, readers)
    full = np.arange(64.0).reshape(shape)
    out = eng.move([full[b.slices()].copy() for b in writers])
    np.testing.assert_array_equal(out[0], full[2:6, 2:6])


def test_move_shape_validation():
    writers = grid_boxes((4,), (2,))
    readers = grid_boxes((4,), (2,))
    eng = RedistributionEngine(writers, readers)
    with pytest.raises(ValueError):
        eng.move([np.zeros(2)])  # wrong count
    with pytest.raises(ValueError):
        eng.move([np.zeros(3), np.zeros(2)])  # wrong shape


@settings(max_examples=30, deadline=None)
@given(
    wgrid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    rgrid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    shape=st.tuples(st.integers(4, 16), st.integers(4, 16)),
)
def test_property_any_mxn_redistribution_is_exact(wgrid, rgrid, shape):
    """For arbitrary M and N grids the redistribution is lossless."""
    writers = grid_boxes(shape, wgrid)
    readers = grid_boxes(shape, rgrid)
    eng = RedistributionEngine(writers, readers)
    full = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)
    out = eng.move([full[b.slices()].copy() for b in writers])
    for rb, arr in zip(readers, out):
        np.testing.assert_array_equal(arr, full[rb.slices()])


# ---------------------------------------------------------------------------
# Handshake caching options
# ---------------------------------------------------------------------------

def engine_with(caching, batching=False, M=9, N=2):
    writers = grid_boxes((18, 18), (3, 3))[:M] if M == 9 else grid_boxes((M, 4), (M, 1))
    readers = grid_boxes((18, 18), (2, 1))
    return RedistributionEngine(writers, readers, caching=caching, batching=batching)


def test_no_caching_repeats_full_protocol():
    eng = engine_with(CachingOption.NO_CACHING)
    c1 = eng.handshake()
    c2 = eng.handshake()
    assert c1.messages == c2.messages > 0
    assert "gather_local" in c1.steps_performed
    assert "exchange_and_broadcast" in c2.steps_performed


def test_caching_local_skips_step1_after_first():
    eng = engine_with(CachingOption.CACHING_LOCAL)
    c1 = eng.handshake()
    c2 = eng.handshake()
    assert "gather_local" in c1.steps_performed
    assert "gather_local" not in c2.steps_performed
    assert "exchange_and_broadcast" in c2.steps_performed
    assert c2.messages < c1.messages


def test_caching_all_eliminates_handshake():
    eng = engine_with(CachingOption.CACHING_ALL)
    c1 = eng.handshake()
    c2 = eng.handshake()
    assert c1.messages > 0
    assert c2.messages == 0
    assert c2.steps_performed == ()


def test_caching_hierarchy_message_counts():
    """Steady-state control traffic: ALL < LOCAL < NO_CACHING."""
    counts = {}
    for opt in CachingOption:
        eng = engine_with(opt)
        eng.handshake()  # warm-up
        counts[opt] = eng.handshake().messages
    assert counts[CachingOption.CACHING_ALL] < counts[CachingOption.CACHING_LOCAL]
    assert counts[CachingOption.CACHING_LOCAL] < counts[CachingOption.NO_CACHING]


def test_distribution_change_invalidates_caches():
    eng = engine_with(CachingOption.CACHING_ALL)
    eng.handshake()
    assert eng.handshake().messages == 0
    eng.update_writer_boxes(grid_boxes((18, 18), (9, 1)))
    assert eng.handshake().messages > 0  # full protocol again


def test_batching_aggregates_rounds():
    nvars = 22  # the S3D case
    un = engine_with(CachingOption.NO_CACHING, batching=False)
    ba = engine_with(CachingOption.NO_CACHING, batching=True)
    c_un = un.handshake(num_variables=nvars)
    c_ba = ba.handshake(num_variables=nvars)
    assert c_un.messages == nvars * c_ba.messages
    assert un.data_message_count(nvars) == nvars * ba.data_message_count(nvars)


def test_engine_keeps_the_last_handshake_not_one_per_read():
    """An engine lives as long as its stream and accounts every read."""
    eng = engine_with(CachingOption.CACHING_ALL)
    assert eng.last_handshake is None
    for _ in range(10_000):
        cost = eng.handshake()
    assert eng.last_handshake is cost
    records = [
        v for v in vars(eng).values()
        if isinstance(v, HandshakeCost)
        or (isinstance(v, (list, tuple, dict)) and len(v) >= 10_000)
    ]
    assert records == [cost]


def test_handshake_validation():
    eng = engine_with(CachingOption.NO_CACHING)
    with pytest.raises(ValueError):
        eng.handshake(num_variables=0)


# ---------------------------------------------------------------------------
# Writer-visible timing: the S3D tuning story
# ---------------------------------------------------------------------------

def _timing(eng, nvars=22, asynchronous=False):
    # Fixed per-message costs keep the comparison transparent.
    return eng.writer_visible_time(
        itemsize=8,
        num_variables=nvars,
        transfer_time=lambda w, r, n: 10e-6 + n / 5e9,
        control_time=lambda n: 8e-6,
        asynchronous=asynchronous,
    )


def test_tuning_stack_reduces_writer_visible_time():
    """CACHING_ALL + batching + async each help; together they dominate."""
    base = _timing(engine_with(CachingOption.NO_CACHING, batching=False))
    cached_eng = engine_with(CachingOption.CACHING_ALL, batching=True)
    _timing(cached_eng)  # warm-up step
    tuned = _timing(cached_eng, asynchronous=True)
    assert tuned < base / 10


def test_async_faster_than_sync():
    e1 = engine_with(CachingOption.CACHING_ALL, batching=True)
    e1.handshake()
    sync = _timing(e1, asynchronous=False)
    e2 = engine_with(CachingOption.CACHING_ALL, batching=True)
    e2.handshake()
    asyn = _timing(e2, asynchronous=True)
    assert asyn < sync
