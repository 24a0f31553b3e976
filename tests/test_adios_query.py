"""Tests for index-assisted queries over BP-lite files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import BpReader, BpWriter, RankContext, block_decompose
from repro.core.filereader import BpFileMethod
from repro.adios.query import And, Or, QueryError, Range, run_query


@pytest.fixture
def gradient_file(tmp_path):
    """A global array whose blocks have disjoint value ranges — ideal for
    pruning: block k holds values in [100k, 100k + 63]."""
    path = str(tmp_path / "grad.bp")
    shape = (32, 16)
    boxes = block_decompose(shape, (8, 1))
    with BpWriter(path) as w:
        w.begin_step()
        for rank, box in enumerate(boxes):
            data = (np.arange(box.size, dtype=np.float64).reshape(box.count)
                    + 100.0 * rank)
            w.write(rank, "energy", data, box=box, global_shape=shape)
            w.write(rank, "weight", np.full(box.count, float(rank)), box=box,
                    global_shape=shape)
        w.end_step()
    return path, shape, boxes


# ---------------------------------------------------------------------------
# Predicate construction
# ---------------------------------------------------------------------------

def test_range_validation():
    with pytest.raises(QueryError):
        Range("x")
    with pytest.raises(QueryError):
        Range("x", 5, 1)
    Range("x", lo=0)   # open above
    Range("x", hi=10)  # open below


def test_predicate_composition_variables():
    q = (Range("a", 0, 1) & Range("b", 2, 3)) | Range("c", hi=0)
    assert q.variables() == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def test_query_prunes_disjoint_blocks(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        res = run_query(r, Range("energy", 210.0, 220.0))
    # Only block 2 ([200, 263]) can match.
    assert res.blocks_scanned == 1
    assert res.blocks_pruned == 7
    assert res.pruning_ratio == pytest.approx(7 / 8)
    assert res.count == 11  # 210..220 inclusive
    assert (res.values["energy"] >= 210).all() and (res.values["energy"] <= 220).all()


def test_query_no_match_prunes_everything(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        res = run_query(r, Range("energy", 10_000.0, 20_000.0))
    assert res.blocks_scanned == 0
    assert res.count == 0


def test_query_coordinates_are_global(gradient_file):
    path, shape, boxes = gradient_file
    with BpReader(path) as r:
        res = run_query(r, Range("energy", 100.0, 100.0))  # block 1's first cell
    assert res.count == 1
    coord = tuple(res.coordinates[0])
    assert coord == boxes[1].start  # global, not block-local


def test_query_matches_brute_force(gradient_file):
    path, shape, _ = gradient_file
    with BpFileMethod().open_read(path, None, RankContext(0, 1), None) as h:
        full = h.read("energy")  # the brute-force oracle: the whole array
    with BpReader(path) as r:
        res = run_query(r, Range("energy", 150.0, 420.0))
    expected = np.sort(full[(full >= 150) & (full <= 420)])
    np.testing.assert_array_equal(np.sort(res.values["energy"]), expected)


# ---------------------------------------------------------------------------
# Composition semantics
# ---------------------------------------------------------------------------

def test_and_across_variables(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        q = Range("energy", lo=100.0) & Range("weight", 1.0, 2.0)
        res = run_query(r, q)
    # weight == rank: only ranks 1 and 2 qualify; their energies >= 100 all.
    assert set(np.unique(res.values["weight"])) == {1.0, 2.0}
    assert res.count == 2 * 64


def test_or_unions_blocks(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        q = Range("energy", 0.0, 10.0) | Range("energy", 700.0, 710.0)
        res = run_query(r, q)
    assert res.blocks_scanned == 2  # first and last blocks only
    assert res.count == 22


def test_and_pruning_uses_both_sides(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        # energy matches block 3 only; weight matches blocks 5+ only:
        # conjunction can match nothing, and pruning sees that per block.
        q = Range("energy", 310.0, 320.0) & Range("weight", lo=5.0)
        res = run_query(r, q)
    assert res.blocks_scanned == 0
    assert res.count == 0


# ---------------------------------------------------------------------------
# Alignment errors
# ---------------------------------------------------------------------------

def test_missing_variable_on_rank_rejected(tmp_path):
    path = str(tmp_path / "mis.bp")
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "a", np.zeros(4))
        w.write(0, "b", np.zeros(4))
        w.write(1, "a", np.zeros(4))  # rank 1 lacks b
        w.end_step()
    with BpReader(path) as r:
        with pytest.raises(QueryError):
            run_query(r, Range("a", 0, 1) & Range("b", 0, 1))


def test_shape_mismatch_rejected(tmp_path):
    path = str(tmp_path / "shape.bp")
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "a", np.zeros(4))
        w.write(0, "b", np.zeros(5))
        w.end_step()
    with BpReader(path) as r:
        with pytest.raises(QueryError):
            run_query(r, Range("a", 0, 1) & Range("b", 0, 1))


def test_query_empty_step_rejected(gradient_file):
    path, _, _ = gradient_file
    with BpReader(path) as r:
        with pytest.raises(QueryError):
            run_query(r, Range("energy", 0, 1), step=7)


# ---------------------------------------------------------------------------
# Property: query == brute force for arbitrary data and ranges
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    lo=st.floats(-2, 2),
    width=st.floats(0, 2),
)
def test_property_query_equals_brute_force(tmp_path_factory, seed, lo, width):
    rng = np.random.default_rng(seed)
    path = str(tmp_path_factory.mktemp("q") / "prop.bp")
    shape = (24,)
    boxes = block_decompose(shape, (4,))
    full = rng.normal(size=shape)
    with BpWriter(path) as w:
        w.begin_step()
        for rank, box in enumerate(boxes):
            w.write(rank, "v", full[box.slices()].copy(), box=box, global_shape=shape)
        w.end_step()
    hi = lo + width
    with BpReader(path) as r:
        res = run_query(r, Range("v", lo, hi))
    expected = full[(full >= lo) & (full <= hi)]
    np.testing.assert_array_equal(np.sort(res.values["v"]), np.sort(expected))
    # Every pruned block truly had no matching values.
    assert res.count == expected.size
