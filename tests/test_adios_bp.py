"""Tests for the BP-lite file format: write, index, selection reads."""

import numpy as np
import pytest

from repro.adios import (
    AdiosError,
    BoundingBox,
    BpFormatError,
    BpReader,
    BpWriter,
    RankContext,
    block_decompose,
)
from repro.adios import bp
from repro.core.filereader import BpFileMethod


def open_bp(path):
    """``path``'s read handle, as a group with ``method="BP"`` opens it."""
    return BpFileMethod().open_read(str(path), None, RankContext(0, 1), None)


def write_global_array(path, steps=2, grid=(3, 3), shape=(9, 6)):
    """Write a block-decomposed 2D global array over several steps."""
    boxes = block_decompose(shape, grid)
    with BpWriter(path) as w:
        for s in range(steps):
            w.begin_step()
            full = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape) + 100 * s
            for rank, box in enumerate(boxes):
                w.write(rank, "field", full[box.slices()].copy(), box=box, global_shape=shape)
            w.end_step()
    return boxes


def test_write_read_full_global_array(tmp_path):
    path = tmp_path / "field.bp"
    write_global_array(path)
    with open_bp(path) as r:
        r.begin_step()
        r.end_step()
        r.begin_step()
        full = r.read("field")
        expected = np.arange(54, dtype=np.float64).reshape(9, 6) + 100
        np.testing.assert_array_equal(full, expected)


def test_read_selection_spanning_blocks(tmp_path):
    path = tmp_path / "field.bp"
    write_global_array(path)
    with open_bp(path) as r:
        sel = r.read("field", start=(2, 1), count=(5, 4))
        expected = np.arange(54, dtype=np.float64).reshape(9, 6)[2:7, 1:5]
        np.testing.assert_array_equal(sel, expected)


def test_selection_read_fetches_only_touched_blocks(tmp_path):
    """The index spares us reading blocks outside the selection."""
    path = tmp_path / "field.bp"
    write_global_array(path, steps=1, grid=(3, 3), shape=(9, 9))
    with open_bp(path) as r:
        r.read("field", start=(0, 0), count=(3, 3))  # one corner block
        one_block = 3 * 3 * 8
        assert r.readers[0].bytes_read == one_block


def test_process_group_read(tmp_path):
    path = tmp_path / "pg.bp"
    with BpWriter(path) as w:
        w.begin_step()
        for rank in range(4):
            w.write(rank, "zion", np.full((5, 7), float(rank)))
        w.end_step()
    with BpReader(path) as r:
        for rank in range(4):
            block = r.read_block("zion", step=0, rank=rank)
            assert block.shape == (5, 7)
            assert (block == rank).all()


def test_read_block_missing_rank(tmp_path):
    path = tmp_path / "pg.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "x", np.zeros(3))
        w.end_step()
    with BpReader(path) as r:
        with pytest.raises(KeyError):
            r.read_block("x", step=0, rank=5)


def test_var_meta_and_names(tmp_path):
    path = tmp_path / "meta.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "a", np.array([1.0, 5.0]))
        w.write(0, "b", np.array([[1, 2]], dtype=np.int64))
        w.end_step()
        w.begin_step()
        w.write(0, "a", np.array([-2.0, 3.0]))
        w.end_step()
    with BpReader(path) as r:
        assert r.var_names() == ["a", "b"]
        meta = r.var_meta("a")
        assert meta.steps == 2
        assert meta.min_value == -2.0
        assert meta.max_value == 5.0
        assert np.dtype(meta.dtype) == np.float64
        with pytest.raises(KeyError):
            r.var_meta("missing")


def test_minmax_index_pruning(tmp_path):
    """Range queries prune blocks by index characteristics without I/O."""
    path = tmp_path / "prune.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "v", np.array([0.0, 1.0]))     # [0, 1]
        w.write(1, "v", np.array([5.0, 9.0]))     # [5, 9]
        w.write(2, "v", np.array([20.0, 30.0]))   # [20, 30]
        w.end_step()
    with BpReader(path) as r:
        hits = r.blocks_in_range("v", 0, vmin=4.0, vmax=10.0)
        assert [e.rank for e in hits] == [1]
        hits = r.blocks_in_range("v", 0, vmin=0.5, vmax=25.0)
        assert [e.rank for e in hits] == [0, 1, 2]
        assert r.blocks_in_range("v", 0, vmin=100.0, vmax=200.0) == []


def test_dtype_preserved(tmp_path):
    path = tmp_path / "dtypes.bp"
    arrays = {
        "f32": np.arange(4, dtype=np.float32),
        "i64": np.arange(4, dtype=np.int64),
        "u8": np.arange(4, dtype=np.uint8),
    }
    with BpWriter(path) as w:
        w.begin_step()
        for name, arr in arrays.items():
            w.write(0, name, arr)
        w.end_step()
    with BpReader(path) as r:
        for name, arr in arrays.items():
            out = r.read_block(name, 0, 0)
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)


def test_writer_protocol_enforced(tmp_path):
    path = tmp_path / "bad.bp"
    w = BpWriter(path)
    with pytest.raises(BpFormatError):
        w.write(0, "x", np.zeros(1))  # no begin_step
    w.begin_step()
    with pytest.raises(BpFormatError):
        w.begin_step()  # double begin
    w.write(0, "x", np.zeros(1))
    w.end_step()
    with pytest.raises(BpFormatError):
        w.end_step()  # double end
    w.close()
    w.close()  # idempotent


def test_writer_box_shape_mismatch(tmp_path):
    w = BpWriter(tmp_path / "bad2.bp")
    w.begin_step()
    with pytest.raises(ValueError):
        w.write(0, "x", np.zeros((2, 2)), box=BoundingBox((0, 0), (3, 3)))
    w.close()


def test_reader_rejects_non_bp_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is not a bp file at all, definitely not")
    with pytest.raises(BpFormatError):
        BpReader(path)


def test_reader_rejects_truncated_file(tmp_path):
    good = tmp_path / "good.bp"
    write_global_array(good, steps=1)
    data = good.read_bytes()
    bad = tmp_path / "trunc.bp"
    bad.write_bytes(data[:-20])
    with pytest.raises(BpFormatError):
        BpReader(bad)


def test_local_array_global_read_rejected(tmp_path):
    path = tmp_path / "local.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "x", np.zeros(3))
        w.end_step()
    with open_bp(path) as r:
        with pytest.raises(AdiosError):
            r.read("x")


def test_empty_variable_stats(tmp_path):
    path = tmp_path / "empty.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "e", np.zeros((0,)))
        w.end_step()
    with BpReader(path) as r:
        out = r.read_block("e", 0, 0)
        assert out.size == 0


def test_bytes_written_counter(tmp_path):
    path = tmp_path / "count.bp"
    with BpWriter(path) as w:
        w.begin_step()
        w.write(0, "x", np.zeros(100, dtype=np.float64))
        w.end_step()
        assert w.bytes_written == 800


def test_a_bad_header_closes_the_file(tmp_path, monkeypatch):
    bad = tmp_path / "bad.bp"
    bad.write_bytes(b"not a bp file")
    opened = []
    monkeypatch.setattr(bp, "open", lambda *a: opened.append(open(*a)) or opened[-1],
                        raising=False)
    with pytest.raises(BpFormatError, match="not a BP-lite file"):
        BpReader(bad)
    assert len(opened) == 1 and opened[0].closed
