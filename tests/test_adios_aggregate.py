"""Tests for the MPI_AGGREGATE file method (aggregators + subfiles)."""

import os

import numpy as np
import pytest

import repro.adios.aggregate  # registers the method
from repro.adios import Adios, AdiosError, EndOfStream, RankContext, block_decompose

CONFIG = """
<adios-config>
  <adios-group name="fields">
    <var name="temp" type="float64" dimensions="16,16"/>
  </adios-group>
  <method group="fields" method="MPI_AGGREGATE">aggregators={aggs}</method>
</adios-config>
"""


def write_run(path, num_ranks=8, aggs=2, steps=2):
    ad = Adios.from_xml(CONFIG.format(aggs=aggs))
    shape = (16, 16)
    boxes = block_decompose(shape, (num_ranks, 1))
    full = np.arange(256.0).reshape(shape)
    writers = [ad.open_write("fields", path, RankContext(r, num_ranks)) for r in range(num_ranks)]
    for step in range(steps):
        for r, w in enumerate(writers):
            w.write("temp", full[boxes[r].slices()] + step, box=boxes[r], global_shape=shape)
        for w in writers:
            w.end_step()
    for w in writers:
        w.close()
    return ad, full


def test_subfile_layout_on_disk(tmp_path):
    path = str(tmp_path / "agg.bp")
    write_run(path, num_ranks=8, aggs=2)
    d = path + ".dir"
    assert os.path.isdir(d)
    files = sorted(os.listdir(d))
    assert files == ["data.0.bp", "data.1.bp", "manifest.txt"]
    manifest = open(os.path.join(d, "manifest.txt")).read()
    assert "bplite-aggregate v1" in manifest
    assert "rank 0 data.0.bp" in manifest
    assert "rank 7 data.1.bp" in manifest


def test_global_array_read_across_subfiles(tmp_path):
    path = str(tmp_path / "agg.bp")
    ad, full = write_run(path, num_ranks=8, aggs=4)
    reader = ad.open_read("fields", path, RankContext(0, 1))
    np.testing.assert_array_equal(reader.read("temp"), full)
    sel = reader.read("temp", start=(3, 2), count=(10, 12))
    np.testing.assert_array_equal(sel, full[3:13, 2:14])
    reader._advance()
    np.testing.assert_array_equal(reader.read("temp"), full + 1)
    with pytest.raises(EndOfStream):
        reader._advance()
    reader.close()


def test_process_group_read_routes_to_right_subfile(tmp_path):
    path = str(tmp_path / "agg.bp")
    ad, full = write_run(path, num_ranks=8, aggs=3)
    reader = ad.open_read("fields", path, RankContext(0, 1))
    boxes = block_decompose((16, 16), (8, 1))
    for rank in range(8):
        np.testing.assert_array_equal(
            reader.read_block("temp", rank), full[boxes[rank].slices()]
        )
    with pytest.raises(KeyError):
        reader.read_block("temp", 99)
    reader.close()


def test_var_meta_aggregates_over_subfiles(tmp_path):
    path = str(tmp_path / "agg.bp")
    ad, full = write_run(path, num_ranks=4, aggs=2)
    reader = ad.open_read("fields", path, RankContext(0, 1))
    meta = reader.var_meta("temp")
    assert meta.global_shape == (16, 16)
    assert meta.min_value == 0.0
    assert meta.max_value == 256.0  # step 1 adds 1 to the max of 255
    assert reader.available_vars() == ["temp"]
    reader.close()


def test_single_aggregator_degenerates_to_one_subfile(tmp_path):
    path = str(tmp_path / "one.bp")
    write_run(path, num_ranks=4, aggs=1)
    files = sorted(os.listdir(path + ".dir"))
    assert files == ["data.0.bp", "manifest.txt"]


def test_more_aggregators_than_ranks_clamped(tmp_path):
    path = str(tmp_path / "many.bp")
    write_run(path, num_ranks=2, aggs=16)
    files = [f for f in os.listdir(path + ".dir") if f.endswith(".bp")]
    assert len(files) == 2


def test_reader_without_manifest_rejected(tmp_path):
    path = str(tmp_path / "ghost.bp")
    ad = Adios.from_xml(CONFIG.format(aggs=2))
    with pytest.raises(AdiosError):
        ad.open_read("fields", path, RankContext(0, 1))


def test_rank_distribution_is_contiguous(tmp_path):
    """The ADIOS default: contiguous rank blocks per aggregator —
    preserving write locality within each subfile."""
    path = str(tmp_path / "contig.bp")
    write_run(path, num_ranks=8, aggs=2)
    manifest = open(os.path.join(path + ".dir", "manifest.txt")).read()
    for rank in range(4):
        assert f"rank {rank} data.0.bp" in manifest
    for rank in range(4, 8):
        assert f"rank {rank} data.1.bp" in manifest


def test_selection_read_fetches_only_the_subfile_holding_it(tmp_path):
    """The touched-block rule across subfiles: a selection inside one
    rank's block reads that block, from its aggregator's subfile only."""
    path = str(tmp_path / "touched.bp")
    ad, full = write_run(path, num_ranks=8, aggs=4, steps=1)
    reader = ad.open_read("fields", path, RankContext(0, 1))
    boxes = block_decompose((16, 16), (8, 1))
    box = boxes[5]  # rank 5: the third of four aggregators
    got = reader.read("temp", start=box.start, count=box.count)
    np.testing.assert_array_equal(got, full[box.slices()])
    fetched = {os.path.basename(r.path): r.bytes_read for r in reader.readers}
    assert fetched == {
        "data.0.bp": 0, "data.1.bp": 0, "data.2.bp": box.size * 8, "data.3.bp": 0,
    }
    reader.close()
