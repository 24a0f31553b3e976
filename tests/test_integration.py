"""Cross-layer integration tests: full pipelines through many subsystems."""

import io
import os

import numpy as np
import pytest

from repro.adios import (
    Adios,
    EndOfStream,
    RankContext,
    Range,
    StepStatus,
    block_decompose,
    run_query,
)
from repro.adios.bp import BpReader
from repro.apps import (
    GtsAnalytics,
    GtsConfig,
    GtsRank,
    S3dConfig,
    S3dRank,
    composite_over,
    read_ppm,
    volume_render,
    write_ppm,
)
from repro.core import FlexIO, PluginSide, stream_registry
from repro.core.adaptive import AdaptivePolicy, DCPlacementController
from repro.core.directory import TenantSpec
from repro.core.plugins import sampling_plugin
from repro.net.server import DirectoryDaemon


@pytest.fixture(autouse=True)
def fresh_registry():
    stream_registry.reset()
    yield
    stream_registry.reset()


GTS_CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
    <var name="electron" type="float64" dimensions="n,7"/>
  </adios-group>
  <method group="particles" method="FLEXPATH">caching=ALL;batching=true</method>
</adios-config>
"""

S3D_CONFIG_TMPL = """
<adios-config>
  <adios-group name="species">
    <var name="OH" type="float64" dimensions="n,n,n"/>
  </adios-group>
  <method group="species" method="{method}">{params}</method>
</adios-config>
"""


# ---------------------------------------------------------------------------
# GTS: stream + DC plug-ins + adaptive controller + analytics + monitoring
# ---------------------------------------------------------------------------

def test_gts_pipeline_with_adaptive_plugin_placement():
    """The controller observes the sampler reducing data and migrates it
    from the reader into the writer mid-run; the analytics keep working
    and later steps buffer 4x less."""
    flexio = FlexIO.from_xml(GTS_CONFIG)
    cfg = GtsConfig(num_ranks=2, particles_per_rank=5000)
    writers = [
        flexio.open_write("particles", "gts.adaptive", RankContext(r, 2))
        for r in range(2)
    ]
    sampler = writers[0].plugins.deploy(sampling_plugin(4), PluginSide.READER)
    controller = DCPlacementController(
        writers[0].plugins, AdaptivePolicy(hysteresis=2)
    )
    reader = flexio.open_read("particles", "gts.adaptive", RankContext(0, 1))
    chain = GtsAnalytics()
    ranks = [GtsRank(cfg, r) for r in range(2)]

    step_bytes = []
    migrated_at = None
    for step in range(5):
        for r, w in zip(ranks, writers):
            out = r.output(step)
            w.write("zion", out["zion"])
            w.write("electron", out["electron"])
        for w in writers:
            w.end_step()
        state = stream_registry._states["gts.adaptive"]
        step_bytes.append(state.published[step].nbytes)
        if step > 0:
            reader._advance()  # the step just published is now available
        # Analytics consume the step (runs reader-side codelets if any).
        for wr in range(2):
            record = {
                "zion": reader.read_block("zion", wr),
                "electron": reader.read_block("electron", wr),
            }
            chain.process(record, step=step)
        # Runtime management: feed simulation-side monitoring.
        events = controller.observe_step(writer_busy_fraction=0.6, sim_step_time=10.0)
        if events and migrated_at is None:
            migrated_at = step
    for w in writers:
        w.close()

    assert migrated_at is not None, "controller never migrated the sampler"
    assert sampler.side is PluginSide.WRITER
    # Steps published after migration are ~4x smaller.
    assert step_bytes[-1] < 0.3 * step_bytes[0]
    assert chain.steps_processed == 10


# ---------------------------------------------------------------------------
# S3D: aggregated file output -> bpls -> query -> offline rendering
# ---------------------------------------------------------------------------

def test_s3d_offline_pipeline_through_aggregated_files(tmp_path):
    """S3D writes via MPI_AGGREGATE; offline tools then inspect (bpls),
    query (index pruning), and volume-render from the subfiles."""
    cfg = S3dConfig(num_ranks=8, local_edge=6)
    path = str(tmp_path / "s3d.bp")
    ad = Adios.from_xml(
        S3D_CONFIG_TMPL.format(method="MPI_AGGREGATE", params="aggregators=2")
    )
    gshape = cfg.global_shape
    boxes = cfg.boxes()
    writers = [
        ad.open_write("species", path, RankContext(r, 8)) for r in range(8)
    ]
    for r, w in enumerate(writers):
        w.write("OH", S3dRank(cfg, r).species_field(0, "OH"), box=boxes[r],
                global_shape=gshape)
        w.end_step()
        w.close()

    # bpls over a subfile.
    from repro.tools.bpls import list_file

    out = io.StringIO()
    assert list_file(os.path.join(path + ".dir", "data.0.bp"), out=out) == 0
    assert "OH" in out.getvalue()

    # Query high-concentration cells (relative to this subfile's own max)
    # with index pruning.
    with BpReader(os.path.join(path + ".dir", "data.0.bp")) as r:
        threshold = 0.5 * r.var_meta("OH").max_value
        res = run_query(r, Range("OH", lo=threshold))
        assert res.count > 0
        assert res.blocks_pruned + res.blocks_scanned == 4  # ranks 0-3

    # Offline read + render.
    reader = ad.open_read("species", path, RankContext(0, 1))
    field = reader.read("OH")
    assert field.shape == gshape
    img = volume_render(field, axis=0)
    ppm = tmp_path / "oh.ppm"
    write_ppm(ppm, img)
    back = read_ppm(ppm)
    assert back.shape == (gshape[1], gshape[2], 3)
    assert back.max() > 0  # the kernel is visible
    reader.close()


# ---------------------------------------------------------------------------
# Three-way method switch: identical application code and results
# ---------------------------------------------------------------------------

def _s3d_roundtrip(method, params, name):
    ad = Adios.from_xml(S3D_CONFIG_TMPL.format(method=method, params=params))
    cfg = S3dConfig(num_ranks=4, local_edge=5)
    gshape = cfg.global_shape
    boxes = cfg.boxes()
    writers = [ad.open_write("species", name, RankContext(r, 4)) for r in range(4)]
    for r, w in enumerate(writers):
        w.write("OH", S3dRank(cfg, r).species_field(0, "OH"), box=boxes[r],
                global_shape=gshape)
        w.end_step()
        w.close()
    reader = ad.open_read("species", name, RankContext(0, 1))
    out = reader.read("OH")
    reader.close()
    return out


def test_three_way_method_switch(tmp_path):
    """In process, offline (one file, or subfiles behind a manifest) and
    through a staging daemon: the same program, one ``<method>`` line apart."""
    stream = _s3d_roundtrip("FLEXPATH", "caching=ALL", "switch3.stream")
    bp = _s3d_roundtrip("BP", "", str(tmp_path / "switch3.bp"))
    agg = _s3d_roundtrip("MPI_AGGREGATE", "aggregators=2", str(tmp_path / "switch3agg.bp"))
    daemon = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    try:
        staged = _s3d_roundtrip(
            "STAGING", f"daemon={daemon.host}:{daemon.control_port};tenant=public",
            "switch3.staged")
    finally:
        daemon.stop()
    np.testing.assert_array_equal(stream, bp)
    np.testing.assert_array_equal(stream, agg)
    np.testing.assert_array_equal(stream, staged)


# ---------------------------------------------------------------------------
# Transactions + faults + analytics correctness
# ---------------------------------------------------------------------------

def test_transactional_gts_run_with_faults_yields_clean_analytics():
    """Faulted per-rank prepares are retried under ``transactional=true``;
    the analytics downstream see only complete, ordered steps."""
    # Ops 1 and 4: rank 0's prepare of step 0 and of step 1 (op 2 is the
    # retry of the first) — two transient faults.
    flexio = FlexIO.from_xml(GTS_CONFIG.replace(
        "batching=true",
        "batching=true;transactional=true;retry_timeout=0.01;faults=ops=1|4",
    ))
    cfg = GtsConfig(num_ranks=2, particles_per_rank=2000)
    writers = [
        flexio.open_write("particles", "gts.tx", RankContext(r, 2)) for r in range(2)
    ]
    ranks = [GtsRank(cfg, r) for r in range(2)]
    written = []
    for step in range(3):
        written.append([rank.output(step) for rank in ranks])
        for w, out in zip(writers, written[-1]):
            w.write("zion", out["zion"])
            w.write("electron", out["electron"])
        for w in writers:
            w.end_step()
    for w in writers:
        w.close()
    metrics = writers[0].monitor.metrics
    assert metrics.counter("faults.injected.total").value == 2
    assert metrics.counter("dataplane.drain.recovered").value == 2
    assert metrics.counter("dataplane.tx.committed").value == 3

    reader = flexio.open_read("particles", "gts.tx", RankContext(0, 1))
    chain = GtsAnalytics()
    steps_seen = 0
    while reader.begin_step() is StepStatus.OK:
        for wr in range(2):
            record = {
                "zion": reader.read_block("zion", wr),
                "electron": reader.read_block("electron", wr),
            }
            np.testing.assert_array_equal(
                record["zion"], written[steps_seen][wr]["zion"]
            )
            result = chain.process(record, step=steps_seen)
            assert result.total_particles > 0
        reader.end_step()
        steps_seen += 1
    assert steps_seen == 3


# ---------------------------------------------------------------------------
# Stream-mode MxN + parallel rendering equals serial ground truth
# ---------------------------------------------------------------------------

def test_stream_mxn_parallel_render_matches_serial():
    cfg = S3dConfig(num_ranks=8, local_edge=6)
    gshape = cfg.global_shape
    flexio = FlexIO.from_xml(
        S3D_CONFIG_TMPL.format(method="FLEXPATH", params="caching=ALL")
    )
    boxes = cfg.boxes()
    writers = [
        flexio.open_write("species", "render.stream", RankContext(r, 8))
        for r in range(8)
    ]
    blocks = [S3dRank(cfg, r).species_field(0, "OH") for r in range(8)]
    for r, w in enumerate(writers):
        w.write("OH", blocks[r], box=boxes[r], global_shape=gshape)
        w.end_step()
        w.close()

    full = np.zeros(gshape)
    for b, blk in zip(boxes, blocks):
        full[b.slices()] = blk
    vr = (float(full.min()), float(full.max()))

    viz_boxes = block_decompose(gshape, (2, 1, 1))
    readers = [
        flexio.open_read("species", "render.stream", RankContext(v, 2))
        for v in range(2)
    ]
    slabs = [
        readers[v].read("OH", start=viz_boxes[v].start, count=viz_boxes[v].count)
        for v in range(2)
    ]
    parallel = composite_over([volume_render(s, axis=0, vrange=vr) for s in slabs])
    serial = volume_render(full, axis=0, vrange=vr)
    np.testing.assert_allclose(parallel, serial, atol=1e-8)
