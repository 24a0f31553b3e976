"""Smoke tests: every shipped example runs end to end in-process."""

import importlib.util
import os
import sys

import numpy as np
import pytest

from repro.core import stream_registry
from repro.core.directory import TenantSpec
from repro.net.server import DirectoryDaemon

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch, tmp_path):
    stream_registry.reset()
    # Examples write images/files relative to cwd or argv; sandbox them.
    monkeypatch.chdir(tmp_path)
    yield
    stream_registry.reset()


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_example(name, argv=(), capsys=None):
    module = load_example(name)
    old_argv = sys.argv
    sys.argv = [f"{name}.py", *argv]
    try:
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_quickstart(capsys):
    out = run_example("quickstart", capsys=capsys)
    assert "identical results through both transports" in out


def test_gts_analytics_pipeline(capsys):
    out = run_example("gts_analytics_pipeline", capsys=capsys)
    assert "selectivity" in out
    assert "20" in out


#: The GTS pipeline's placements: a ``<method>`` line each, nothing else.
GTS_METHODS = {
    "stream": ["--method", "FLEXPATH"],
    "stream_xpmem": ["--method", "FLEXPATH", "--params", "batching=true;trace=true;xpmem=true"],
    "file": ["--method", "BP"],
    "aggregated_files": ["--method", "MPI_AGGREGATE"],
}


def _histograms(hist_dir) -> dict:
    """Every histogram file's arrays as bytes (the ``.npz`` zip members
    carry their write time; the arrays are what the analytics made)."""
    out = {}
    for f in sorted(os.listdir(hist_dir)):
        with np.load(os.path.join(hist_dir, f)) as z:
            out[f] = {k: (z[k].dtype.str, z[k].shape, z[k].tobytes()) for k in z.files}
    return out


def test_gts_pipeline_gives_the_same_histograms_on_every_method(capsys, tmp_path):
    """The paper's claim on the shipped application: the writer-side
    sampler and the analytics chain move by the ``<method>`` line alone,
    and every placement yields the same histograms and selectivity —
    the staging daemon too, where each rank is a session of its own and
    the sampler deployed on rank 0's handle is the run's."""
    daemon = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    staging = f"daemon={daemon.host}:{daemon.control_port};tenant=public"
    methods = {**GTS_METHODS, "staging": ["--method", "STAGING", "--params", staging]}
    got = {}
    try:
        for placement, argv in methods.items():
            hist_dir = tmp_path / placement
            out = run_example("gts_analytics_pipeline",
                              [*argv, "--hist-dir", str(hist_dir)], capsys)
            assert "DC plug-in reduction ratio: 0.25" in out, placement
            assert "range-query selectivity: 20.0%" in out, placement
            got[placement] = _histograms(hist_dir)
    finally:
        daemon.stop()
    stream = got.pop("stream")
    assert len(stream) == 12
    for placement, hists in got.items():
        assert hists == stream, placement


def test_s3d_insitu_viz(capsys, tmp_path):
    """The visualization's MxN slab reads move by the ``<method>`` line
    alone: the default stream, both file methods and the staging daemon
    render byte-identical PPM images."""
    daemon = DirectoryDaemon(tenants=[TenantSpec("public")], telemetry=False).start()
    staging = f"daemon={daemon.host}:{daemon.control_port};tenant=public"
    methods = {m: ["--method", m] for m in ("BP", "MPI_AGGREGATE")}
    methods["FLEXPATH"] = []
    methods["STAGING"] = ["--method", "STAGING", "--params", staging]
    got = {}
    try:
        for method, argv in methods.items():
            out_dir = tmp_path / method
            out = run_example("s3d_insitu_viz", [str(out_dir), *argv], capsys)
            assert f"wrote 4 PPM images to {out_dir}/" in out, method
            got[method] = {f: (out_dir / f).read_bytes() for f in os.listdir(out_dir)}
    finally:
        daemon.stop()
    stream = got.pop("FLEXPATH")
    assert sorted(stream) == ["CH4_step0.ppm", "CH4_step1.ppm", "OH_step0.ppm", "OH_step1.ppm"]
    for method, images in got.items():
        assert images == stream, method


def test_placement_tuning(capsys):
    out = run_example("placement_tuning", argv=["128"], capsys=capsys)
    assert "best placement" in out
    assert "topology-aware" in out


def test_dc_plugins_demo(capsys):
    out = run_example("dc_plugins_demo", capsys=capsys)
    assert "rejected hostile codelet" in out
    assert "migrated" in out


def test_adaptive_insitu(capsys):
    out = run_example("adaptive_insitu", capsys=capsys)
    assert "migration at step" in out
    assert "adaptive run moved" in out


def test_pixie3d_xt5_pipeline(capsys, tmp_path):
    out = run_example(
        "pixie3d_xt5_pipeline", argv=[str(tmp_path / "pix")], capsys=capsys
    )
    assert "seastar" in out
    assert "E_mag" in out
