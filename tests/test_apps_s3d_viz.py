"""Tests for the S3D workload model and the volume renderer."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.adios import BoundingBox
from repro.apps import (
    S3dConfig,
    S3dRank,
    composite_over,
    read_ppm,
    s3d_sim_profile,
    volume_render,
    write_ppm,
)
from repro.apps.s3d import NUM_SPECIES, SPECIES
from repro.apps.viz import to_uint8, transfer_function
from repro.core import RedistributionEngine
from repro.util import MiB

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


# ---------------------------------------------------------------------------
# S3D model
# ---------------------------------------------------------------------------

def test_production_output_size_about_1_7mb():
    """Paper: 'the total size of 22 arrays generated by each simulation
    process is 1.7MB'."""
    cfg = S3dConfig(num_ranks=8)
    assert cfg.bytes_per_rank == pytest.approx(1.7 * 1e6, rel=0.05)
    assert len(SPECIES) == NUM_SPECIES == 22


def test_species_fields_shape_and_determinism():
    cfg = S3dConfig(num_ranks=8, local_edge=8)
    r = S3dRank(cfg, 3)
    f1 = r.species_field(0, "CO2")
    assert f1.shape == (8, 8, 8)
    f2 = S3dRank(cfg, 3).species_field(0, "CO2")
    np.testing.assert_array_equal(f1, f2)
    assert not np.array_equal(f1, r.species_field(1, "CO2"))  # time-varying


def test_species_field_is_the_same_whatever_the_interpreters_hash_seed():
    """Two processes with different ``PYTHONHASHSEED`` make the same
    field: the noise seeds from the species' index, not a ``str`` hash."""
    code = textwrap.dedent("""
        import hashlib
        from repro.apps import S3dConfig, S3dRank
        field = S3dRank(S3dConfig(num_ranks=8, local_edge=8), 0).species_field(0, "OH")
        print(hashlib.sha256(field.tobytes()).hexdigest())
    """)
    digests = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_output_has_all_species():
    cfg = S3dConfig(num_ranks=8, local_edge=6)
    out = S3dRank(cfg, 0).output(0)
    assert set(out) == set(SPECIES)
    assert all(v.shape == (6, 6, 6) for v in out.values())


def test_boxes_tile_global_domain():
    cfg = S3dConfig(num_ranks=8, local_edge=5)
    boxes = cfg.boxes()
    assert len(boxes) == 8
    total = sum(b.size for b in boxes)
    gs = cfg.global_shape
    assert total == gs[0] * gs[1] * gs[2]


def test_grid_is_3d_and_covers():
    for n in (8, 27, 64, 128):
        g = S3dConfig(num_ranks=n).grid()
        assert len(g) == 3
        assert g[0] * g[1] * g[2] == n


def test_fields_are_smooth_blobs():
    """The flame kernel concentrates mass: the field's max is well above
    its mean (not white noise)."""
    cfg = S3dConfig(num_ranks=1, local_edge=24)
    f = S3dRank(cfg, 0).species_field(0, "OH")
    assert f.max() > 5 * abs(f.mean())


def test_s3d_validation():
    with pytest.raises(ValueError):
        S3dConfig(num_ranks=0)
    with pytest.raises(ValueError):
        S3dRank(S3dConfig(num_ranks=2), 5)
    with pytest.raises(KeyError):
        S3dRank(S3dConfig(num_ranks=2), 0).species_field(0, "unobtainium")


def test_sim_profile_io_interval():
    cfg = S3dConfig(num_ranks=8)
    prof = s3d_sim_profile(cfg)
    assert prof.io_interval == pytest.approx(10 * cfg.cycle_time)
    assert prof.grid == cfg.grid()


# ---------------------------------------------------------------------------
# Volume renderer
# ---------------------------------------------------------------------------

def ball_field(n=24):
    ax = (np.arange(n) + 0.5) / n
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2) / 0.02)


def test_render_shape_and_range():
    img = volume_render(ball_field(), axis=0)
    assert img.shape == (24, 24, 4)
    assert (img >= 0).all()
    assert (img[..., 3] <= 1.0 + 1e-9).all()


def test_render_centered_blob_brightest_in_middle():
    img = volume_render(ball_field(), axis=0)
    lum = img[..., :3].sum(axis=-1)
    cy, cx = np.unravel_index(lum.argmax(), lum.shape)
    assert abs(cy - 12) <= 2 and abs(cx - 12) <= 2


def test_render_axes_give_transposed_views():
    f = ball_field()
    a0 = volume_render(f, axis=0)
    a1 = volume_render(f, axis=1)
    assert a0.shape == a1.shape
    # Symmetric ball: views along different axes are nearly identical.
    np.testing.assert_allclose(a0, a1, atol=1e-6)


def test_render_validation():
    with pytest.raises(ValueError):
        volume_render(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        volume_render(np.zeros((3, 3, 3)), axis=5)


def test_parallel_slab_compositing_matches_serial():
    """render(whole) == composite(render(slab_i)) with a global vrange —
    the parallel volume-rendering correctness property."""
    f = ball_field(16)
    vr = (float(f.min()), float(f.max()))
    serial = volume_render(f, axis=0, vrange=vr)
    slabs = [f[:5], f[5:10], f[10:]]
    partials = [volume_render(s, axis=0, vrange=vr) for s in slabs]
    parallel = composite_over(partials)
    np.testing.assert_allclose(parallel, serial, atol=1e-8)


def test_composite_validation():
    with pytest.raises(ValueError):
        composite_over([])
    with pytest.raises(ValueError):
        composite_over([np.zeros((4, 4, 3))])
    with pytest.raises(ValueError):
        composite_over([np.zeros((4, 4, 4)), np.zeros((5, 5, 4))])


def test_transfer_function_fixed_range():
    f = np.linspace(0, 1, 27).reshape(3, 3, 3)
    _, alpha_local = transfer_function(f[:1])
    _, alpha_global = transfer_function(f[:1], vrange=(0.0, 1.0))
    # Local normalization stretches the slab; global keeps absolute scale.
    assert alpha_local.max() > alpha_global.max()


def test_to_uint8_background():
    img = np.zeros((2, 2, 4))  # fully transparent
    white = to_uint8(img, background=1.0)
    assert (white == 255).all()
    black = to_uint8(img, background=0.0)
    assert (black == 0).all()


# ---------------------------------------------------------------------------
# PPM I/O
# ---------------------------------------------------------------------------

def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    n = write_ppm(path, img)
    assert n == len(b"P6\n17 13\n255\n") + 13 * 17 * 3
    back = read_ppm(path)
    np.testing.assert_array_equal(back, img)


def test_ppm_accepts_rgba_float(tmp_path):
    img = volume_render(ball_field(8))
    path = tmp_path / "render.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (8, 8, 3)


def test_ppm_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    (tmp_path / "bad.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        read_ppm(tmp_path / "bad.ppm")


# ---------------------------------------------------------------------------
# End-to-end: S3D blocks → MxN redistribution → parallel render → PPM
# ---------------------------------------------------------------------------

def test_s3d_to_viz_pipeline(tmp_path):
    """The paper's S3D pipeline in miniature: 8 sim ranks write species
    blocks, 2 viz ranks read slab distributions through the MxN engine,
    render their slabs, composite, and write a PPM."""
    cfg = S3dConfig(num_ranks=8, local_edge=6)
    writers = cfg.boxes()
    gs = cfg.global_shape
    # Viz wants 2 slabs along axis 0.
    from repro.adios.selection import block_decompose

    readers = block_decompose(gs, (2, 1, 1))
    eng = RedistributionEngine(writers, readers)
    blocks = [S3dRank(cfg, r).species_field(0, "OH") for r in range(8)]
    slabs = eng.move(blocks)

    full = np.zeros(gs)
    for b, blk in zip(writers, blocks):
        full[b.slices()] = blk
    vr = (float(full.min()), float(full.max()))
    partials = [volume_render(s, axis=0, vrange=vr) for s in slabs]
    image = composite_over(partials)
    serial = volume_render(full, axis=0, vrange=vr)
    np.testing.assert_allclose(image, serial, atol=1e-8)

    out = tmp_path / "oh.ppm"
    write_ppm(out, image)
    assert read_ppm(out).shape == (gs[1], gs[2], 3)
