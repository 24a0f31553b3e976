"""Tests for the GTS workload model and its analytics chain."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps import (
    GtsAnalytics,
    GtsConfig,
    GtsRank,
    gts_analytics_profile,
    gts_sim_profile,
    histogram1d,
    histogram2d,
    particle_distribution,
    range_query,
)
from repro.apps.analytics import quantile_range
from repro.apps.gts import NUM_ATTRS
from repro.util import MiB

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def small_config(**kw):
    defaults = dict(num_ranks=4, particles_per_rank=5000)
    defaults.update(kw)
    return GtsConfig(**defaults)


# ---------------------------------------------------------------------------
# Config / output shapes
# ---------------------------------------------------------------------------

def test_production_output_size_is_about_110mb():
    """Paper: 'particle data output size of 110MB per process'."""
    cfg = GtsConfig(num_ranks=128)
    assert cfg.bytes_per_rank == pytest.approx(110 * MiB, rel=0.08)


def test_output_arrays_shape_and_determinism():
    cfg = small_config()
    r = GtsRank(cfg, rank=1)
    out = r.output(step=0)
    assert set(out) == {"zion", "electron"}
    n = out["zion"].shape[0]
    assert out["zion"].shape == (n, NUM_ATTRS)
    assert out["electron"].shape[1] == NUM_ATTRS
    out2 = GtsRank(cfg, rank=1).output(step=0)
    np.testing.assert_array_equal(out["zion"], out2["zion"])


def test_output_is_the_same_whatever_the_interpreters_hash_seed():
    """Two processes with different ``PYTHONHASHSEED`` write the same
    particles: nothing seeds from a ``str`` hash."""
    code = textwrap.dedent("""
        import hashlib
        from repro.apps import GtsConfig, GtsRank
        out = GtsRank(GtsConfig(num_ranks=4, particles_per_rank=500), rank=0).output(step=0)
        print(" ".join(hashlib.sha256(out[s].tobytes()).hexdigest() for s in sorted(out)))
    """)
    digests = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_particle_count_drifts_between_steps():
    cfg = small_config(count_jitter=0.05)
    r = GtsRank(cfg, rank=0)
    counts = {r.particle_count(s) for s in range(10)}
    assert len(counts) > 1
    for c in counts:
        assert abs(c - cfg.particles_per_rank) <= 0.05 * cfg.particles_per_rank


def test_particle_ids_unique_across_species_and_steps():
    cfg = small_config()
    r = GtsRank(cfg, rank=0)
    ids = np.concatenate([
        r.output(0)["zion"][:, 6], r.output(0)["electron"][:, 6], r.output(1)["zion"][:, 6]
    ])
    assert len(np.unique(ids)) == len(ids)


def test_thread_scaling_matches_paper():
    """Taking 1 of 4 cores slows GTS by ~2.7 % (paper Figure 7)."""
    cfg = GtsConfig(num_ranks=4)
    slowdown = cfg.cycle_time(3) / cfg.cycle_time(4) - 1.0
    assert slowdown == pytest.approx(0.027, abs=0.004)


def test_cycle_time_monotone_in_threads():
    cfg = GtsConfig(num_ranks=4)
    assert cfg.cycle_time(1) > cfg.cycle_time(2) > cfg.cycle_time(4) > cfg.cycle_time(8)
    with pytest.raises(ValueError):
        cfg.cycle_time(0)


def test_grid_covers_ranks():
    for n in (4, 6, 16, 128):
        g = GtsConfig(num_ranks=n).grid()
        assert g[0] * g[1] == n


def test_config_validation():
    with pytest.raises(ValueError):
        GtsConfig(num_ranks=0)
    with pytest.raises(ValueError):
        GtsConfig(num_ranks=1, omp_threads=0)
    with pytest.raises(ValueError):
        GtsConfig(num_ranks=1, count_jitter=1.5)
    with pytest.raises(ValueError):
        GtsRank(GtsConfig(num_ranks=2), rank=2)


# ---------------------------------------------------------------------------
# Analytics primitives
# ---------------------------------------------------------------------------

def particles(n=20000, seed=0):
    return GtsRank(small_config(particles_per_rank=n, seed=seed), 0).output(0)["zion"]


def test_distribution_integrates_to_one():
    p = particles()
    edges, density = particle_distribution(p, bins=64)
    widths = np.diff(edges)
    assert float((density * widths).sum()) == pytest.approx(1.0, abs=1e-6)


def test_range_query_selects_correctly():
    p = particles()
    out = range_query(p, -0.5, 0.5)
    assert ((out[:, 3] >= -0.5) & (out[:, 3] <= 0.5)).all()
    assert 0 < len(out) < len(p)


def test_range_query_unknown_column():
    with pytest.raises(KeyError):
        range_query(particles(), 0, 1, column="spin")


def test_quantile_range_hits_target_selectivity():
    p = particles(n=50000)
    lo, hi = quantile_range(p, selectivity=0.2)
    frac = len(range_query(p, lo, hi)) / len(p)
    assert frac == pytest.approx(0.2, abs=0.02)


def test_histograms_conserve_weight():
    p = particles()
    _, h1 = histogram1d(p, column="v_perp", bins=40)
    # v_perp is non-negative with unbounded top; histogram auto-range
    # covers all samples, so total weight is conserved.
    assert h1.sum() == pytest.approx(p[:, 5].sum(), rel=1e-9)
    _, _, h2 = histogram2d(p, bins=20)
    assert h2.sum() == pytest.approx(p[:, 5].sum(), rel=1e-9)


def test_bad_particle_shape_rejected():
    with pytest.raises(ValueError):
        particle_distribution(np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# The full chain
# ---------------------------------------------------------------------------

def test_chain_selectivity_about_20_percent():
    """Paper: 'the query result is ~20% of the original output particles'."""
    chain = GtsAnalytics(selectivity=0.2)
    record = GtsRank(small_config(particles_per_rank=30000), 0).output(0)
    result = chain.process(record)
    assert result.selectivity == pytest.approx(0.2, abs=0.03)
    assert chain.reduction_ratio == pytest.approx(0.2, abs=0.03)


def test_chain_products_shape():
    chain = GtsAnalytics(bins=32)
    result = chain.process(particles_record())
    assert len(result.distribution[1]) == 32
    assert len(result.hist1d[1]) == 32
    assert result.hist2d[2].shape == (32, 32)
    assert result.total_particles > result.selected_particles > 0


def particles_record():
    return GtsRank(small_config(), 0).output(0)


def test_chain_save_and_reload(tmp_path):
    chain = GtsAnalytics()
    result = chain.process(particles_record(), step=3)
    path = str(tmp_path / "hist.npz")
    GtsAnalytics.save(result, path)
    loaded = np.load(path)
    assert loaded["meta"][0] == 3
    np.testing.assert_array_equal(loaded["h1"], result.hist1d[1])


def test_chain_missing_species_rejected():
    with pytest.raises(KeyError):
        GtsAnalytics().process({"other": np.zeros((3, 7))})


def test_chain_validation():
    with pytest.raises(ValueError):
        GtsAnalytics(selectivity=0.0)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_sim_profile_fields():
    cfg = GtsConfig(num_ranks=16, omp_threads=3)
    prof = gts_sim_profile(cfg)
    assert prof.num_ranks == 16
    assert prof.threads_per_rank == 3
    assert prof.bytes_per_rank == cfg.bytes_per_rank
    assert prof.io_interval == pytest.approx(2 * cfg.cycle_time(3))


def test_analytics_profile_inline_fraction():
    """One analytics process on one rank's data costs ~23.6 % of the
    interval, so N ranks' data costs N times that on one process."""
    cfg = GtsConfig(num_ranks=16)
    prof = gts_analytics_profile(cfg)
    assert prof.time_single == pytest.approx(0.236 * cfg.io_interval * 16, rel=1e-6)
