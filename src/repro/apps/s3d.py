"""S3D_Box combustion workload model (paper Section IV.B).

S3D performs direct numerical simulation of turbulent combustion;
S3D_Box is the team's reduced test version.  What FlexIO sees:

* per rank, per output: **22 three-dimensional double-precision species
  arrays** totalling **1.7 MB per process** (the production output size);
* output **every ten simulation cycles**;
* a 3-D block domain decomposition with heavy internal halo exchange —
  which is why intra-program MPI dominates and staging placement wins.

Fields are synthetic but smooth and time-coherent (advected Gaussian
flame kernels plus turbulence noise), so volume rendering them produces
structured images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adios.selection import BoundingBox, block_decompose, choose_grid
from repro.placement.algorithms import AnalyticsProfile, SimProfile
from repro.util import MiB, rng

#: The 22 species S3D tracks in the paper-era ethylene mechanism.
SPECIES = (
    "H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2",
    "CO", "CO2", "HCO", "CH2O", "CH3", "CH4", "C2H2", "C2H4",
    "C2H6", "CH2", "CH", "C2H3", "C2H5", "N2",
)
NUM_SPECIES = 22


@dataclass(frozen=True)
class S3dConfig:
    """One S3D_Box run configuration."""

    num_ranks: int
    #: Local block edge (cube): 21³ points × 8 B × 22 species ≈ 1.63 MB,
    #: matching the paper's 1.7 MB per-process output.
    local_edge: int = 21
    output_every: int = 10
    #: Wall seconds of one simulation cycle.
    cycle_time: float = 2.0
    #: Internal halo exchange bytes per neighbouring rank pair per interval.
    halo_bytes: float = 40 * MiB
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.num_ranks <= 0 or self.local_edge <= 0:
            raise ValueError("ranks and edge must be positive")

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return (self.local_edge,) * 3

    @property
    def bytes_per_rank(self) -> int:
        return NUM_SPECIES * self.local_edge**3 * 8

    @property
    def io_interval(self) -> float:
        return self.output_every * self.cycle_time

    def grid(self) -> tuple[int, int, int]:
        """Near-cubic 3-D process grid (S3D's logical layout)."""
        g = choose_grid(self.num_ranks, 3)
        return (g[0], g[1], g[2])

    @property
    def global_shape(self) -> tuple[int, int, int]:
        g = self.grid()
        return tuple(d * self.local_edge for d in g)  # type: ignore[return-value]

    def boxes(self) -> list[BoundingBox]:
        """Each rank's block within the global field."""
        return block_decompose(self.global_shape, self.grid())


class S3dRank:
    """One S3D rank's field generator: smooth, time-coherent species data."""

    def __init__(self, config: S3dConfig, rank: int) -> None:
        if not (0 <= rank < config.num_ranks):
            raise ValueError(f"rank {rank} out of range")
        self.config = config
        self.rank = rank
        self.box = config.boxes()[rank]

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gs = self.config.global_shape
        axes = [
            (np.arange(s, s + c) + 0.5) / g
            for s, c, g in zip(self.box.start, self.box.count, gs)
        ]
        return np.meshgrid(*axes, indexing="ij")  # type: ignore[return-value]

    def species_field(self, step: int, species: str) -> np.ndarray:
        """One species' local block at one step.

        A flame kernel (Gaussian blob) advects diagonally with time; each
        species gets a phase offset and its own turbulence noise.
        """
        if species not in SPECIES:
            raise KeyError(f"unknown species {species!r}")
        sp_idx = SPECIES.index(species)
        x, y, z = self._coords()
        t = 0.03 * step + 0.11 * sp_idx
        cx, cy, cz = (0.3 + t) % 1.0, (0.5 + 0.7 * t) % 1.0, (0.4 + 0.4 * t) % 1.0
        r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        field = np.exp(-r2 / 0.02)
        g = rng(hash((self.config.seed, self.rank, step, sp_idx)) & 0x7FFFFFFF)
        field = field + 0.05 * g.standard_normal(field.shape)
        return np.ascontiguousarray(field)

    def output(self, step: int) -> dict[str, np.ndarray]:
        """All 22 species blocks for one output step."""
        return {sp: self.species_field(step, sp) for sp in SPECIES}


# ---------------------------------------------------------------------------
# Profile builders
# ---------------------------------------------------------------------------

def s3d_sim_profile(config: S3dConfig) -> SimProfile:
    return SimProfile(
        num_ranks=config.num_ranks,
        threads_per_rank=1,
        io_interval=config.io_interval,
        bytes_per_rank=config.bytes_per_rank,
        grid=config.grid(),
        halo_bytes=config.halo_bytes,
    )


def s3d_viz_profile(config: S3dConfig, render_time_per_mb: float = 8.0) -> AnalyticsProfile:
    """The volume renderer's scaling profile.

    Rendering parallelizes over sub-volumes with a small compositing
    serial tail; sized so the paper's 128:1 allocation ratio falls out of
    rate matching at production scale.
    """
    total_mb = config.num_ranks * config.bytes_per_rank / MiB
    return AnalyticsProfile(
        time_single=render_time_per_mb * total_mb / 25.0,
        serial_fraction=0.08,
        internal_ring_bytes=2 * MiB,  # image compositing exchanges
        threads_per_rank=1,
    )
