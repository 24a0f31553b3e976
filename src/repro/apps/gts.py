"""GTS (Gyrokinetic Tokamak Simulation) workload model.

GTS is a 3-D particle-in-cell code studying microturbulence in tokamak
plasmas.  What FlexIO sees of it (paper Section IV.A):

* per rank, per output: two 2-D particle arrays — ``zion`` and
  ``electron`` — with **seven attributes per particle**: three spatial
  coordinates, parallel and perpendicular velocity, statistical weight,
  and a particle id;
* ~**110 MB of particle data per process** in the production
  configuration, output **every two simulation cycles**;
* OpenMP/MPI hybrid execution with serial code regions, so thread scaling
  is sub-linear — taking one core from a 4-thread rank slows the
  simulation by only ~2.7 %;
* particle counts drift between steps as particles move between ranks
  (the behaviour motivating the RDMA registration cache).

The particle *contents* here are synthetic (drifting Maxwellian
distributions) but dimensionally and statistically shaped like PIC
output, so the analytics chain downstream computes meaningful results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.placement.algorithms import AnalyticsProfile, SimProfile
from repro.util import MiB, rng

#: Attribute columns of the particle arrays.
ATTRS = ("x", "y", "z", "v_par", "v_perp", "weight", "particle_id")
NUM_ATTRS = 7
#: The particle arrays of one output, in write order.
SPECIES = ("zion", "electron")


@dataclass(frozen=True)
class GtsConfig:
    """One GTS run configuration."""

    num_ranks: int
    #: Particles per rank per species (zion + electron arrays each).
    particles_per_rank: int = 1_000_000
    #: OpenMP threads per MPI rank.
    omp_threads: int = 4
    #: Cycles between outputs ("every two simulation cycles").
    output_every: int = 2
    #: Wall seconds of one simulation cycle at 4 threads (production-like).
    cycle_time_4t: float = 15.0
    #: Fraction of cycle work that does not scale with threads
    #: (calibrated so 4→3 threads costs ~2.7 %).
    omp_serial_fraction: float = 0.745
    #: Fractional particle-count jitter between steps (particle movement).
    count_jitter: float = 0.02
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.num_ranks <= 0 or self.particles_per_rank <= 0:
            raise ValueError("ranks and particles must be positive")
        if self.omp_threads < 1:
            raise ValueError("omp_threads must be >= 1")
        if not (0 <= self.count_jitter < 1):
            raise ValueError("count_jitter in [0, 1)")

    # ------------------------------------------------------------------
    @property
    def bytes_per_rank(self) -> int:
        """Output volume per rank per step (both species)."""
        return 2 * self.particles_per_rank * NUM_ATTRS * 8

    def cycle_time(self, threads: int | None = None) -> float:
        """One simulation cycle's wall time at ``threads`` OpenMP threads.

        Amdahl over the thread count, normalized to the 4-thread
        production configuration.
        """
        t = threads if threads is not None else self.omp_threads
        if t < 1:
            raise ValueError("threads must be >= 1")
        f = self.omp_serial_fraction

        def scaled(k: int) -> float:
            return f + (1.0 - f) / k

        return self.cycle_time_4t * scaled(t) / scaled(4)

    @property
    def io_interval(self) -> float:
        """Compute seconds between outputs at the configured thread count."""
        return self.output_every * self.cycle_time()

    def grid(self) -> tuple[int, int]:
        """GTS's logical 2-D process grid (poloidal × toroidal)."""
        a = int(np.sqrt(self.num_ranks))
        while self.num_ranks % a:
            a -= 1
        return (a, self.num_ranks // a)


class GtsRank:
    """One GTS MPI rank's output generator (deterministic per rank/step)."""

    def __init__(self, config: GtsConfig, rank: int) -> None:
        if not (0 <= rank < config.num_ranks):
            raise ValueError(f"rank {rank} out of range")
        self.config = config
        self.rank = rank
        self._next_id = rank * 10_000_000_000

    def particle_count(self, step: int) -> int:
        """Particles held this step — drifts as particles move."""
        g = rng(hash((self.config.seed, self.rank, step)) & 0x7FFFFFFF)
        base = self.config.particles_per_rank
        jitter = self.config.count_jitter
        return int(base * (1.0 + jitter * (2.0 * g.random() - 1.0)))

    def _species(self, step: int, species: str, count: int) -> np.ndarray:
        # Seeded by the species' index, not its name: a str hash changes
        # with PYTHONHASHSEED, so two processes would draw different particles.
        g = rng(hash((self.config.seed, self.rank, step, SPECIES.index(species)))
                & 0x7FFFFFFF)
        out = np.empty((count, NUM_ATTRS), dtype=np.float64)
        # Toroidal coordinates: radial band per rank, angles uniform.
        out[:, 0] = g.uniform(0.1 + 0.8 * self.rank / self.config.num_ranks,
                              0.1 + 0.8 * (self.rank + 1) / self.config.num_ranks,
                              size=count)
        out[:, 1] = g.uniform(0.0, 2 * np.pi, size=count)
        out[:, 2] = g.uniform(0.0, 2 * np.pi, size=count)
        # Velocities: drifting Maxwellian; electrons are hotter.
        vth = 1.0 if species == "zion" else 2.5
        out[:, 3] = g.normal(0.15 * np.sin(step / 3.0), vth, size=count)
        out[:, 4] = np.abs(g.normal(0.0, vth, size=count))
        out[:, 5] = g.uniform(0.5, 1.5, size=count)  # statistical weights
        out[:, 6] = np.arange(self._next_id, self._next_id + count, dtype=np.float64)
        self._next_id += count
        return out

    def output(self, step: int) -> dict[str, np.ndarray]:
        """The rank's process-group payload for one output step."""
        count = self.particle_count(step)
        return {species: self._species(step, species, count) for species in SPECIES}


# ---------------------------------------------------------------------------
# Profile builders for the placement algorithms
# ---------------------------------------------------------------------------

def gts_sim_profile(config: GtsConfig, halo_bytes: float = 2 * MiB) -> SimProfile:
    """GTS as the placement algorithms see it."""
    return SimProfile(
        num_ranks=config.num_ranks,
        threads_per_rank=config.omp_threads,
        io_interval=config.io_interval,
        bytes_per_rank=config.bytes_per_rank,
        grid=config.grid(),
        halo_bytes=halo_bytes,
    )


def gts_analytics_profile(config: GtsConfig) -> AnalyticsProfile:
    """The GTS analysis chain's strong-scaling profile.

    Calibrated to the paper's Figure 7: inline analytics weigh 23.6 % of
    GTS runtime, i.e. one analytics process handles one rank's step data
    in ``0.236 × io_interval`` — and the chain (histogramming) is nearly
    perfectly parallel over particles.
    """
    per_rank_time = 0.236 * config.io_interval
    return AnalyticsProfile(
        time_single=per_rank_time * config.num_ranks,
        serial_fraction=0.01,
        internal_ring_bytes=64 * 1024,  # histogram reduction traffic
        threads_per_rank=1,
    )
