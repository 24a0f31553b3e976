"""Data types for coupled-run simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.redistribution import CachingOption
from repro.core.runtime import NumaBufferPolicy
from repro.machine.cache import CacheProfile
from repro.placement.algorithms import AnalyticsProfile, SimProfile
from repro.placement.metrics import RunMetrics


class PlacementStyle(Enum):
    """Where the analytics run (Figure 1's options)."""

    SOLO = "solo"              # simulation only, no I/O — the lower bound
    INLINE = "inline"          # analytics called from simulation processes
    HELPER_CORE = "helper-core"
    STAGING = "staging"
    OFFLINE = "offline"        # through the parallel file system
    CUSTOM = "custom"          # style derived from a Placement object


@dataclass(frozen=True)
class CoupledWorkload:
    """Everything the simulator needs to know about one coupled app pair."""

    name: str
    sim: SimProfile
    ana: AnalyticsProfile
    num_steps: int
    sim_cache: CacheProfile
    ana_cache: CacheProfile
    #: Simulation cycles per I/O interval (GTS: 2; used for Fig. 7 bars).
    cycles_per_interval: int = 2
    #: Fixed per-step analytics overhead beyond the scaled compute
    #: (receive/unpack, writing analysis products).
    ana_step_overhead: float = 0.0
    #: Bytes of analysis products written to the FS per step (histograms,
    #: rendered PPM images).
    ana_output_bytes: int = 0
    #: Per-rank thread count the simulation uses when it keeps ALL cores
    #: (inline/solo/staging/offline); helper-core gives one up.
    full_node_threads: Optional[int] = None
    #: Intra-program cross-node bytes per step under the best-known sim
    #: layout; a placement whose layout crosses more pays an MPI slowdown
    #: (how hybrid placements hurt S3D in Figure 9).
    baseline_intraprog_cross_bytes: float = 0.0
    #: Same for within-node cross-NUMA bytes (the holistic-vs-topo-aware
    #: alignment margin).
    baseline_intraprog_crossnuma_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.ana_step_overhead < 0 or self.ana_output_bytes < 0:
            raise ValueError("overheads must be >= 0")


@dataclass(frozen=True)
class CoupledOptions:
    """Tunables of the I/O path (the paper's Section IV.B.1 knobs)."""

    asynchronous: bool = True
    batching: bool = True
    caching: CachingOption = CachingOption.CACHING_ALL
    #: Steps FlexIO may buffer before the writer stalls (backpressure).
    max_buffered_steps: int = 2
    #: Receiver-directed Get concurrency bound (None: unscheduled flood).
    scheduler_max_concurrent: Optional[int] = 4
    use_xpmem: bool = False
    numa_policy: NumaBufferPolicy = NumaBufferPolicy.WRITER_LOCAL
    #: Fraction of sim compute lost per unit of async-movement duty cycle
    #: with scheduling on / off (network interference on the sim's MPI).
    interference_scheduled: float = 0.12
    interference_flood: float = 0.30
    #: Cap on the network-interference slowdown.
    interference_cap: float = 0.5
    #: Slowdown when a rank's OpenMP threads straddle NUMA domains
    #: (paper: up to 7 % on Smoky).
    numa_split_penalty: float = 0.07

    def __post_init__(self) -> None:
        if self.max_buffered_steps < 1:
            raise ValueError("max_buffered_steps must be >= 1")
        if self.scheduler_max_concurrent is not None and self.scheduler_max_concurrent < 1:
            raise ValueError("scheduler_max_concurrent must be >= 1 or None")


@dataclass
class StepTimes:
    """Per-step derived timings (before pipelining)."""

    sim_compute: float
    sim_io_visible: float
    movement_latency: float
    ana_compute: float
    #: Multiplicative sim slowdown components, e.g. {"cache": 0.041}.
    slowdowns: dict = field(default_factory=dict)


@dataclass
class CoupledResult:
    """Everything one simulated run reports."""

    metrics: RunMetrics
    step: StepTimes
    #: Totals over the run: cycle1, cycle2, io, analysis, ana_idle.
    phases: dict
    #: (solo_miss_rate, shared_miss_rate) per 1K instructions for the sim.
    cache_misses: tuple[float, float]
    analytics_idle_fraction: float
    num_analytics: int

    @property
    def total_execution_time(self) -> float:
        return self.metrics.total_execution_time
