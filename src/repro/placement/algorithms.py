"""The three placement algorithms (paper Section III.B).

All three separate **resource allocation** (how many analytics processes)
from **resource binding** (which process goes on which core):

* :class:`DataAwareMapping` — binding only, driven by the inter-program
  communication matrix: graph-partition processes into node-sized groups,
  map each group to a node, each process to a core (reference [51]).
* :class:`HolisticPlacement` — adds (a) resource allocation by
  rate-matching (sync) or movement+compute ≤ I/O interval (async), and
  (b) binding that also sees the programs' *internal* MPI traffic, mapping
  the full communication graph onto a two-level machine tree.
* :class:`NodeTopologyAwarePlacement` — the same, but the machine tree
  descends into cache/NUMA domains, so thread groups stay inside NUMA
  boundaries and FlexIO's shm buffers get a NUMA home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.machine.topology import Machine
from repro.placement.commgraph import CommGraph, grid_edges, ring_edges
from repro.placement.graphmap import MappingError, map_to_tree, mapping_cost, nodes_used
from repro.placement.partition import partition_graph
from repro.util import ceil_div


# ---------------------------------------------------------------------------
# Workload profiles (inputs obtained by performance profiling, per paper)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimProfile:
    """Steady-state behaviour of the simulation."""

    num_ranks: int
    threads_per_rank: int
    #: Compute time between consecutive outputs (seconds).
    io_interval: float
    #: Output bytes per rank per I/O step.
    bytes_per_rank: int
    #: Process-grid shape for the halo pattern (row-major ranks).
    grid: tuple[int, ...] = ()
    #: Halo bytes exchanged per neighbouring pair per interval.
    halo_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.num_ranks <= 0 or self.threads_per_rank <= 0:
            raise ValueError("ranks and threads must be positive")
        if self.io_interval <= 0:
            raise ValueError("io_interval must be positive")
        if self.grid:
            n = 1
            for d in self.grid:
                n *= d
            if n != self.num_ranks:
                raise ValueError(f"grid {self.grid} does not cover {self.num_ranks} ranks")

    @property
    def bytes_per_step(self) -> int:
        return self.num_ranks * self.bytes_per_rank


@dataclass(frozen=True)
class AnalyticsProfile:
    """Strong-scaling behaviour of the analytics (Amdahl form)."""

    #: Time to process one step's data on a single process (seconds).
    time_single: float
    #: Serial fraction of that work.
    serial_fraction: float = 0.05
    #: Internal MPI bytes per ring link per step (histogram reduce, etc.).
    internal_ring_bytes: float = 0.0
    threads_per_rank: int = 1

    def __post_init__(self) -> None:
        if self.time_single <= 0:
            raise ValueError("time_single must be positive")
        if not (0.0 <= self.serial_fraction <= 1.0):
            raise ValueError("serial_fraction in [0, 1]")

    def time(self, num_procs: int) -> float:
        """Strong-scaled processing time for one step."""
        if num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        f = self.serial_fraction
        return self.time_single * (f + (1.0 - f) / num_procs)


# ---------------------------------------------------------------------------
# Resource allocation (Section III.B.2)
# ---------------------------------------------------------------------------

def allocate_analytics_sync(
    sim: SimProfile, ana: AnalyticsProfile, max_procs: int = 4096
) -> int:
    """Smallest analytics process count whose consumption rate matches the
    simulation's production rate (two-stage pipeline, no stalls)."""
    for n in range(1, max_procs + 1):
        if ana.time(n) <= sim.io_interval:
            return n
    return max_procs


def allocate_analytics_async(
    sim: SimProfile,
    ana: AnalyticsProfile,
    p2p_bandwidth: float,
    max_procs: int = 4096,
) -> int:
    """Async variant: movement time + analytics time must fit the interval.

    Movement is estimated *conservatively* as the whole step's data moving
    sequentially at point-to-point RDMA bandwidth — the paper notes this
    may over-provision analytics, which is cheap and absorbs variability.
    """
    if p2p_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    movement = sim.bytes_per_step / p2p_bandwidth
    budget = sim.io_interval - movement
    if budget <= 0:
        return max_procs
    for n in range(1, max_procs + 1):
        if ana.time(n) <= budget:
            return n
    return max_procs


# ---------------------------------------------------------------------------
# Placement result
# ---------------------------------------------------------------------------

@dataclass
class Placement:
    """A complete binding of both programs onto the machine."""

    name: str
    machine: Machine
    #: sim rank -> cores (len == threads_per_rank).
    sim_mapping: dict[int, list[int]]
    #: analytics rank -> cores.
    ana_mapping: dict[int, list[int]]
    graph: CommGraph
    cost: float

    @property
    def num_analytics(self) -> int:
        return len(self.ana_mapping)

    @property
    def nodes(self) -> set[int]:
        both = dict(self.sim_mapping)
        both.update({-1 - k: v for k, v in self.ana_mapping.items()})
        return nodes_used(both, self.machine)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def analytics_colocated_fraction(self) -> float:
        """Fraction of analytics ranks sharing a node with some sim rank."""
        if not self.ana_mapping:
            return 0.0
        sim_nodes = {
            self.machine.node_of(c) for cores in self.sim_mapping.values() for c in cores
        }
        hits = sum(
            1
            for cores in self.ana_mapping.values()
            if self.machine.node_of(cores[0]) in sim_nodes
        )
        return hits / len(self.ana_mapping)

    def style(self) -> str:
        """'helper-core' / 'staging' / 'hybrid' by where analytics sit."""
        frac = self.analytics_colocated_fraction()
        if frac >= 0.99:
            return "helper-core"
        if frac <= 0.01:
            return "staging"
        return "hybrid"

    def thread_numa_splits(self) -> int:
        """Sim ranks whose threads straddle a NUMA boundary (the penalty
        topology-aware placement exists to avoid)."""
        splits = 0
        for cores in self.sim_mapping.values():
            domains = {self.machine.numa_of(c) for c in cores}
            if len(domains) > 1:
                splits += 1
        return splits

    def interprogram_internode_bytes(self) -> float:
        """Sim↔analytics bytes that cross the interconnect per step."""
        total = 0.0
        anas = set(self.graph.ana_vertices())
        nsim = len(self.sim_mapping)
        for u, v, w in self.graph.edges():
            if (u in anas) == (v in anas):
                continue
            su, av = (u, v) if v in anas else (v, u)
            cu = self.sim_mapping[su][0]
            cv = self.ana_mapping[av - nsim][0]
            if not self.machine.same_node(cu, cv):
                total += w
        return total

    def _core_of(self, v: int) -> int:
        nsim = len(self.sim_mapping)
        if v < nsim:
            return self.sim_mapping[v][0]
        return self.ana_mapping[v - nsim][0]

    def intraprogram_internode_bytes(self) -> float:
        """Program-internal MPI bytes crossing the interconnect per step."""
        total = 0.0
        anas = set(self.graph.ana_vertices())
        for u, v, w in self.graph.edges():
            if (u in anas) != (v in anas):
                continue
            if not self.machine.same_node(self._core_of(u), self._core_of(v)):
                total += w
        return total

    def intraprogram_crossnuma_bytes(self) -> float:
        """Program-internal bytes crossing NUMA domains *within* nodes.

        The alignment the node-topology-aware algorithm improves over
        holistic placement (paper: "slightly better performance ... by
        further aligning processes' communication with the compute node's
        NUMA structure")."""
        total = 0.0
        anas = set(self.graph.ana_vertices())
        for u, v, w in self.graph.edges():
            if (u in anas) != (v in anas):
                continue
            cu, cv = self._core_of(u), self._core_of(v)
            if self.machine.same_node(cu, cv) and not self.machine.same_numa(cu, cv):
                total += w
        return total


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def build_graph(
    sim: SimProfile,
    num_ana: int,
    ana: AnalyticsProfile,
    comm_matrix: np.ndarray,
    include_intraprogram: bool,
) -> CommGraph:
    """Combined communication graph over sim + analytics ranks."""
    g = CommGraph.coupled(
        sim.num_ranks, num_ana, sim.threads_per_rank, ana.threads_per_rank
    )
    g.add_interprogram_matrix(comm_matrix)
    if include_intraprogram:
        if sim.grid and sim.halo_bytes > 0:
            for u, v, w in grid_edges(sim.grid, sim.halo_bytes):
                g.add_edge(u, v, w)
        if ana.internal_ring_bytes > 0 and num_ana > 1:
            for u, v, w in ring_edges(num_ana, ana.internal_ring_bytes, offset=sim.num_ranks):
                g.add_edge(u, v, w)
    return g


def process_group_matrix(num_sim: int, num_ana: int, bytes_per_rank: int) -> np.ndarray:
    """The process-group pattern's matrix: sim rank i feeds analytics rank
    i * num_ana // num_sim (contiguous rank blocks), as GTS does."""
    if num_sim <= 0 or num_ana <= 0:
        raise ValueError("need positive rank counts")
    mat = np.zeros((num_sim, num_ana), dtype=np.int64)
    for i in range(num_sim):
        mat[i, i * num_ana // num_sim] = bytes_per_rank
    return mat


# ---------------------------------------------------------------------------
# The algorithms
# ---------------------------------------------------------------------------

class PlacementAlgorithm:
    """Base: resource allocation defaults to holistic sync rate-matching."""

    name = "abstract"

    def allocate(
        self, machine: Machine, sim: SimProfile, ana: AnalyticsProfile,
        asynchronous: bool = False,
    ) -> int:
        if asynchronous:
            ic = machine.interconnect
            bw = ic.params.peak_bw if ic is not None else 5e9
            return allocate_analytics_async(sim, ana, bw)
        return allocate_analytics_sync(sim, ana)

    def place(
        self,
        machine: Machine,
        sim: SimProfile,
        ana: AnalyticsProfile,
        comm_matrix: np.ndarray,
        num_ana: Optional[int] = None,
        asynchronous: bool = False,
    ) -> Placement:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------
    @staticmethod
    def _split_mapping(
        mapping: dict[int, list[int]], num_sim: int
    ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        sim_map = {v: cores for v, cores in mapping.items() if v < num_sim}
        ana_map = {v - num_sim: cores for v, cores in mapping.items() if v >= num_sim}
        return sim_map, ana_map


class DataAwareMapping(PlacementAlgorithm):
    """Binding from the inter-program matrix alone (Section III.B.1)."""

    name = "data-aware"

    def place(self, machine, sim, ana, comm_matrix, num_ana=None, asynchronous=False):
        if num_ana is None:
            num_ana = self.allocate(machine, sim, ana, asynchronous)
        # The objective sees only sim↔analytics traffic.
        graph = build_graph(sim, num_ana, ana, comm_matrix, include_intraprogram=False)
        cpn = machine.node_type.cores_per_node
        total_slots = graph.total_vertex_weight()
        k = ceil_div(total_slots, cpn)
        if k > machine.num_nodes:
            raise ValueError(f"workload needs {k} nodes, machine has {machine.num_nodes}")
        parts = partition_graph(graph, [cpn] * k)
        mapping: dict[int, list[int]] = {}
        for node_id, part in enumerate(parts):
            base = node_id * cpn
            pos = 0
            for v in part:
                w = graph.vertex_weights[v]
                mapping[v] = list(range(base + pos, base + pos + w))
                pos += w
        # Report cost against the *full* graph so algorithms compare fairly.
        full = build_graph(sim, num_ana, ana, comm_matrix, include_intraprogram=True)
        cost = mapping_cost(full, mapping, machine)
        sim_map, ana_map = self._split_mapping(mapping, sim.num_ranks)
        return Placement(self.name, machine, sim_map, ana_map, full, cost)


class HolisticPlacement(PlacementAlgorithm):
    """Allocation + binding on the full graph, two-level machine tree."""

    name = "holistic"
    include_numa = False

    def place(self, machine, sim, ana, comm_matrix, num_ana=None, asynchronous=False):
        if num_ana is None:
            num_ana = self.allocate(machine, sim, ana, asynchronous)
        graph = build_graph(sim, num_ana, ana, comm_matrix, include_intraprogram=True)
        cpn = machine.node_type.cores_per_node
        sim_slots = sim.num_ranks * sim.threads_per_rank
        ana_slots = num_ana * ana.threads_per_rank
        candidates: list[tuple[tuple, dict]] = []

        # Candidate 1: packed — one joint mapping over the minimal node set
        # (analytics free to co-locate with their feeders: helper cores).
        packed_nodes = list(range(ceil_div(sim_slots + ana_slots, cpn)))
        if len(packed_nodes) <= machine.num_nodes:
            tree = machine.arch_tree(nodes=packed_nodes, include_numa=self.include_numa)
            mapping = map_to_tree(graph, tree)
            candidates.append(
                ((mapping_cost(graph, mapping, machine), len(packed_nodes)), mapping)
            )

        # Candidate 2: separated — the simulation keeps dedicated nodes and
        # the analytics go to staging nodes; each program mapped on its own
        # subtree (resource allocation granting extra nodes).
        sim_nodes = ceil_div(sim_slots, cpn)
        ana_nodes = max(1, ceil_div(ana_slots, cpn))
        if num_ana > 0 and sim_nodes + ana_nodes <= machine.num_nodes:
            sim_tree = machine.arch_tree(
                nodes=list(range(sim_nodes)), include_numa=self.include_numa
            )
            ana_tree = machine.arch_tree(
                nodes=list(range(sim_nodes, sim_nodes + ana_nodes)),
                include_numa=self.include_numa,
            )
            try:
                mapping = map_to_tree(graph, sim_tree, vertices=graph.sim_vertices())
                mapping.update(
                    map_to_tree(graph, ana_tree, vertices=graph.ana_vertices())
                )
            except (MappingError, ValueError):
                # Thread groups may not pack into the reduced node count
                # (NUMA fragmentation); only the packed layout is feasible.
                pass
            else:
                candidates.append(
                    (
                        (mapping_cost(graph, mapping, machine), sim_nodes + ana_nodes),
                        mapping,
                    )
                )

        if not candidates:
            raise ValueError(
                f"workload needs more nodes than machine {machine.name!r} has"
            )
        # Lowest communication cost; tie-break toward fewer nodes.
        candidates.sort(key=lambda c: c[0])
        best = candidates[0]
        mapping = best[1]
        sim_map, ana_map = self._split_mapping(mapping, sim.num_ranks)
        return Placement(
            self.name, machine, sim_map, ana_map, graph, best[0][0]
        )


class NodeTopologyAwarePlacement(HolisticPlacement):
    """Holistic with the machine modeled down to NUMA domains; also the
    policy that pins FlexIO's shm buffers in the simulation's domain."""

    name = "topology-aware"
    include_numa = True
