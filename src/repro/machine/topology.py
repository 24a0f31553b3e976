"""Machine topology: nodes, NUMA domains, cores, and the architecture tree.

The placement algorithms (Section III of the paper) model the machine as a
tree: a flat two-level tree (machine → node → core) for *holistic*
placement, and a deeper tree reflecting cache/NUMA structure (machine →
node → NUMA domain → core) for *node-topology-aware* placement.  This module
builds those trees and answers "how expensive is communication between core
A and core B" queries for the mapping cost functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence

from repro.util import GiB, MiB


class TopologyLevel(Enum):
    """Levels of the architecture tree, outermost first."""

    MACHINE = 0
    NODE = 1
    NUMA = 2
    CORE = 3


@dataclass(frozen=True)
class NodeType:
    """Static description of one compute-node flavour.

    Parameters mirror what the paper reports for Titan and Smoky nodes.
    ``numa_domains`` is the number of NUMA domains per node; cores are split
    evenly among them and each domain has one shared last-level cache.
    """

    name: str
    cores_per_node: int
    numa_domains: int
    ghz: float
    l3_bytes_per_domain: int
    mem_bytes: int
    #: Sustained memory bandwidth per NUMA domain (bytes/s) for local access.
    mem_bw_local: float
    #: Remote (cross-domain) accesses run at this fraction of local bandwidth.
    numa_remote_factor: float = 0.6

    def __post_init__(self) -> None:
        if self.cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if self.numa_domains <= 0:
            raise ValueError("numa_domains must be positive")
        if self.cores_per_node % self.numa_domains != 0:
            raise ValueError(
                f"{self.cores_per_node} cores do not divide evenly into "
                f"{self.numa_domains} NUMA domains"
            )
        if not (0.0 < self.numa_remote_factor <= 1.0):
            raise ValueError("numa_remote_factor must be in (0, 1]")

    @property
    def cores_per_domain(self) -> int:
        return self.cores_per_node // self.numa_domains


@dataclass(frozen=True)
class Core:
    """One hardware core, identified globally and within its containers."""

    global_id: int
    node_id: int
    #: NUMA domain index *within the node* (0 .. numa_domains-1).
    numa_local: int
    #: Core index within its NUMA domain.
    core_local: int


@dataclass
class Node:
    """One compute node: an id plus its flavour."""

    node_id: int
    node_type: NodeType


@dataclass
class TreeNode:
    """A vertex of the architecture tree used by graph mapping.

    ``crossing_cost`` is the relative cost charged to a communication edge
    whose endpoints sit in *different* children of this vertex — the deeper
    in the tree two cores diverge, the cheaper their communication.
    """

    label: str
    level: TopologyLevel
    crossing_cost: float
    children: list["TreeNode"] = field(default_factory=list)
    #: Core global-ids contained in this subtree (leaves carry exactly one).
    cores: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_leaves(self) -> Iterator["TreeNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

    def total_slots(self) -> int:
        return len(self.cores)


# Default relative communication costs by divergence level.  Calibrated from
# the transports: same-L3 shm ≈ cache speed, cross-NUMA shm pays the remote
# factor, cross-node RDMA pays interconnect latency + bandwidth.
DEFAULT_LEVEL_COSTS = {
    TopologyLevel.MACHINE: 50.0,  # edge crosses nodes
    TopologyLevel.NODE: 3.0,      # edge crosses NUMA domains within a node
    TopologyLevel.NUMA: 1.0,      # edge crosses cores within one NUMA domain
    TopologyLevel.CORE: 0.0,      # same core (e.g. inline analytics)
}


class Machine:
    """A whole machine: homogeneous nodes + interconnect + file system.

    ``interconnect`` and ``filesystem`` are cost-model objects (see the
    sibling modules); they may be ``None`` for pure-topology uses such as
    unit-testing the placement algorithms.
    """

    def __init__(
        self,
        name: str,
        node_type: NodeType,
        num_nodes: int,
        interconnect: Optional[object] = None,
        filesystem: Optional[object] = None,
        cache_model: Optional[object] = None,
        level_costs: Optional[dict] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.name = name
        self.node_type = node_type
        self.num_nodes = int(num_nodes)
        self.interconnect = interconnect
        self.filesystem = filesystem
        self.cache_model = cache_model
        self.level_costs = dict(DEFAULT_LEVEL_COSTS)
        if level_costs:
            self.level_costs.update(level_costs)
        self.nodes = [Node(i, node_type) for i in range(self.num_nodes)]

    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.node_type.cores_per_node

    def core(self, global_id: int) -> Core:
        """Resolve a global core id into its (node, numa, local) coordinates."""
        if not (0 <= global_id < self.total_cores):
            raise IndexError(f"core {global_id} out of range [0, {self.total_cores})")
        cpn = self.node_type.cores_per_node
        cpd = self.node_type.cores_per_domain
        node_id, in_node = divmod(global_id, cpn)
        numa_local, core_local = divmod(in_node, cpd)
        return Core(global_id, node_id, numa_local, core_local)

    def cores(self) -> Iterator[Core]:
        for gid in range(self.total_cores):
            yield self.core(gid)

    def node_of(self, core_id: int) -> int:
        return core_id // self.node_type.cores_per_node

    def numa_of(self, core_id: int) -> tuple[int, int]:
        """(node_id, numa_local) for a global core id."""
        c = self.core(core_id)
        return (c.node_id, c.numa_local)

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def same_numa(self, a: int, b: int) -> bool:
        return self.numa_of(a) == self.numa_of(b)

    # ------------------------------------------------------------------
    def divergence_level(self, a: int, b: int) -> TopologyLevel:
        """The tree level at which the paths to cores ``a`` and ``b`` split."""
        if a == b:
            return TopologyLevel.CORE
        ca, cb = self.core(a), self.core(b)
        if ca.node_id != cb.node_id:
            return TopologyLevel.MACHINE
        if ca.numa_local != cb.numa_local:
            return TopologyLevel.NODE
        return TopologyLevel.NUMA

    def comm_cost(self, a: int, b: int) -> float:
        """Relative cost of moving a byte between cores ``a`` and ``b``."""
        return self.level_costs[self.divergence_level(a, b)]

    # ------------------------------------------------------------------
    def arch_tree(
        self,
        nodes: Optional[Sequence[int]] = None,
        include_numa: bool = True,
    ) -> TreeNode:
        """Build the architecture tree over ``nodes`` (default: all nodes).

        ``include_numa=False`` yields the flat two-level tree the paper's
        holistic placement uses; ``True`` adds the NUMA level used by
        node-topology-aware placement.
        """
        node_ids = list(nodes) if nodes is not None else list(range(self.num_nodes))
        for nid in node_ids:
            if not (0 <= nid < self.num_nodes):
                raise IndexError(f"node {nid} out of range")
        root = TreeNode(
            label=self.name,
            level=TopologyLevel.MACHINE,
            crossing_cost=self.level_costs[TopologyLevel.MACHINE],
        )
        nt = self.node_type
        for nid in node_ids:
            node_tree = TreeNode(
                label=f"node{nid}",
                level=TopologyLevel.NODE,
                crossing_cost=self.level_costs[TopologyLevel.NODE],
            )
            base = nid * nt.cores_per_node
            if include_numa:
                for d in range(nt.numa_domains):
                    dom = TreeNode(
                        label=f"node{nid}/numa{d}",
                        level=TopologyLevel.NUMA,
                        crossing_cost=self.level_costs[TopologyLevel.NUMA],
                    )
                    for c in range(nt.cores_per_domain):
                        gid = base + d * nt.cores_per_domain + c
                        leaf = TreeNode(
                            label=f"core{gid}",
                            level=TopologyLevel.CORE,
                            crossing_cost=0.0,
                            cores=[gid],
                        )
                        dom.children.append(leaf)
                        dom.cores.append(gid)
                    node_tree.children.append(dom)
                    node_tree.cores.extend(dom.cores)
            else:
                for c in range(nt.cores_per_node):
                    gid = base + c
                    leaf = TreeNode(
                        label=f"core{gid}",
                        level=TopologyLevel.CORE,
                        crossing_cost=0.0,
                        cores=[gid],
                    )
                    node_tree.children.append(leaf)
                    node_tree.cores.append(gid)
            root.children.append(node_tree)
            root.cores.extend(node_tree.cores)
        return root

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Machine {self.name}: {self.num_nodes} nodes x "
            f"{self.node_type.cores_per_node} cores "
            f"({self.node_type.numa_domains} NUMA domains)>"
        )
