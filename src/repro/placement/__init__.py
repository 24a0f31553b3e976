"""Placement machinery (paper Section III).

FlexIO makes analytics placement a tunable: these modules implement the
metrics and the three heuristic placement algorithms the paper evaluates.

* :mod:`repro.placement.metrics` — Total Execution Time, Total CPU Hours,
  Data Movement Volume (Section III.A);
* :mod:`repro.placement.commgraph` — weighted communication graphs over
  simulation + analytics processes: inter-program edges from the MxN plan,
  intra-program edges from the applications' halo/collective patterns;
* :mod:`repro.placement.partition` — balanced graph partitioning by
  recursive bisection with Kernighan–Lin/FM refinement (our stand-in for
  the graph partitioner behind data-aware mapping);
* :mod:`repro.placement.graphmap` — Scotch-like dual recursive
  bipartitioning that maps a communication graph onto the machine's
  architecture tree (2-level for holistic, cache/NUMA-deep for
  node-topology-aware placement);
* :mod:`repro.placement.algorithms` — the three placement policies:
  data-aware mapping, holistic placement (resource allocation + binding,
  sync and async variants), and node-topology-aware placement.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "algorithms": "AnalyticsProfile DataAwareMapping HolisticPlacement "
                  "NodeTopologyAwarePlacement Placement PlacementAlgorithm "
                  "SimProfile allocate_analytics_async allocate_analytics_sync",
    "commgraph": "CommGraph grid_edges ring_edges",
    "graphmap": "map_to_tree mapping_cost",
    "metrics": "RunMetrics cpu_hours",
    "partition": "bisect_graph partition_graph",
})
