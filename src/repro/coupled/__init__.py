"""End-to-end coupled-run simulation (paper Section IV).

Given a machine model, a workload (simulation + analytics profiles, cache
behaviour, step counts), and a placement (inline, helper-core, staging,
offline, or a :class:`~repro.placement.algorithms.Placement` computed by
one of the three algorithms), :func:`simulate_coupled` runs the coupled
pipeline on the discrete-event kernel and reports the paper's metrics:

* Total Execution Time with a per-phase breakdown (Figure 7's
  cycle/I-O/analysis/idle bars);
* Total CPU Hours;
* Data Movement Volume split intra-node / inter-node / file;
* cache-interference report (Figure 8's miss-rate inflation);
* the simulation slowdown decomposition (threads taken, cache contention,
  NUMA-split threads, asynchronous-movement network interference).

:mod:`repro.coupled.scenarios` packages the two evaluation workloads (GTS
and S3D_Box on Smoky and Titan) and sweeps every placement for the
benchmark harness.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "fallback": "FallbackDecision simulate_with_fallback",
    "model": "CoupledOptions CoupledResult CoupledWorkload PlacementStyle "
             "StepTimes",
    "scenarios": "GTS_ANALYTICS_CACHE GTS_CACHE S3D_CACHE S3D_VIZ_CACHE "
                 "evaluate_gts_placements evaluate_pixie3d_placements "
                 "evaluate_s3d_placements gts_workload pixie3d_workload "
                 "s3d_workload",
    "simulate": "simulate_coupled",
})
