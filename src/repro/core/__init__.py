"""The FlexIO middleware core (paper Section II).

This package is the paper's primary contribution, layered on the
substrates below it:

* :mod:`repro.core.monitoring` — runtime performance monitoring with
  measurement points at every stack level, trace dump, and online
  aggregation (Section II.G);
* :mod:`repro.core.plugins` — Data Conditioning plug-ins: stateless
  mobile codelets compiled from source at runtime, installable in the
  writer's or reader's address space and migratable between them
  (Section II.F);
* :mod:`repro.core.directory` — the directory server + per-program
  coordinators used for stream discovery and connection setup
  (Section II.C.1);
* :mod:`repro.core.redistribution` — MxN global-array redistribution:
  overlap mapping, the 4-step handshake with NO_CACHING /
  CACHING_LOCAL / CACHING_ALL options, variable batching, and sync vs
  async writes (Sections II.B–II.C);
* :mod:`repro.core.stream` — the FLEXPATH stream I/O method plugged into
  the ADIOS method registry: named streams, process-group and
  global-array read patterns, End-of-Stream semantics; behind it
  :mod:`repro.core.drain` (the pipelined drain of sealed steps) and
  :mod:`repro.core.reader` (the one read path, shared with the network
  plane and, through :mod:`repro.core.filereader`, the file methods);
* :mod:`repro.core.runtime` — transport auto-selection from placement
  (shm within a node, RDMA across nodes, files for offline) and NUMA
  buffer-placement policy;
* :mod:`repro.core.hints` — the central stream-hint registry: every
  ``<method>`` parameter declared once (key, type, default, choices),
  validated at config load and enforced statically by FlexLint FXL002,
  and :class:`StreamHints`, the registry read off one ``<method>`` line.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "adaptive": "AdaptivePolicy DCPlacementController",
    "api": "FlexIO",
    "directory": "CoordinatorInfo DirectoryError DirectoryServer",
    "drain": "StepState",
    "hints": "HintSpec HintValueError StreamError StreamHints UnknownHintError "
             "stream_params",
    "monitoring": "MeasurementPoint PerfMonitor TraceRecord",
    "plugins": "CodeletError DCPlugin PluginManager PluginSide",
    "redistribution": "CachingOption CompiledPlan HandshakeCost PlanCache "
                      "RedistributionEngine RedistributionPlan global_plan_cache",
    "resilience": "MovementFailed RetryPolicy TransactionAborted",
    "runtime": "FlexIORuntime NumaBufferPolicy TransportKind make_stream_channel",
    "stepstore": "StreamStalled",
    "stream": "FlexpathMethod stream_registry",
})
