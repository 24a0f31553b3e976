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

from repro.core.hints import (
    HintSpec,
    HintValueError,
    StreamError,
    StreamHints,
    UnknownHintError,
    stream_params,
)
from repro.core.monitoring import MeasurementPoint, PerfMonitor, TraceRecord
from repro.core.plugins import (
    CodeletError,
    DCPlugin,
    PluginManager,
    PluginSide,
)
from repro.core.directory import CoordinatorInfo, DirectoryServer
from repro.core.redistribution import (
    CachingOption,
    CompiledPlan,
    HandshakeCost,
    PlanCache,
    RedistributionEngine,
    RedistributionPlan,
    global_plan_cache,
)
from repro.core.directory import DirectoryError
from repro.core.drain import StepState
from repro.core.stepstore import StreamStalled
from repro.core.stream import FlexpathMethod, stream_registry
from repro.core.runtime import (
    FlexIORuntime,
    NumaBufferPolicy,
    TransportKind,
    make_stream_channel,
)
from repro.core.resilience import (
    MovementFailed,
    RetryPolicy,
    TransactionAborted,
)
from repro.core.adaptive import AdaptivePolicy, DCPlacementController
from repro.core.api import FlexIO

__all__ = [
    "AdaptivePolicy",
    "CachingOption",
    "DCPlacementController",
    "MovementFailed",
    "RetryPolicy",
    "TransactionAborted",
    "CodeletError",
    "CompiledPlan",
    "CoordinatorInfo",
    "DCPlugin",
    "DirectoryServer",
    "FlexIO",
    "FlexIORuntime",
    "FlexpathMethod",
    "HandshakeCost",
    "HintSpec",
    "HintValueError",
    "MeasurementPoint",
    "NumaBufferPolicy",
    "PerfMonitor",
    "PlanCache",
    "PluginManager",
    "PluginSide",
    "global_plan_cache",
    "make_stream_channel",
    "RedistributionEngine",
    "RedistributionPlan",
    "DirectoryError",
    "StepState",
    "StreamError",
    "StreamHints",
    "StreamStalled",
    "TraceRecord",
    "TransportKind",
    "UnknownHintError",
    "stream_params",
    "stream_registry",
]
