"""FlexIO's low-level data-movement transports.

Three rungs behind one :class:`~repro.transport.buffers.Channel`
skeleton (its spans, counters and fault consult), mirroring Section
II.D/II.E of the paper, plus the fault model they share:

* :mod:`repro.transport.shm` — intra-node movement: FastForward-style
  single-producer single-consumer lock-free circular queues for small
  (control/handshake) messages, a shared-memory buffer pool with a free
  list for large payloads (two copies), and an XPMEM-like page-mapping
  path that eliminates the producer-side copy (one copy).  The queue and
  pool are *real* — they move actual bytes and are exercised across Python
  threads in the tests — and a calibrated cost model prices the same
  operations for the discrete-event runs.

* :mod:`repro.transport.tcp` — inter-process movement over a stream
  socket: length-prefixed frames, gathered by ``sendmsg`` and read by
  the same frame assembler the daemon's connections drive.

* :mod:`repro.transport.rdma` — inter-node movement: an NNTI-like
  portability layer (connect / register / put / get) above the machine's
  interconnect model, with the registration-cache buffer pool, a
  small-message queue pair, and receiver-directed scheduled RDMA Get for
  bulk data.

* :mod:`repro.transport.faults` — the typed fault taxonomy and the
  seeded injector every rung (and the daemon) consults before a send.
"""

from repro.transport.faults import (
    FaultKind,
    PeerDisconnected,
    RegistrationFailed,
    TornSend,
    TransportFault,
    TransportFaultInjector,
    TransportTimeout,
    injector_from_env,
    parse_fault_spec,
)
from repro.transport.shm import (
    QueueClosed,
    QueueEmpty,
    QueueFull,
    ShmBufferPool,
    ShmChannel,
    ShmCostModel,
    SPSCQueue,
)
from repro.transport.rdma import (
    NntiEndpoint,
    NntiFabric,
    RdmaChannel,
    RegistrationCache,
    TransferScheduler,
)

__all__ = [
    "FaultKind",
    "NntiEndpoint",
    "NntiFabric",
    "PeerDisconnected",
    "QueueClosed",
    "QueueEmpty",
    "QueueFull",
    "RdmaChannel",
    "RegistrationCache",
    "RegistrationFailed",
    "ShmBufferPool",
    "ShmChannel",
    "ShmCostModel",
    "SPSCQueue",
    "TornSend",
    "TransferScheduler",
    "TransportFault",
    "TransportFaultInjector",
    "TransportTimeout",
    "injector_from_env",
    "parse_fault_spec",
]
