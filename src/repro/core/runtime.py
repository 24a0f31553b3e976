"""FlexIO runtime: transport auto-selection and NUMA buffer policy.

"Intra- vs inter-node transports are automatically configured according to
the placements of communicating simulation and online analytics processes"
(paper Section II.B).  The runtime holds the process→core binding and
answers, for every communicating pair, which transport applies and what a
transfer costs — including the NUMA placement of FlexIO's internal queues
and buffer pools (Section III.B.3): by default they live in the
*simulation's* local NUMA domain, favouring the producer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.transport.shm import ShmCostModel

if TYPE_CHECKING:  # the caller builds the machine; this module only reads it
    from repro.machine.topology import Machine


class TransportKind(Enum):
    """Which low-level transport a pair of processes uses."""

    INLINE = "inline"      # same process: a function call
    SHM = "shm"            # same node: shared-memory queues
    RDMA = "rdma"          # different nodes: NNTI/RDMA
    FILE = "file"          # offline: through the parallel file system


class NumaBufferPolicy(Enum):
    """Where the shm queues/pools live relative to the communicating pair."""

    WRITER_LOCAL = "writer-local"   # paper default: favour the simulation
    READER_LOCAL = "reader-local"
    INTERLEAVED = "interleaved"


@dataclass
class FlexIORuntime:
    """Per-job runtime context: machine + bindings + buffer policy."""

    machine: Machine
    numa_policy: NumaBufferPolicy = NumaBufferPolicy.WRITER_LOCAL

    def __post_init__(self) -> None:
        self._shm = ShmCostModel(self.machine.node_type)

    # ------------------------------------------------------------------
    def select_transport(
        self, writer_core: Optional[int], reader_core: Optional[int]
    ) -> TransportKind:
        """Choose the transport for one communicating pair.

        ``None`` for the reader core means the analytics run offline.
        """
        if reader_core is None:
            return TransportKind.FILE
        if writer_core is None:
            raise ValueError("writer must always be placed")
        if writer_core == reader_core:
            return TransportKind.INLINE
        if self.machine.same_node(writer_core, reader_core):
            return TransportKind.SHM
        return TransportKind.RDMA

    # ------------------------------------------------------------------
    def _shm_cross_numa(self, writer_core: int, reader_core: int) -> tuple[bool, bool]:
        """(writer_pays_cross_numa, reader_pays_cross_numa) for the queues.

        The queue sits in one NUMA domain; whichever side is remote to it
        pays the remote-access penalty on its copy.
        """
        same = self.machine.same_numa(writer_core, reader_core)
        if same:
            return (False, False)
        if self.numa_policy is NumaBufferPolicy.WRITER_LOCAL:
            return (False, True)
        if self.numa_policy is NumaBufferPolicy.READER_LOCAL:
            return (True, False)
        return (True, True)  # interleaved: both pay a blended penalty

    def transfer_time(
        self,
        nbytes: int,
        writer_core: int,
        reader_core: Optional[int],
        asynchronous: bool = False,
        concurrent_flows: int = 1,
        xpmem: bool = False,
    ) -> float:
        """Price one transfer between two placed processes.

        For async transfers this is the *total* movement time (the caller
        decides how much overlaps computation); file transport prices a
        write of ``nbytes`` by one client.
        """
        kind = self.select_transport(writer_core, reader_core)
        if kind is TransportKind.INLINE:
            return 0.0
        if kind is TransportKind.SHM:
            w_cross, r_cross = self._shm_cross_numa(writer_core, reader_core)  # type: ignore[arg-type]
            # Producer copy into the queue + consumer copy out; each side's
            # copy speed depends on its NUMA distance to the buffer.
            t = self._shm.small_msg_time(w_cross or r_cross)
            if xpmem:
                t += 1.5e-6 + nbytes / self._shm.copy_bw(r_cross)
            else:
                t += nbytes / self._shm.copy_bw(w_cross) + nbytes / self._shm.copy_bw(r_cross)
            return t
        if kind is TransportKind.RDMA:
            ic = self.machine.interconnect
            if ic is None:
                raise RuntimeError("machine has no interconnect model")
            return ic.params.control_msg_time + ic.bulk_transfer_time(
                nbytes, concurrent_flows
            )
        fs = self.machine.filesystem
        if fs is None:
            raise RuntimeError("machine has no filesystem model")
        return fs.write_time(nbytes, num_clients=1)

    # ------------------------------------------------------------------
    def writer_visible_transfer_time(
        self,
        nbytes: int,
        writer_core: int,
        reader_core: Optional[int],
        asynchronous: bool,
        concurrent_flows: int = 1,
    ) -> float:
        """What the *writer* blocks for.

        Async sends cost the writer only the copy into FlexIO's send
        buffer; the wire/second-copy time overlaps its computation.
        """
        if not asynchronous:
            return self.transfer_time(
                nbytes, writer_core, reader_core, concurrent_flows=concurrent_flows
            )
        kind = self.select_transport(writer_core, reader_core)
        if kind is TransportKind.INLINE:
            return 0.0
        if kind is TransportKind.SHM:
            w_cross, _ = self._shm_cross_numa(writer_core, reader_core)  # type: ignore[arg-type]
            return nbytes / self._shm.copy_bw(w_cross)
        if kind is TransportKind.RDMA:
            # Copy into the registered send buffer; the Get happens later.
            return nbytes / self.machine.node_type.mem_bw_local
        # File writes are handed to the I/O layer synchronously here.
        return self.transfer_time(nbytes, writer_core, reader_core)
