"""Table-like numbers from Section IV's prose: CPU hours, movement
volumes, gaps to the lower bound, and the S3D data-movement tuning.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adios.selection import block_decompose, choose_grid
from repro.core.redistribution import CachingOption, RedistributionEngine
from repro.coupled import (
    CoupledOptions,
    evaluate_gts_placements,
    evaluate_s3d_placements,
)
from repro.coupled.scenarios import gts_ranks_for_cores
from repro.machine import smoky, titan
from repro.machine.interconnect import Interconnect
from repro.util import MiB

#: Host-side processing charged per handshake control message at the
#: coordinators (gather/scatter bookkeeping) — calibrated so the untuned
#: S3D movement time at 1 K cores lands near the paper's 1.2 s (Titan)
#: and 4.0 s (Smoky).
COORDINATOR_MSG_OVERHEAD = {"gemini": 25e-6, "infiniband-ddr": 85e-6}


def _machine(name: str):
    return smoky(80) if name == "smoky" else titan(200)


# ---------------------------------------------------------------------------
# GTS cost metrics (Section IV.A prose)
# ---------------------------------------------------------------------------

def gts_cost_metrics(
    machine_name: str = "smoky",
    gts_cores: int = 512,
    num_steps: int = 20,
    options: Optional[CoupledOptions] = None,
) -> list[dict]:
    """Rows per placement: TET, CPU hours, movement split, gap to LB."""
    machine = _machine(machine_name)
    ranks = gts_ranks_for_cores(machine, gts_cores)
    res = evaluate_gts_placements(machine, ranks, num_steps=num_steps, options=options)
    lb = res["lower-bound"].total_execution_time
    rows = []
    for name, r in res.items():
        m = r.metrics
        rows.append(
            {
                "placement": name,
                "tet_s": m.total_execution_time,
                "gap_to_lb": m.gap_to(lb) if name != "lower-bound" else 0.0,
                "nodes": m.num_nodes,
                "cpu_hours": m.total_cpu_hours,
                "inter_node_MB": m.inter_node_bytes / MiB,
                "intra_node_MB": m.intra_node_bytes / MiB,
                "ana_idle": r.analytics_idle_fraction,
                "sim_slowdown": sum(r.step.slowdowns.values()),
            }
        )
    return rows


def s3d_cost_metrics(
    machine_name: str = "titan",
    s3d_cores: int = 512,
    num_steps: int = 40,
    options: Optional[CoupledOptions] = None,
) -> list[dict]:
    machine = _machine(machine_name)
    res = evaluate_s3d_placements(machine, s3d_cores, num_steps=num_steps, options=options)
    lb = res["lower-bound"]
    rows = []
    for name, r in res.items():
        m = r.metrics
        rows.append(
            {
                "placement": name,
                "tet_s": m.total_execution_time,
                "gap_to_lb": m.gap_to(lb.total_execution_time) if name != "lower-bound" else 0.0,
                "nodes": m.num_nodes,
                "extra_resources": m.num_nodes / lb.metrics.num_nodes - 1.0,
                "cpu_hours": m.total_cpu_hours,
                "inter_node_MB": m.inter_node_bytes / MiB,
                "file_MB": m.file_bytes / MiB,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# S3D data-movement tuning (Section IV.B.1)
# ---------------------------------------------------------------------------

def _s3d_engine(
    num_writers: int, num_readers: int, caching: CachingOption, batching: bool
) -> RedistributionEngine:
    """The S3D global-array exchange: 3-D blocks to reader slabs."""
    # A modest logical grid carries the protocol structure; message counts
    # scale with writer/reader process counts which we model explicitly.
    gshape = (num_writers * 4, 64, 64)
    writers = block_decompose(gshape, (num_writers, 1, 1))
    readers = block_decompose(gshape, (num_readers, 1, 1))
    return RedistributionEngine(writers, readers, caching=caching, batching=batching)


def s3d_movement_tuning(
    machine_name: str = "titan",
    num_writers: int = 1024,
    num_readers: Optional[int] = None,
    num_variables: int = 22,
    bytes_per_writer: int = 1_700_000,
) -> list[dict]:
    """Untuned vs tuned per-step data-movement time at 1 K cores.

    Untuned: NO_CACHING, per-variable messages, synchronous writes — the
    simulation blocks for the whole handshake-dominated exchange.
    Tuned: CACHING_ALL + batching + asynchronous writes — the exchange
    overlaps computation; the movement time that remains observable is
    the receiver-directed transfer makespan (the paper's Titan
    1.2 s → 0.053 s and Smoky 4.0 s → 0.077 s).

    Reader counts default to the rate-matched allocations on each machine
    (Smoky's slower nodes need twice the viz processes), one per staging
    node.
    """
    machine = _machine(machine_name)
    ic: Interconnect = machine.interconnect  # type: ignore[assignment]
    if num_readers is None:
        num_readers = 16 if machine_name == "smoky" else 8
    overhead = COORDINATOR_MSG_OVERHEAD[ic.name]
    itemsize = 8

    def transfer_time(w: int, r: int, nbytes: int) -> float:
        return ic.params.control_msg_time + ic.bulk_transfer_time(nbytes)

    def control_time(nbytes: int) -> float:
        return overhead + ic.params.latency

    rows = []

    # -- untuned: synchronous, per-variable handshakes --------------------
    eng = _s3d_engine(num_writers, num_readers, CachingOption.NO_CACHING, batching=False)
    scale = bytes_per_writer / max(
        1, sum(p.nbytes(itemsize) for p in eng.plan.sends_of(0)) * num_variables
    )
    untuned = eng.writer_visible_time(
        itemsize=itemsize,
        num_variables=num_variables,
        transfer_time=lambda w, r, n: transfer_time(w, r, int(n * scale)),
        control_time=control_time,
        asynchronous=False,
        local_copy_bw=machine.node_type.mem_bw_local,
    )
    rows.append(
        {
            "configuration": "untuned (no caching, unbatched, sync)",
            "machine": machine_name,
            "movement_s": untuned,
            "handshake_msgs_per_step": eng.last_handshake.messages,
            "data_msgs_per_step": eng.data_message_count(num_variables),
        }
    )

    # -- tuned: cached, batched, asynchronous ------------------------------
    eng = _s3d_engine(num_writers, num_readers, CachingOption.CACHING_ALL, batching=True)
    eng.handshake(num_variables)  # warm-up step fills both sides' caches
    hs = eng.handshake(num_variables)
    from repro.transport.rdma import TransferRequest, TransferScheduler

    flows_per_reader = -(-num_writers // num_readers)
    sched = TransferScheduler(ic, max_concurrent=4, endpoint_bandwidth=ic.injection_bw)
    reqs = [TransferRequest(i, bytes_per_writer) for i in range(flows_per_reader)]
    tuned = sched.makespan(reqs)
    rows.append(
        {
            "configuration": "tuned (caching=ALL, batched, async)",
            "machine": machine_name,
            "movement_s": tuned,
            "handshake_msgs_per_step": hs.messages,
            "data_msgs_per_step": eng.data_message_count(num_variables),
        }
    )
    rows.append(
        {
            "configuration": "speedup (untuned / tuned)",
            "machine": machine_name,
            "movement_s": untuned / max(tuned, 1e-12),
            "handshake_msgs_per_step": 0,
            "data_msgs_per_step": 0,
        }
    )
    return rows
