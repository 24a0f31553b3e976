"""The per-layer table: which public callables carry spans, and how the
spans and the program's public counters become the named metrics.

``*_ms_per_step`` is span self time / steps, summed over the generator
and the daemon process.  The prediction of which end-to-end metric each
row should move is in README.md.
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter
from typing import Optional, Sequence

import loadgen
import stats
import tracing

#: name -> (unit, better).  Names are final: later issues cite them.
PER_LAYER = {
    "marshal.encode_ms_per_step": ("ms", "lower"),
    "marshal.decode_ms_per_step": ("ms", "lower"),
    "marshal.format_id_calls_per_step": ("count", "lower"),
    "marshal.format_id_ms_per_step": ("ms", "lower"),
    "net.protocol.encode_ms_per_step": ("ms", "lower"),
    "net.protocol.decode_ms_per_step": ("ms", "lower"),
    "net.protocol.frames_per_step": ("count", "lower"),
    "transport.tcp.send_ms_per_step": ("ms", "lower"),
    "transport.tcp.recv_wait_ms_per_step": ("ms", "lower"),
    "transport.tcp.sendv_calls_per_step": ("count", "lower"),
    "transport.tcp.bytes_per_step": ("B", "lower"),
    "net.server.publish_ms_per_step": ("ms", "lower"),
    "net.server.fetch_ms_per_step": ("ms", "lower"),
    "net.server.prune_ms_per_step": ("ms", "lower"),
    "net.server.fetch_rpcs_per_step": ("count", "lower"),
    "net.server.fetch_hit_ratio": ("ratio", "higher"),
    "net.server.cpu_ms_per_step": ("ms", "lower"),
    "net.server.rss_mb": ("MB", "lower"),
    "net.client.end_step_ms_per_step": ("ms", "lower"),
    "net.client.begin_step_ms_per_step": ("ms", "lower"),
    "net.client.read_ms_per_step": ("ms", "lower"),
    "net.client.fetch_rpcs_per_step": ("count", "lower"),
    "net.client.retries": ("count", "lower"),
    "adios.assemble_ms_per_step": ("ms", "lower"),
    "core.stream.end_step_ms_per_step": ("ms", "lower"),
    "core.stream.begin_step_wait_ms_per_step": ("ms", "lower"),
    "core.stream.read_ms_per_step": ("ms", "lower"),
    "core.stream.backpressure_waits": ("count", "lower"),
    "core.stream.steps_lost": ("count", "lower"),
    "transport.shm.sendv_ms_per_step": ("ms", "lower"),
    "transport.shm.recv_ms_per_step": ("ms", "lower"),
    "transport.shm.copies_per_step": ("count", "lower"),
    "transport.shm.bytes_per_step": ("B", "lower"),
    "core.redistribution.plan_get_ms_per_step": ("ms", "lower"),
    "core.redistribution.plan_hit_ratio": ("ratio", "higher"),
    "core.redistribution.execute_ms_per_step": ("ms", "lower"),
    "core.plugins.kernel_ms_per_step": ("ms", "lower"),
    "core.plugins.rows_in_per_step": ("count", "lower"),
    "core.plugins.rows_out_per_step": ("count", "lower"),
    "core.plugins.fused_read_ratio": ("ratio", "higher"),
    "core.plugins.blocks_skipped_per_step": ("count", "higher"),
    "loadgen.late_p95_ms": ("ms", "lower"),
    "loadgen.reader_lag_max_steps": ("steps", "lower"),
    "loadgen.verify_ms_per_step": ("ms", "lower"),
    "loadgen.step_latency_p95_ms": ("ms", "lower"),
    "loadgen.step_latency_p99_ms": ("ms", "lower"),
    "loadgen.writer_visible_p50_ms": ("ms", "lower"),
    "loadgen.trace_overhead_ratio": ("ratio", "higher"),
    "loadgen.calib_memcpy_gb_per_s": ("GB/s", "higher"),
    "loadgen.calib_pyloop_ms": ("ms", "lower"),
    "loadgen.machine_slowdown": ("ratio", "lower"),
    "loadgen.unattributed_ms_per_step": ("ms", "lower"),
}

#: Counters a workload reads off the program's public state; the worker
#: reports their growth over the measured section.
COUNTERS = (
    "backpressure_waits", "steps_lost", "shm_copies", "shm_bytes",
    "plan_hits", "plan_lookups", "fused_reads", "interpreted_reads",
    "blocks_skipped", "tcp_bytes_sent", "net_retries",
)


def _rows(result, args):
    rows_in = int(args[1].shape[0])
    return rows_in, rows_in if result is None else int(result.shape[0])


def install(tracer: tracing.Tracer) -> None:
    """Patch the span wrappers on.  Imports every module first so the
    ``from ... import`` aliases exist to be found."""
    from repro.adios import selection
    from repro.core import plugins, redistribution, stream
    from repro.marshal import codec
    from repro.marshal.format import Format
    from repro.net import client, protocol, server
    from repro.transport import shm, tcp

    fn, meth = tracer.patch_function, tracer.patch_method
    for attr in ("encode_message", "encode_into", "encoded_size"):
        fn("marshal.encode", codec, attr)
    for attr in ("decode_message", "decode_view"):
        fn("marshal.decode", codec, attr)
    meth("marshal.format_id", Format, "format_id")
    fn("net.protocol.encode", protocol, "encode_frame",
       note=lambda _res, args: args[0].name)
    fn("net.protocol.encode", protocol, "encode_var")
    fn("net.protocol.decode", protocol, "decode_frame")
    fn("net.protocol.decode", protocol, "decode_var")
    meth("transport.tcp.send", tcp.TcpChannel, "send")
    meth("transport.tcp.send", tcp.TcpChannel, "sendv")
    meth("transport.tcp.recv_wait", tcp.TcpChannel, "recv",
         note=lambda res, _args: 0 if res is None else int(res.nbytes))
    meth("net.server.publish", server.HostedStream, "publish",
         step_of=lambda args: int(args[1]))
    meth("net.server.fetch", server.HostedStream, "fetch",
         note=lambda res, _args: res is not None,
         step_of=lambda args: int(args[1]))
    fn("net.server.prune", server, "prune_step_payload")
    meth("net.client.end_step", client.NetWriteHandle, "end_step")
    meth("net.client.begin_step", client.NetReadHandle, "begin_step")
    meth("net.client.read", client.NetReadHandle, "read")
    meth("net.client.read", client.NetReadHandle, "read_block")
    fn("adios.assemble", selection, "assemble")
    meth("core.stream.end_step", stream.FlexpathWriteHandle, "end_step")
    meth("core.stream.begin_step_wait", stream.FlexpathReadHandle, "begin_step")
    meth("core.stream.read", stream.FlexpathReadHandle, "read")
    meth("transport.shm.sendv", shm.ShmChannel, "send")
    meth("transport.shm.sendv", shm.ShmChannel, "sendv")
    meth("transport.shm.recv", shm.ShmChannel, "recv")
    meth("core.redistribution.plan_get", redistribution.PlanCache, "get")
    for cls in (redistribution.CompiledPlan, redistribution.FusedPlan):
        meth("core.redistribution.execute", cls, "execute")
        meth("core.redistribution.execute", cls, "execute_into")
    meth("core.plugins.kernel", plugins._ChainCursor, "apply_block", note=_rows)
    meth("core.plugins.kernel", plugins._ChainCursor, "apply_block_into", note=_rows)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def attributed_s(gen: Sequence[tracing.Span], tid: int,
                 intervals: Sequence[tuple[float, float]]) -> float:
    """Total duration of the generator thread's outermost spans that lie
    inside a step's latency interval — waits included, the drainer
    thread and the daemon are not added in."""
    ids = {s.id for s in gen}
    starts = [a for a, _ in intervals]
    total = 0.0
    for s in gen:
        if s.tid != tid or s.parent in ids:
            continue
        i = bisect.bisect_right(starts, s.start) - 1
        if i >= 0 and s.end <= intervals[i][1]:
            total += s.end - s.start
    return total


def layer_metrics(
    gen: Sequence[tracing.Span],
    daemon: Sequence[tracing.Span],
    counters: dict[str, float],
    windows: Sequence[stats.Window],
    gen_tid: int,
    closed_loop: bool,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, as the clocks read (only the
    end-to-end figures are scaled to the reference machine); one a
    workload cannot exercise reads 0.  ``extras`` carries what only the
    worker or the orchestrator can know (daemon /proc figures, machine
    probes, overhead ratio)."""
    steps = sum(w.steps for w in windows)
    own = Counter(tracing.self_time_by_name(gen))
    own.update(tracing.self_time_by_name(daemon))
    calls = Counter(s.name for s in gen)
    calls.update(s.name for s in daemon)

    def ms(name: str) -> float:
        return own[name] * 1e3 / steps

    fetches = [s for s in daemon if s.name == "net.server.fetch"]
    kernels = [s.note for s in gen if s.name == "core.plugins.kernel"]
    end_to_end = stats.summarise(windows)
    latency = [v for w in windows for v in w.latency_ms]
    late = [v for w in windows for v in w.late_ms]
    intervals = [iv for w in windows for iv in w.intervals]
    probes = extras.get("probes") or [{"pyloop_s": 0.0, "memcpy_s": 0.0}]
    probe_bytes = loadgen.PROBE_COPIES * loadgen.PROBE_ARRAY_BYTES
    if closed_loop and intervals:
        unattributed = (
            sum(b - a for a, b in intervals) - attributed_s(gen, gen_tid, intervals)
        ) * 1e3 / len(intervals)
    else:
        unattributed = 0.0
    out = {
        "marshal.encode_ms_per_step": ms("marshal.encode"),
        "marshal.decode_ms_per_step": ms("marshal.decode"),
        "marshal.format_id_calls_per_step": calls["marshal.format_id"] / steps,
        "marshal.format_id_ms_per_step": ms("marshal.format_id"),
        "net.protocol.encode_ms_per_step": ms("net.protocol.encode"),
        "net.protocol.decode_ms_per_step": ms("net.protocol.decode"),
        "net.protocol.frames_per_step": sum(
            1 for s in (*gen, *daemon)
            if s.name == "net.protocol.encode" and s.note is not None
        ) / steps,
        "transport.tcp.send_ms_per_step": ms("transport.tcp.send"),
        "transport.tcp.recv_wait_ms_per_step": ms("transport.tcp.recv_wait"),
        "transport.tcp.sendv_calls_per_step": calls["transport.tcp.send"] / steps,
        "transport.tcp.bytes_per_step": (
            counters["tcp_bytes_sent"]
            + sum(s.note or 0 for s in gen if s.name == "transport.tcp.recv_wait")
        ) / steps,
        "net.server.publish_ms_per_step": ms("net.server.publish"),
        "net.server.fetch_ms_per_step": ms("net.server.fetch"),
        "net.server.prune_ms_per_step": ms("net.server.prune"),
        "net.server.fetch_rpcs_per_step": len(fetches) / steps,
        "net.server.fetch_hit_ratio": _ratio(
            sum(1 for s in fetches if s.note), len(fetches)
        ),
        "net.server.cpu_ms_per_step": extras.get("daemon_cpu_s", 0.0) * 1e3 / steps,
        "net.server.rss_mb": extras.get("daemon_rss_mb", 0.0),
        "net.client.end_step_ms_per_step": ms("net.client.end_step"),
        "net.client.begin_step_ms_per_step": ms("net.client.begin_step"),
        "net.client.read_ms_per_step": ms("net.client.read"),
        "net.client.fetch_rpcs_per_step": sum(
            1 for s in gen if s.name == "net.protocol.encode" and s.note == "FETCH"
        ) / steps,
        "net.client.retries": counters["net_retries"],
        "adios.assemble_ms_per_step": ms("adios.assemble"),
        "core.stream.end_step_ms_per_step": ms("core.stream.end_step"),
        "core.stream.begin_step_wait_ms_per_step": ms("core.stream.begin_step_wait"),
        "core.stream.read_ms_per_step": ms("core.stream.read"),
        "core.stream.backpressure_waits": counters["backpressure_waits"],
        "core.stream.steps_lost": counters["steps_lost"],
        "transport.shm.sendv_ms_per_step": ms("transport.shm.sendv"),
        "transport.shm.recv_ms_per_step": ms("transport.shm.recv"),
        "transport.shm.copies_per_step": counters["shm_copies"] / steps,
        "transport.shm.bytes_per_step": counters["shm_bytes"] / steps,
        "core.redistribution.plan_get_ms_per_step": ms("core.redistribution.plan_get"),
        "core.redistribution.plan_hit_ratio": _ratio(
            counters["plan_hits"], counters["plan_lookups"]
        ),
        "core.redistribution.execute_ms_per_step": ms("core.redistribution.execute"),
        "core.plugins.kernel_ms_per_step": ms("core.plugins.kernel"),
        "core.plugins.rows_in_per_step": sum(n[0] for n in kernels) / steps,
        "core.plugins.rows_out_per_step": sum(n[1] for n in kernels) / steps,
        "core.plugins.fused_read_ratio": _ratio(
            counters["fused_reads"],
            counters["fused_reads"] + counters["interpreted_reads"],
        ),
        "core.plugins.blocks_skipped_per_step": counters["blocks_skipped"] / steps,
        "loadgen.late_p95_ms": stats.percentile_or_none(late, 95) or 0.0,
        "loadgen.reader_lag_max_steps": max(w.lag_steps for w in windows),
        "loadgen.verify_ms_per_step": sum(w.verify_s for w in windows) * 1e3 / steps,
        "loadgen.step_latency_p95_ms": end_to_end["step_latency_p95_ms"] or 0.0,
        "loadgen.step_latency_p99_ms": stats.percentile_or_none(latency, 99) or 0.0,
        "loadgen.writer_visible_p50_ms": end_to_end["writer_visible_p50_ms"] or 0.0,
        "loadgen.trace_overhead_ratio": extras.get("trace_overhead_ratio", 0.0),
        "loadgen.calib_memcpy_gb_per_s": _ratio(
            probe_bytes / 1e9, statistics.median(p["memcpy_s"] for p in probes)
        ),
        "loadgen.calib_pyloop_ms": statistics.median(p["pyloop_s"] for p in probes) * 1e3,
        "loadgen.machine_slowdown": extras.get("machine_slowdown", 0.0),
        "loadgen.unattributed_ms_per_step": unattributed,
    }
    return out


def dominated_where_expected(name: str, m: dict[str, float],
                             step_ms: Optional[float]) -> list[str]:
    """The acceptance checks on which layer carries each workload;
    returns the ones that do not hold (empty = all hold)."""
    broken = []
    net_ms = sum(
        v for k, v in m.items()
        if k.endswith("_ms_per_step")
        and k.startswith(("net.", "marshal.", "transport.tcp."))
    )
    if name.startswith("inproc_") and step_ms and net_ms > 0.02 * step_ms:
        broken.append(f"net+marshal+tcp self time {net_ms:.3f} ms >= 2% of step")
    if name == "net_tail_small" and m["net.server.fetch_rpcs_per_step"] <= 1.5:
        broken.append("net.server.fetch_rpcs_per_step <= 1.5 (poll path not loaded)")
    if name == "net_lockstep_bulk" and m["net.server.fetch_rpcs_per_step"] > 1.05:
        broken.append("net.server.fetch_rpcs_per_step > 1.05 (reader waited)")
    if name != "inproc_fused" and m["core.plugins.kernel_ms_per_step"] != 0:
        broken.append("core.plugins.kernel_ms_per_step != 0")
    return broken
