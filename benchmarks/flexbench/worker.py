"""One workload in one fresh interpreter.

``run.py`` starts this once per measurement (and a few more times with
``--seconds 0`` to sample set-up time), so ``setup_s`` and
``peak_rss_mb`` belong to one workload.  Prints one JSON object as the
last line of stdout.
"""

from __future__ import annotations

import time

_IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Optional  # noqa: E402

import _paths  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    t0: Optional[float] = None,
    window_steps: Optional[int] = None,
    max_windows: Optional[int] = None,
    perturb: bool = False,
) -> dict:
    """Set the workload up, measure it for ``seconds`` and return the
    result.  ``t0`` is the ``perf_counter`` reading from just before this
    interpreter was started: set-up time is from there to the end of the
    imports, plus the workload's ``setup()``.  The harness's own
    ``prepare()`` (payloads, the oracle) is left out: 117 MB of fresh
    arrays took between 0.07 and 1.0 s to touch on the reference VM.
    ``perturb`` corrupts one expected array, to show that verification
    can fail."""
    from workloads import WORKLOADS

    imports_s = loadgen.clock() - (_IMPORTED_AT if t0 is None else t0)
    os.makedirs(_paths.OUT, exist_ok=True)
    trace_path = os.path.join(_paths.OUT, f"trace-{name}.jsonl")
    daemon_trace = os.path.join(_paths.OUT, f"trace-{name}.daemon.jsonl")
    tracer = None
    loop_kw = {}
    if trace:
        tracer = tracing.Tracer()
        layers.install(tracer)
        loop_kw = {
            "on_step": lambda s: setattr(tracer, "step", s),
            "keep_intervals": True,
        }
    wl = WORKLOADS[name](seed, window_steps, daemon_trace if trace else "")

    def daemon_cpu_s() -> float:
        return loadgen.proc_cpu_s(wl.daemon_pid) if wl.daemon_pid else 0.0

    try:
        wl.prepare()
        if perturb:
            wl.expected[0].flat[0] += 1.0
        setup_began = loadgen.clock()
        wl.setup()
        setup_s = imports_s + loadgen.clock() - setup_began
        counters0, steal0 = wl.counters(), loadgen.host_steal_s()
        daemon_cpu0, began = daemon_cpu_s(), loadgen.clock()
        windows, probes = wl.run(seconds, max_windows, **loop_kw)
        counters = wl.counters()
        measured_s = loadgen.clock() - began
        steal_s = loadgen.host_steal_s() - steal0
        daemon_cpu_grown_s = daemon_cpu_s() - daemon_cpu0
        daemon_rss_mb = loadgen.proc_hwm_mb(wl.daemon_pid) if wl.daemon_pid else 0.0
        peak_rss_mb = loadgen.proc_hwm_mb(os.getpid()) + daemon_rss_mb
    finally:
        wl.teardown()          # stops the daemon, which then writes its spans
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": name,
        "seed": seed,
        "loop": wl.loop,
        "window_steps": wl.window_steps,
        "warmup_steps": wl.WARMUP_STEPS,
        "step_bytes": wl.step_bytes,
        "windows": len(windows),
        "attempted": sum(w.steps for w in windows),
        "failed": sum(w.failed for w in windows),
        "errors": [w.error for w in windows if w.error][:3],
        # Share of the measured section the hypervisor gave this guest's
        # runnable vCPUs to someone else: how disturbed the run was.
        "host_steal_share": steal_s / measured_s if windows else 0.0,
        # As the clocks read; "metrics" is the same at the reference
        # machine's speed (stats.to_reference).
        "measured": {"setup_s": setup_s},
        "probes": probes,
        "machine_slowdown": stats.machine_slowdown(probes, loadgen.PROBE_REF),
    }
    # An open loop is not scaled: its generator sleeps between steps, the
    # probes find a core that has just idled (they read 1.0 to 1.3 on a
    # quiet machine) and say little about how fast the steps themselves ran.
    result["scaled_by"] = result["machine_slowdown"] if wl.loop == "closed" else 1.0
    if windows:
        result["measured"].update(stats.summarise(windows), peak_rss_mb=peak_rss_mb)
    result["metrics"] = stats.to_reference(result["measured"], result["scaled_by"])
    if not windows:
        return result
    result["metrics"]["mb_per_s"] = result["metrics"]["steps_per_s"] * wl.step_bytes / 1e6
    result["window_values"] = [stats.window_metrics(w) for w in windows]
    result["late_p95_ms"] = stats.percentile_or_none(
        [v for w in windows for v in w.late_ms], 95
    )
    if tracer is not None:
        tracer.dump(trace_path)
        spans = [s for w in windows for s in tracing.clip(tracer.spans, w.start, w.end)]
        daemon_spans = []
        if wl.daemon is not None:
            loaded = tracing.load(daemon_trace)
            daemon_spans = [
                s for w in windows for s in tracing.clip(loaded, w.start, w.end)
            ]
        grown = {k: counters.get(k, 0) - counters0.get(k, 0) for k in layers.COUNTERS}
        result["layers"] = layers.layer_metrics(
            spans, daemon_spans, grown, windows, threading.get_ident(),
            wl.loop == "closed",
            {"daemon_cpu_s": daemon_cpu_grown_s, "daemon_rss_mb": daemon_rss_mb,
             "machine_slowdown": result["machine_slowdown"], "probes": probes},
        )
        result["trace_files"] = [trace_path] + ([daemon_trace] if wl.daemon else [])
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None)
    args = ap.parse_args(argv)
    loadgen.pin_to_one_cpu()       # run.py already has; this is for a bare worker
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.t0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
