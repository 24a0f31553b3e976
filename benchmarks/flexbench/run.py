"""flexbench: step delivery, end to end and layer by layer.

    python benchmarks/flexbench/run.py                      # all four workloads
    python benchmarks/flexbench/run.py --workload inproc_mxn --seed 3
    python benchmarks/flexbench/run.py --trace              # the per-layer table
    python benchmarks/flexbench/run.py --runs 5 --out a.json
    python benchmarks/flexbench/run.py --compare a.json b.json

Each workload runs in a fresh interpreter (``worker.py``), pinned to one
CPU, with machine probes between its windows.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics, or with ``--trace`` the
per-layer ones.  See README.md for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import _paths
import layers
import loadgen
import stats

#: Set-up is sampled this many times per run (fresh interpreter each);
#: ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: A run that lost more than loadgen.STEAL_LIMIT of its measured section
#: to the hypervisor, or whose open-loop generator ran later than this at
#: p95, is noisy: it is rerun once, after waiting up to QUIET_WAIT_S for
#: the host to calm down.
LATE_LIMIT_MS = 1.0
QUIET_WAIT_S = 10.0
#: Share of a traced run's seconds spent on the untraced reference that
#: ``loadgen.trace_overhead_ratio`` is taken against.
REFERENCE_SHARE = 1 / 3


def benchmark_spec() -> dict:
    with open(os.path.join(_paths.REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed: int, seconds: float) -> dict:
    """The stamp every result carries."""
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", _paths.REPO, *args], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or None,
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "seed": seed,
        "seconds": seconds,
    }


def spawn_worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh interpreter, on this process's CPU from its first
    instruction; raises if it fails or prints no result."""
    cmd = [
        sys.executable, os.path.join(_paths.HERE, "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--t0", repr(time.perf_counter()),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for {name} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker and say whether the run was disturbed."""
    result = spawn_worker(name, seed, seconds, trace)
    first, last = result["probes"][0], result["probes"][-1]
    # Largest relative change of either probe across the run.
    result["calib_drift"] = max(abs(last[k] - first[k]) / first[k] for k in first)
    late = result.get("late_p95_ms") or 0.0
    result["noisy"] = (
        result["host_steal_share"] > loadgen.STEAL_LIMIT or late > LATE_LIMIT_MS
    )
    return result


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: set-up samples, the measured run (rerun once if it
    was noisy, keeping the flag), and for a traced run the untraced
    reference its overhead ratio is taken against."""
    reference = None
    if trace:
        reference = spawn_worker(name, seed, seconds * REFERENCE_SHARE, False)
        seconds = seconds * (1 - REFERENCE_SHARE)
        setups = [reference["measured"]["setup_s"]]
    else:
        setups = [
            spawn_worker(name, seed, 0, False)["measured"]["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
    result = measure(name, seed, seconds, trace)
    if result["noisy"]:
        first = result
        waited_s = loadgen.wait_for_quiet(QUIET_WAIT_S)
        result = measure(name, seed, seconds, trace)
        result["rerun_of_noisy"] = {
            k: first[k] for k in ("metrics", "host_steal_share", "late_p95_ms")
        }
        result["waited_for_quiet_s"] = waited_s
    if not trace:
        setups.append(result["measured"]["setup_s"])
    result["setup_samples_s"] = setups
    result["measured"]["setup_s"] = statistics.median(setups)
    result["metrics"]["setup_s"] = statistics.median(setups) / result["scaled_by"]
    if trace:
        m = result["layers"]
        m["loadgen.trace_overhead_ratio"] = (
            result["metrics"]["steps_per_s"] / reference["metrics"]["steps_per_s"]
        )
        result["layer_checks_failed"] = layers.dominated_where_expected(
            name, m, result["measured"]["step_latency_p50_ms"]
        )
    result["env"] = environment(seed, seconds)
    return result


# -- output ------------------------------------------------------------------

def fmt(value) -> str:
    return "null" if value is None else f"{value:.4g}"


def print_tables(results: list[dict], trace: bool) -> None:
    """The end-to-end table of an untraced run, or the per-layer table of
    a traced one (whose own end-to-end figures carry the tracing cost and
    are not shown)."""
    names = [r["workload"] for r in results]
    width = max(len(n) for n in names) + 2
    if trace:
        rows = {m: f"{m} [{unit}]" for m, (unit, _) in layers.PER_LAYER.items()}
        source, title = "layers", "per-layer (traced run)"
    else:
        rows = {m: f"{m} [{unit}]" for m, (unit, _) in stats.END_TO_END.items()}
        rows["mb_per_s"] = "mb_per_s [MB/s]"
        source, title = "metrics", "end-to-end"
    print(f"{title:42s}" + "".join(f"{n:>{width}s}" for n in names))
    for metric, label in rows.items():
        print(f"{label:42s}" + "".join(
            f"{fmt(r[source].get(metric)):>{width}s}" for r in results
        ))
    for r in results:
        flags = []
        if r["noisy"]:
            flags.append("NOISY")
        if "rerun_of_noisy" in r:
            flags.append("rerun of a noisy first attempt")
        flags += r.get("layer_checks_failed", [])
        flags += [e.strip().splitlines()[-1] for e in r["errors"]]
        print(f"  {r['workload']}: {r['windows']} windows x {r['window_steps']} "
              f"steps, scaled by {r['scaled_by']:.2f} "
              f"(probes read {r['machine_slowdown']:.2f}, drift {r['calib_drift']:.1%}), "
              f"host steal {r['host_steal_share']:.1%}"
              + "".join(f"; {f}" for f in flags))


def result_line(results: list[dict], trace: bool) -> dict:
    """The object the driver reads.  With one workload the metric names
    are bare; with several they are prefixed ``<workload>/``."""
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for r in results:
        source = r["layers"] if trace else r["metrics"]
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for m in wanted:
            metrics[prefix + m["name"]] = {
                "value": source[m["name"]], "unit": m["unit"],
            }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0 and not any(r["errors"] for r in results),
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }


# -- --compare ---------------------------------------------------------------

def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run in the file."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for r in run:
            per = out.setdefault(r["workload"], {})
            for metric in stats.END_TO_END:
                per.setdefault(metric, []).append(r["metrics"][metric])
    return out


def compare(path_a: str, path_b: str) -> int:
    """Print, per workload and end-to-end metric, both medians, the
    relative change and the verdict against the recorded bound."""
    a, b = load_runs(path_a), load_runs(path_b)
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    worse = 0
    print(f"{'workload':18s} {'metric':24s} {'A median':>10s} {'B median':>10s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name in a:
        if name not in b:
            continue
        for metric, (_, better) in stats.END_TO_END.items():
            va, vb = a[name][metric], b[name][metric]
            ma, mb = statistics.median(va), statistics.median(vb)
            if metric == "failed_share":      # bound 0: any increase is worse
                change, bound = mb - ma, 0.0
                word = "worse" if mb > ma else "better" if mb < ma else "within bound"
            else:
                change = (mb - ma) / ma
                bound = bounds.get(metric, stats.UNGATED_BOUND)
                word = stats.verdict(va, vb, better, bound)
            gated = metric in bounds or metric == "failed_share"
            worse += gated and word == "worse"
            print(f"{name:18s} {metric:24s} {ma:10.4g} {mb:10.4g} "
                  f"{change:+8.1%} {bound:6.2f}  {word}"
                  + ("" if gated else " (not gated)"))
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", choices=workloads, default=None,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="seconds measured per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="traced run: print the per-layer table")
    ap.add_argument("--runs", type=int, default=1, help="repeat the whole set")
    ap.add_argument("--out", default=None, help="write every run's results here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = [args.workload] if args.workload else workloads
    os.makedirs(_paths.OUT, exist_ok=True)
    loadgen.pin_to_one_cpu()
    runs = []
    for i in range(args.runs):
        results = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
        runs.append(results)
        if args.runs > 1:
            print(f"run {i + 1} of {args.runs}")
        print_tables(results, bool(args.trace))
    out = args.out or os.path.join(_paths.OUT, "last-run.json")
    with open(out, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1)
    print(f"results: {out}")
    print(json.dumps(result_line(runs[-1], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
