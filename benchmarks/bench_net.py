"""Network-plane benchmark: TCP step throughput, reconnect recovery,
checkpoint/restore cost.

Three measurements, recorded into ``BENCH_net.json``:

* **steady state** — writer + reader step exchange of a 64x64 float64
  field through the in-process daemon over real loopback sockets:
  steps/s and MB/s once the plan and sockets are warm.
* **reconnect recovery** — the control socket is torn out from under a
  live client; the next RPC must dial a fresh socket, re-HELLO with the
  resume token, and land in the same session.  Reported as the added
  latency of that first post-loss operation vs the steady-state RPC.
* **checkpoint/restore** — daemon state with N retained steps is cut to
  an atomic checkpoint file and restored into a fresh daemon; both
  directions timed, plus the file size.

Run:  python benchmarks/bench_net.py [--quick] [--out FILE]
Also collectable by pytest (the ``test_*`` wrappers assert the targets).
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.core.directory import TenantSpec
from repro.net.client import connect
from repro.net.server import DirectoryDaemon

SHAPE = (64, 64)
TENANT = "bench"
TOKEN = "bench-t0ken"


def _daemon():
    d = DirectoryDaemon(
        tenants=[TenantSpec(TENANT, token=TOKEN)],
        telemetry=False, lease_interval=1.0,
    )
    d.start()
    return d


def _uri(d):
    return f"flexio://{d.host}:{d.control_port}/{TENANT}"


def bench_steady_state(num_steps=200):
    """Warm writer->daemon->reader exchange: steps/s and MB/s."""
    d = _daemon()
    field = np.arange(float(np.prod(SHAPE))).reshape(SHAPE)
    step_bytes = field.nbytes
    try:
        with connect(_uri(d), token=TOKEN) as c:
            w = c.open("bench.steady", "w")
            r = c.open("bench.steady", "r", timeout=2.0)
            # Warmup: sockets, codec paths, broker dicts.
            for _ in range(5):
                w.begin_step()
                w.write("field", field)
                w.end_step()
                r.begin_step(timeout=2.0)
                r.read_block("field", 0)
                r.end_step()
            t0 = time.perf_counter()
            for _ in range(num_steps):
                w.begin_step()
                w.write("field", field)
                w.end_step()
                r.begin_step(timeout=2.0)
                r.read_block("field", 0)
                r.end_step()
            elapsed = time.perf_counter() - t0
            w.close()
            r.close()
    finally:
        d.stop()
    return {
        "steps": num_steps,
        "step_bytes": step_bytes,
        "elapsed_s": elapsed,
        "steps_per_s": num_steps / elapsed,
        "mb_per_s": num_steps * step_bytes / elapsed / 1e6,
    }


def bench_reconnect_recovery(num_trials=10):
    """Latency of the first RPC after control-socket loss (reconnect +
    resume-HELLO) vs a steady-state RPC."""
    d = _daemon()
    steady_ms = []
    recovery_ms = []
    try:
        with connect(_uri(d), token=TOKEN) as c:
            sid = c.session_id
            # A name the daemon does not know: the control RPC is answered "idle".
            for _ in range(num_trials):
                t0 = time.perf_counter()
                c.heartbeat("bench.probe")
                steady_ms.append((time.perf_counter() - t0) * 1e3)

                c._control.close()  # tear the control socket mid-session
                t0 = time.perf_counter()
                c.heartbeat("bench.probe")
                recovery_ms.append((time.perf_counter() - t0) * 1e3)
                assert c.session_id == sid and c.resumed
    finally:
        d.stop()
    return {
        "trials": num_trials,
        "steady_rpc_ms": statistics.median(steady_ms),
        "recovery_ms": statistics.median(recovery_ms),
        "recovery_added_ms": statistics.median(recovery_ms)
        - statistics.median(steady_ms),
        "pass_recovery_under_1s": statistics.median(recovery_ms) < 1000.0,
    }


def bench_checkpoint_restore(num_steps=50):
    """Checkpoint a daemon holding ``num_steps`` retained steps, then
    restore it into a fresh daemon; both directions timed."""
    import tempfile

    d = _daemon()
    field = np.arange(float(np.prod(SHAPE))).reshape(SHAPE)
    path = os.path.join(tempfile.mkdtemp(prefix="bench-net-"), "d.ckpt")
    try:
        with connect(_uri(d), token=TOKEN) as c:
            w = c.open("bench.ckpt", "w")
            for _ in range(num_steps):
                w.begin_step()
                w.write("field", field)
                w.end_step()
            t0 = time.perf_counter()
            d.checkpoint(path)
            checkpoint_ms = (time.perf_counter() - t0) * 1e3
            w.close()
    finally:
        d.stop()

    d2 = DirectoryDaemon(
        tenants=[TenantSpec(TENANT, token=TOKEN)],
        telemetry=False, lease_interval=1.0,
    )
    t0 = time.perf_counter()
    d2.restore(path)
    restore_ms = (time.perf_counter() - t0) * 1e3
    d2.start()
    try:
        with connect(_uri(d2), token=TOKEN) as c:
            r = c.open("bench.ckpt", "r", timeout=2.0)
            r.begin_step(timeout=2.0)
            got = r.read_block("field", 0)
            restored_ok = bool(np.array_equal(got, field))
            r.end_step()
            r.close()
    finally:
        d2.stop()
    return {
        "steps_retained": num_steps,
        "file_bytes": os.path.getsize(path),
        "checkpoint_ms": checkpoint_ms,
        "restore_ms": restore_ms,
        "pass_restored_data_identical": restored_ok,
    }


def run(quick=False):
    steady = bench_steady_state(num_steps=40 if quick else 200)
    reconnect = bench_reconnect_recovery(num_trials=3 if quick else 10)
    ckpt = bench_checkpoint_restore(num_steps=20 if quick else 50)
    return {
        "bench": "net",
        "quick": quick,
        "shape": list(SHAPE),
        "steady_state": steady,
        "reconnect": reconnect,
        "checkpoint_restore": ckpt,
    }


# --- pytest wrappers (run only when benchmarks/ is targeted explicitly) ---

def test_steady_state_throughput_positive():
    steady = bench_steady_state(num_steps=30)
    assert steady["steps_per_s"] > 10, steady


def test_reconnect_recovers_in_bounded_time():
    rec = bench_reconnect_recovery(num_trials=3)
    assert rec["pass_recovery_under_1s"], rec


def test_checkpoint_restore_round_trips():
    ckpt = bench_checkpoint_restore(num_steps=10)
    assert ckpt["pass_restored_data_identical"], ckpt


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer steps")
    ap.add_argument("--out", default="BENCH_net.json")
    args = ap.parse_args(argv)
    results = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    s, r, c = (results["steady_state"], results["reconnect"],
               results["checkpoint_restore"])
    print(f"steady state: {s['steps_per_s']:.0f} steps/s "
          f"({s['mb_per_s']:.1f} MB/s over TCP loopback)")
    print(f"reconnect   : steady RPC {r['steady_rpc_ms']:.2f} ms, "
          f"recovery {r['recovery_ms']:.2f} ms "
          f"(+{r['recovery_added_ms']:.2f} ms; "
          f"{'PASS' if r['pass_recovery_under_1s'] else 'FAIL'} <1s)")
    print(f"checkpoint  : {c['checkpoint_ms']:.2f} ms cut / "
          f"{c['restore_ms']:.2f} ms restore "
          f"({c['file_bytes'] / 1e3:.0f} kB, {c['steps_retained']} steps; "
          f"{'PASS' if c['pass_restored_data_identical'] else 'FAIL'} identical)")
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
