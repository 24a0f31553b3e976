"""Data-plane benchmark: plan-cache read speedup and async publication.

Two measurements, both recorded into ``BENCH_dataplane.json``:

* **read path** — a 16-writer (4x4) to 4-reader (row bands) MxN exchange
  of a 512x512 float64 array.  Steady-state per-step read time with
  ``caching=ALL`` (compiled plans replayed from the shared cache) vs the
  seed ``NO_CACHING`` path (per-block intersection + fill).  Expected
  speedup: >= 2x.
* **writer-visible span** — how long ``end_step()`` blocks the writer.
  With ``sync=true`` the publish waits for the drain channel; with the
  default async pipeline the step is handed to the background drainer
  and the writer continues.  Expected: async span measurably below sync.

Run:  python benchmarks/bench_dataplane.py [--quick] [--out FILE]
Also collectable by pytest (the ``test_*`` wrappers assert the targets).
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.adios import Adios, RankContext, StepStatus, block_decompose
from repro.core import stream_registry
from repro.core.redistribution import global_plan_cache

SHAPE = (512, 512)
WRITER_GRID = (4, 4)  # 16 writers
NUM_READERS = 4       # row bands of 128x512

CONFIG = """
<adios-config>
  <adios-group name="fields">
    <var name="field" type="float64" dimensions="512,512"/>
  </adios-group>
  <method group="fields" method="FLEXPATH">{params}</method>
</adios-config>
"""


def _fresh(params=""):
    stream_registry.reset()
    global_plan_cache.clear()
    return Adios.from_xml(CONFIG.format(params=params))


def _write_steps(adios, name, num_steps):
    boxes = block_decompose(SHAPE, WRITER_GRID)
    handles = [
        adios.open_write("fields", name, RankContext(r, len(boxes)))
        for r in range(len(boxes))
    ]
    rng = np.random.default_rng(7)
    for _ in range(num_steps):
        for r, h in enumerate(handles):
            h.write("field", rng.random(boxes[r].count), box=boxes[r],
                    global_shape=SHAPE)
        for h in handles:
            h.end_step()
    for h in handles:
        h.close()


def bench_read_path(num_steps=10):
    """Steady-state per-step read time, NO_CACHING vs CACHING_ALL."""
    band = (SHAPE[0] // NUM_READERS, SHAPE[1])
    out = {}
    for label, params in [("no_caching", ""), ("caching_all", "caching=ALL")]:
        adios = _fresh(params)
        name = f"bench.read.{label}"
        _write_steps(adios, name, num_steps)
        readers = [
            adios.open_read("fields", name, RankContext(i, NUM_READERS))
            for i in range(NUM_READERS)
        ]
        per_step = []
        while all(r.begin_step() is StepStatus.OK for r in readers):
            t0 = time.perf_counter()
            for i, r in enumerate(readers):
                r.read("field", start=(i * band[0], 0), count=band)
            per_step.append((time.perf_counter() - t0) * 1e3)
            for r in readers:
                r.end_step()
        # Steps 0-1 pay plan compilation / warmup; steady state after.
        out[label + "_ms"] = statistics.median(per_step[2:])
        out[label + "_all_steps_ms"] = [round(t, 4) for t in per_step]
    out["speedup"] = out["no_caching_ms"] / out["caching_all_ms"]
    out["pass_2x"] = out["speedup"] >= 2.0
    return out


def bench_writer_visible(num_steps=12, compute_s=0.002):
    """Writer-visible publish span: sync drain vs async pipeline."""
    out = {}
    for label, params in [("sync", "sync=true"), ("async", "queue_depth=8")]:
        adios = _fresh(params)
        name = f"bench.vis.{label}"
        boxes = block_decompose(SHAPE, WRITER_GRID)
        handles = [
            adios.open_write("fields", name, RankContext(r, len(boxes)))
            for r in range(len(boxes))
        ]
        rng = np.random.default_rng(3)
        blocks = [rng.random(b.count) for b in boxes]
        state = stream_registry._states[name]
        for _ in range(num_steps):
            for r, h in enumerate(handles):
                h.write("field", blocks[r], box=boxes[r], global_shape=SHAPE)
            for h in handles:
                h.end_step()
            time.sleep(compute_s)  # simulated compute; async drain overlaps
        for h in handles:
            h.close()
        agg = state.monitor.aggregate("writer_visible")
        out[label + "_ms"] = agg.mean_duration * 1e3
        out[label + "_steps"] = agg.count
        out[label + "_backpressure_waits"] = int(
            state.monitor.metrics.counter("dataplane.backpressure_waits").value
        )
    out["speedup"] = out["sync_ms"] / out["async_ms"]
    out["pass_async_below_sync"] = out["async_ms"] < out["sync_ms"]
    return out


def run(quick=False):
    read = bench_read_path(num_steps=5 if quick else 10)
    vis = bench_writer_visible(num_steps=6 if quick else 12)
    stream_registry.reset()
    global_plan_cache.clear()
    return {
        "bench": "dataplane",
        "quick": quick,
        "shape": list(SHAPE),
        "writers": WRITER_GRID[0] * WRITER_GRID[1],
        "readers": NUM_READERS,
        "read_path": read,
        "writer_visible": vis,
    }


# --- pytest wrappers (run only when benchmarks/ is targeted explicitly) ---

def test_plan_cache_read_speedup():
    read = bench_read_path(num_steps=8)
    assert read["speedup"] >= 2.0, read


def test_async_writer_visible_below_sync():
    vis = bench_writer_visible(num_steps=8)
    assert vis["async_ms"] < vis["sync_ms"], vis


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer steps")
    ap.add_argument("--out", default="BENCH_dataplane.json")
    args = ap.parse_args(argv)
    results = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    r, v = results["read_path"], results["writer_visible"]
    print(f"read path   : NO_CACHING {r['no_caching_ms']:.3f} ms/step, "
          f"CACHING_ALL {r['caching_all_ms']:.3f} ms/step "
          f"-> {r['speedup']:.2f}x ({'PASS' if r['pass_2x'] else 'FAIL'} >=2x)")
    print(f"writer span : sync {v['sync_ms']:.3f} ms, async {v['async_ms']:.3f} ms "
          f"-> {v['speedup']:.2f}x "
          f"({'PASS' if v['pass_async_below_sync'] else 'FAIL'} async<sync)")
    print(f"wrote {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
