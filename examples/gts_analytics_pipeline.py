"""The GTS online-analytics pipeline (paper Section IV.A), end to end.

Four GTS ranks generate particle data (zions + electrons, seven
attributes each) plus a small 2-D field grid and stream them through
FlexIO; a Data Conditioning plug-in — created by the analytics but
*deployed into the writer's address space* — samples the particles
before they are buffered; the analytics side then runs the paper's
chain: particle distribution function, ~20 %-selective range query on
velocity, and 1-D/2-D histograms saved for parallel-coordinates
visualization.

The placement is the ``<method>`` line alone (``--method``,
``--params``): the same program runs the analytics online through a
stream (``FLEXPATH``, whose drain maps each step) or offline
from files (``BP``, ``MPI_AGGREGATE``), and the writer-side codelet
conditions the output on every one of them.  The stream runs with
``trace=true``, so every timestep becomes one distributed trace: the
write span is the root, and the reader's redistribute/transport/plug-in
spans attach to it across the decoupled programs.

Run:  python examples/gts_analytics_pipeline.py
      python examples/gts_analytics_pipeline.py --method BP --hist-dir out/bp
      python examples/gts_analytics_pipeline.py --params "batching=true;trace=true;xpmem=true"
      python examples/gts_analytics_pipeline.py --trace-dir out/
      python -m repro.tools.trace out/gts_trace.jsonl
"""

import argparse
import os
import tempfile

import numpy as np

import repro
from repro.adios import BoundingBox
from repro.apps import GtsAnalytics, GtsConfig, GtsRank
from repro.core import PluginSide
from repro.core.hints import STREAM_METHODS, stream_params
from repro.core.plugins import sampling_plugin
from repro.util import fmt_bytes

CONFIG = """
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="float64" dimensions="n,7"/>
    <var name="electron" type="float64" dimensions="n,7"/>
    <var name="phi" type="float64" dimensions="64,64"/>
  </adios-group>
  <method group="particles" method="{method}">{params}</method>
</adios-config>
"""

STREAM_PARAMS = stream_params(batching=True, trace=True)
NUM_RANKS = 4
NUM_STEPS = 3
PHI_SHAPE = (64, 64)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="FLEXPATH",
                        help="the <method> line's I/O method (FLEXPATH, BP, "
                             "MPI_AGGREGATE, ...)")
    parser.add_argument("--params", default=None,
                        help="the <method> line's parameters (default: "
                             f"{STREAM_PARAMS!r} on a stream, none on a file)")
    parser.add_argument("--hist-dir", default=None, metavar="DIR",
                        help="keep the histogram files here")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write gts_trace.jsonl + gts_trace.perfetto.json "
                             "and the monitoring report here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        run(args, work)


def run(args, work: str) -> None:
    hist_dir = args.hist_dir or work
    params = args.params
    if params is None:
        params = STREAM_PARAMS if args.method.upper() in STREAM_METHODS else ""
    client = repro.connect("local://", config=CONFIG.format(method=args.method, params=params))
    # A file path on a file method, the stream's name on a stream.
    name = os.path.join(work, "gts.particles")
    cfg = GtsConfig(num_ranks=NUM_RANKS, particles_per_rank=20_000)

    # --- Simulation side: write particle output every I/O step ----------
    gts_ranks = [GtsRank(cfg, r) for r in range(NUM_RANKS)]
    writers = [
        client.open(name, "w", rank=r, num_ranks=NUM_RANKS)
        for r in range(NUM_RANKS)
    ]
    monitor = writers[0].monitor  # shared by the whole run

    # The analytics ships a sampling codelet to run WRITER-side, cutting
    # what FlexIO must buffer/move by 4x before it leaves the simulation.
    # `only` leaves the phi field grid intact: its block distribution must
    # survive for the reader's global-array redistribution.
    sampler = sampling_plugin(stride=4, only=("zion", "electron"))
    writers[0].plugins.deploy(sampler, PluginSide.WRITER)
    print(f"deployed DC plug-in {sampler.name!r} into the writer address space")

    rows = PHI_SHAPE[0] // NUM_RANKS
    for step in range(NUM_STEPS):
        for writer in writers:
            writer.begin_step()
        for r, (rank, writer) in enumerate(zip(gts_ranks, writers)):
            output = rank.output(step)
            writer.write("zion", output["zion"])
            writer.write("electron", output["electron"])
            # Each rank owns a row-block of the 64x64 potential field.
            phi_block = np.fromfunction(
                lambda i, j: np.sin((i + r * rows) / 7.0 + step) * np.cos(j / 9.0),
                (rows, PHI_SHAPE[1]),
            )
            writer.write(
                "phi", phi_block,
                box=BoundingBox((r * rows, 0), (rows, PHI_SHAPE[1])),
                global_shape=PHI_SHAPE,
            )
        for writer in writers:
            # On a stream the drainer pushes the step through the shm
            # channel while the simulation continues; a file run writes it.
            writer.end_step()
    for writer in writers:
        writer.close()
    print(f"DC plug-in reduction ratio: {sampler.reduction_ratio:.2f} "
          f"({fmt_bytes(sampler.stats.bytes_in)} -> {fmt_bytes(sampler.stats.bytes_out)})")

    # --- Analytics side: the paper's chain, process-group pattern -------
    chain = GtsAnalytics(selectivity=0.2)
    reader = client.open(name, "r")

    def check_phi(rd, step):
        # Global-array read: MxN redistribution of the field grid.
        phi = rd.read("phi")
        assert phi.shape == PHI_SHAPE

    os.makedirs(hist_dir, exist_ok=True)
    results = chain.run_stream(reader, NUM_RANKS, save_dir=hist_dir, on_step=check_phi)
    reader.close()
    nfiles = sum(f.startswith("hist_") for f in os.listdir(hist_dir))
    nsteps = 1 + max(r.step for r in results)
    print(f"analytics processed {chain.steps_processed} process groups over "
          f"{nsteps} steps; wrote {nfiles} histogram files")
    print(f"range-query selectivity: {chain.reduction_ratio:.1%} (paper: ~20%)")

    # --- Observability: dump the trace for offline analysis -------------
    n_spans = sum(1 for r in monitor.trace if "trace_id" in dict(r.extra))
    print(f"captured {n_spans} spans over {len(monitor.trace)} trace records")
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        dump = os.path.join(args.trace_dir, "gts_trace.jsonl")
        monitor.dump(dump)
        perfetto = os.path.join(args.trace_dir, "gts_trace.perfetto.json")
        nev = monitor.export_perfetto(perfetto)
        print(f"wrote {dump} and {perfetto} ({nev} Perfetto events)")
        print(f"analyze with: python -m repro.tools.trace {dump}")
        print()
        print(monitor.report())


if __name__ == "__main__":
    main()
