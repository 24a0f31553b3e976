"""The S3D in-situ visualization pipeline (paper Section IV.B).

Eight S3D ranks stream 3-D species fields through FlexIO's global-array
pattern; two visualization ranks each read a slab (a *different*
distribution than the writers' — the MxN redistribution happens under
the read call), volume-render their slab, composite depth-ordered
partials, and write PPM images exactly as the paper's pipeline does.

The placement is the ``<method>`` line alone (``--method``,
``--params``): the same program renders through a stream (``FLEXPATH``,
or ``STAGING`` through a daemon) or from files (``BP``,
``MPI_AGGREGATE``), and every placement writes the same images.

Run:  python examples/s3d_insitu_viz.py [output_dir]
      python examples/s3d_insitu_viz.py out/bp --method BP
"""

import argparse
import os
import tempfile

import numpy as np

import repro
from repro.adios import StepStatus, block_decompose
from repro.apps import S3dConfig, S3dRank, composite_over, volume_render, write_ppm
from repro.core.hints import CACHING_ALL, STREAM_METHODS, stream_params

CONFIG = """
<adios-config>
  <adios-group name="species">
    <var name="OH" type="float64" dimensions="n,n,n"/>
    <var name="CH4" type="float64" dimensions="n,n,n"/>
  </adios-group>
  <method group="species" method="{method}">{params}</method>
</adios-config>
"""

STREAM_PARAMS = stream_params(caching=CACHING_ALL, batching=True)
SPECIES_TO_RENDER = ("OH", "CH4")
NUM_VIZ = 2
NUM_STEPS = 2


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="s3d_images",
                        help="where the PPM images go")
    parser.add_argument("--method", default="FLEXPATH",
                        help="the <method> line's I/O method (FLEXPATH, BP, "
                             "MPI_AGGREGATE, ...)")
    parser.add_argument("--params", default=None,
                        help="the <method> line's parameters (default: "
                             f"{STREAM_PARAMS!r} on a stream, none on a file)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        run(args, work)


def run(args, work: str) -> None:
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    params = args.params
    if params is None:
        params = STREAM_PARAMS if args.method.upper() in STREAM_METHODS else ""
    client = repro.connect("local://", config=CONFIG.format(method=args.method, params=params))
    # A file path on a file method, the stream's name on a stream.
    name = os.path.join(work, "s3d.species")

    cfg = S3dConfig(num_ranks=8, local_edge=12)
    gshape = cfg.global_shape
    writer_boxes = cfg.boxes()

    # --- Simulation side -------------------------------------------------
    writers = [
        client.open(name, "w", rank=r, num_ranks=cfg.num_ranks)
        for r in range(cfg.num_ranks)
    ]
    ranks = [S3dRank(cfg, r) for r in range(cfg.num_ranks)]
    for step in range(NUM_STEPS):
        for writer in writers:
            writer.begin_step()
        for r, writer in enumerate(writers):
            for sp in SPECIES_TO_RENDER:
                writer.write(
                    sp,
                    ranks[r].species_field(step, sp),
                    box=writer_boxes[r],
                    global_shape=gshape,
                )
        for writer in writers:
            writer.end_step()
    for writer in writers:
        writer.close()
    print(f"simulation streamed {NUM_STEPS} steps of "
          f"{len(SPECIES_TO_RENDER)} species on a {gshape} grid")

    # --- Visualization side: 2 ranks, slab decomposition ----------------
    viz_boxes = block_decompose(gshape, (NUM_VIZ, 1, 1))
    readers = [
        client.open(name, "r", rank=v, num_ranks=NUM_VIZ)
        for v in range(NUM_VIZ)
    ]
    step = 0
    images = 0
    while all(r.begin_step() is StepStatus.OK for r in readers):
        for sp in SPECIES_TO_RENDER:
            # Each viz rank reads ITS slab; FlexIO chunks/reassembles from
            # however the 8 writers decomposed the array (the MxN exchange).
            slabs = [
                readers[v].read(sp, start=viz_boxes[v].start, count=viz_boxes[v].count)
                for v in range(NUM_VIZ)
            ]
            lo = min(float(s.min()) for s in slabs)
            hi = max(float(s.max()) for s in slabs)
            partials = [volume_render(s, axis=0, vrange=(lo, hi)) for s in slabs]
            image = composite_over(partials)  # depth-ordered compositing
            path = os.path.join(out_dir, f"{sp}_step{step}.ppm")
            nbytes = write_ppm(path, image)
            images += 1
            print(f"  rendered {path} ({nbytes} bytes)")
        for r in readers:
            r.end_step()
        step += 1
    for r in readers:
        r.close()
    print(f"wrote {images} PPM images to {out_dir}/")


if __name__ == "__main__":
    main()
