"""The system under test for the ``net_*`` workloads: the directory
daemon in its own OS process.

A thin launcher over ``repro.net.server.main`` without the telemetry
server; the workload says how many steps the broker retains.  With
``--trace-out`` the span wrappers go on before ``main()`` and the spans
are written after it returns (the worker stops the daemon with SIGINT).
"""

import argparse
import sys

import _paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--retain-steps", type=int, required=True)
    ap.add_argument("--trace-out", default="", help="write daemon spans here at exit")
    args = ap.parse_args(argv)
    _paths.use_repo_sources()
    from repro.net import server

    tracer = None
    if args.trace_out:
        import layers
        import tracing

        tracer = tracing.Tracer()
        layers.install(tracer)
    code = server.main(["--no-telemetry", "--retain-steps", str(args.retain_steps)])
    if tracer is not None:
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
