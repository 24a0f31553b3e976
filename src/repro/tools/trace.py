"""Trace analyzer: per-stage breakdown, critical path, bottleneck hint.

Usage::

    python -m repro.tools.trace dump.jsonl
    python -m repro.tools.trace dump.jsonl --perfetto trace.json
    python -m repro.tools.trace dump.jsonl --trace-id t000002
    python -m repro.tools.trace --flight flight-....json

Consumes a :meth:`repro.core.monitoring.PerfMonitor.dump` JSONL file.
Prints how many records/spans/traces the dump holds, where the exclusive
time goes per pipeline stage, the critical path of the slowest timestep
(or the one selected with ``--trace-id``), and a bottleneck hint.  With
``--perfetto`` it also writes a Chrome ``trace_event`` JSON openable in
https://ui.perfetto.dev.

With ``--flight`` the argument is a **flight-recorder dump** (the JSON
artifact :func:`repro.obs.recorder.dump_on_fault` writes when a step is
lost, a drainer wedges, or a stream fails): the event timeline of the
fault window is rendered chronologically and summed up as a "faults and
recovery" section (faults are point events — the timeline is the only
place they are written), the embedded metrics snapshot is summarized,
and any embedded span records go through the same stage-breakdown /
bottleneck machinery as a plain dump.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.monitoring import PerfMonitor
from repro.obs.analysis import (
    build_traces,
    copy_summary,
    critical_path,
    fault_summary,
    find_bottleneck,
    longest_trace,
    span_records,
    stage_breakdown,
)
from repro.obs.export import write_perfetto
from repro.util import fmt_bytes


def analyze(
    records: list[dict], trace_id: Optional[str] = None, out=None
) -> int:
    """Print the full analysis of a loaded dump; returns an exit code."""
    out = out or sys.stdout
    spans = span_records(records)
    traces = build_traces(records)
    print(
        f"{len(records)} records, {len(spans)} spans, {len(traces)} traces",
        file=out,
    )
    if not spans:
        print("no span records — was tracing enabled? "
              "(StreamHints trace=true or monitor.enable_tracing())", file=out)
        return 1

    breakdown = stage_breakdown(records)
    total_excl = sum(s.exclusive_time for s in breakdown) or 1.0
    print("", file=out)
    print(f"{'stage':14s} {'spans':>6s} {'exclusive':>12s} {'share':>7s} "
          f"{'total':>12s} {'bytes':>10s}", file=out)
    for st in breakdown:
        print(
            f"{st.stage:14s} {st.spans:6d} {st.exclusive_time:12.6f} "
            f"{st.exclusive_time / total_excl:6.1%} {st.total_time:12.6f} "
            f"{fmt_bytes(st.total_bytes):>10s}",
            file=out,
        )

    chosen = trace_id or longest_trace(traces)
    if chosen not in traces:
        print(f"\nno trace {chosen!r} in dump "
              f"(have: {', '.join(sorted(traces))})", file=out)
        return 1
    print(f"\ncritical path of trace {chosen}"
          f"{' (slowest step)' if trace_id is None else ''}:", file=out)
    for root in traces[chosen]:
        for hop in critical_path(root):
            n = hop.node
            print(
                f"  {'  ' * hop.depth}{n.category}/{n.name}  "
                f"{n.duration:.6f}s  ({fmt_bytes(int(n.record.get('bytes', 0)))})",
                file=out,
            )

    copies = copy_summary(records)
    if copies.any():
        print("\ntransport copies (per delivery path):", file=out)
        for line in copies.lines():
            print(f"  {line}", file=out)

    hint = find_bottleneck(records)
    if hint is not None:
        print(f"\n{hint}", file=out)
    return 0


def analyze_flight(doc: dict, out=None) -> int:
    """Render a flight-recorder dump: timeline, faults and recovery,
    metrics, embedded trace."""
    out = out or sys.stdout
    events = doc.get("events", [])
    print(
        f"flight dump: {doc.get('reason') or '(no reason)'} — "
        f"{len(events)} event(s) in the last {doc.get('window_s', 0):g}s "
        f"({doc.get('dropped', 0)} older event(s) evicted from the ring)",
        file=out,
    )
    if events:
        t0 = events[0]["ts"]
        print("\ntimeline:", file=out)
        for ev in events:
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(ev.items())
                if k not in ("ts", "seq", "code", "stream")
            )
            stream = f" [{ev['stream']}]" if ev.get("stream") else ""
            print(
                f"  +{ev['ts'] - t0:9.4f}s  {ev['code']:<20s}{stream}"
                f"{'  ' + attrs if attrs else ''}",
                file=out,
            )
    faults = fault_summary(events)
    if faults.any():
        print("\nfaults and recovery:", file=out)
        for line in faults.lines():
            print(f"  {line}", file=out)
    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        print("\nmetrics at dump time:", file=out)
        for name, value in sorted(counters.items()):
            print(f"  {name:40s} {value:g}", file=out)
    records = doc.get("records")
    if records:
        print("\nembedded trace records:", file=out)
        analyze(records, out=out)
    return 0 if events else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace",
        description="Analyze a PerfMonitor JSONL dump: stage breakdown, "
                    "critical path, bottleneck hint.",
    )
    parser.add_argument("dump", help="JSONL file written by PerfMonitor.dump, "
                                     "or (with --flight) a flight-recorder "
                                     "dump artifact")
    parser.add_argument("--perfetto", metavar="OUT.json", default=None,
                        help="also export a Perfetto/Chrome trace_event JSON")
    parser.add_argument("--trace-id", default=None,
                        help="show the critical path of this trace "
                             "(default: the slowest one)")
    parser.add_argument("--flight", action="store_true",
                        help="the dump is a flight-recorder fault artifact; "
                             "render its event timeline")
    args = parser.parse_args(argv)
    out = out or sys.stdout
    if args.flight:
        from repro.obs.recorder import load_dump

        try:
            doc = load_dump(args.dump)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.dump}: {exc}", file=out)
            return 2
        return analyze_flight(doc, out=out)
    try:
        records = PerfMonitor.load(args.dump)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.dump}: {exc}", file=out)
        return 2
    rc = analyze(records, trace_id=args.trace_id, out=out)
    if args.perfetto:
        n = write_perfetto(records, args.perfetto)
        print(f"\nwrote {n} Perfetto events to {args.perfetto} "
              f"(open in https://ui.perfetto.dev)", file=out)
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
