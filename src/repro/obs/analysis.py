"""Offline analysis: stage breakdowns, critical path, bottleneck, faults.

Timed regions come from the JSONL dump produced by
:meth:`PerfMonitor.dump` (a list of dicts after
:meth:`PerfMonitor.load`); faults and recovery come from a flight
timeline (:func:`fault_summary`).  Span records — those carrying
``trace_id``/``span_id`` — are assembled into per-trace trees; analysis
then answers the three questions the paper's offline-tuning loop needs:

1. *Where does time go?* — per-stage (category) totals using **exclusive**
   time (a span's duration minus its children's), so nested spans are not
   double counted;
2. *What limits one timestep?* — the **critical path** through the span
   tree of a trace, computed by the standard last-finishing-child walk;
3. *What should I turn?* — a :class:`BottleneckHint` naming the dominant
   stage with a FlexIO-specific suggestion, consumable by
   ``repro.tools.advisor`` and :mod:`repro.core.adaptive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs import events as ev
from repro.obs.export import is_span_record


@dataclass
class SpanNode:
    """One span record plus its resolved children."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def category(self) -> str:
        return self.record.get("category", "?")

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def start(self) -> float:
        return float(self.record.get("start", 0.0))

    @property
    def duration(self) -> float:
        return float(self.record.get("duration", 0.0))

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def span_id(self) -> str:
        return self.record["span_id"]

    @property
    def exclusive(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))


def span_records(records: Iterable[dict]) -> list[dict]:
    return [r for r in records if is_span_record(r)]


def build_traces(records: Iterable[dict]) -> dict[str, list[SpanNode]]:
    """Group span records into trees; returns ``trace_id -> roots``.

    A span whose parent is absent from the dump (e.g. partial capture)
    is promoted to a root of its trace rather than dropped.
    """
    by_trace: dict[str, dict[str, SpanNode]] = {}
    for rec in span_records(records):
        by_trace.setdefault(rec["trace_id"], {})[rec["span_id"]] = SpanNode(rec)
    out: dict[str, list[SpanNode]] = {}
    for trace_id, nodes in by_trace.items():
        roots: list[SpanNode] = []
        for node in nodes.values():
            parent_id = node.record.get("parent_id") or None
            parent = nodes.get(parent_id) if parent_id else None
            if parent is not None and parent is not node:
                parent.children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.start, n.span_id))
        roots.sort(key=lambda n: (n.start, n.span_id))
        out[trace_id] = roots
    return out


# ---------------------------------------------------------------------------
# Stage breakdown
# ---------------------------------------------------------------------------

@dataclass
class StageStat:
    """Aggregate over every span of one category (pipeline stage)."""

    stage: str
    spans: int = 0
    total_time: float = 0.0
    exclusive_time: float = 0.0
    total_bytes: int = 0


def stage_breakdown(records: Iterable[dict]) -> list[StageStat]:
    """Per-stage totals over all traces, sorted by exclusive time."""
    traces = build_traces(records)
    stats: dict[str, StageStat] = {}

    def visit(node: SpanNode) -> None:
        st = stats.get(node.category)
        if st is None:
            st = stats[node.category] = StageStat(node.category)
        st.spans += 1
        st.total_time += node.duration
        st.exclusive_time += node.exclusive
        st.total_bytes += int(node.record.get("bytes", 0))
        for c in node.children:
            visit(c)

    for roots in traces.values():
        for root in roots:
            visit(root)
    return sorted(stats.values(), key=lambda s: -s.exclusive_time)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalHop:
    """One span on the critical path, with its depth in the tree."""

    node: SpanNode
    depth: int


def critical_path(root: SpanNode) -> list[CriticalHop]:
    """Longest dependency chain through one trace tree.

    Standard last-finishing-child walk: starting from the end of the
    tree, repeatedly descend into the child whose *subtree* finishes
    last before the current cursor, then continue leftward from that
    child's start.  Subtree (not span) end times matter because in a
    cross-program trace the reader's spans outlast the writer-side root
    span they hang off.  Returned in execution (start-time) order.
    """
    eps = 1e-12
    hops: list[CriticalHop] = []
    ends: dict[int, float] = {}

    def subtree_end(node: SpanNode) -> float:
        key = id(node)
        if key not in ends:
            ends[key] = max([node.end] + [subtree_end(c) for c in node.children])
        return ends[key]

    def walk(node: SpanNode, cut: float, depth: int) -> None:
        hops.append(CriticalHop(node, depth))
        cursor = min(subtree_end(node), cut)
        remaining = list(node.children)
        while remaining:
            eligible = [c for c in remaining if subtree_end(c) <= cursor + eps]
            if not eligible:
                break
            last = max(eligible, key=lambda c: (subtree_end(c), c.start))
            walk(last, cursor, depth + 1)
            cursor = last.start
            remaining = [c for c in remaining if subtree_end(c) < last.start + eps]

    walk(root, subtree_end(root), 0)
    return sorted(hops, key=lambda h: (h.node.start, h.depth))


def longest_trace(traces: dict[str, list[SpanNode]]) -> Optional[str]:
    """The trace whose root spans cover the most time (the worst step)."""
    best, best_t = None, -1.0
    for trace_id, roots in sorted(traces.items()):
        t = sum(r.duration for r in roots)
        if t > best_t:
            best, best_t = trace_id, t
    return best


# ---------------------------------------------------------------------------
# Bottleneck hinting
# ---------------------------------------------------------------------------

#: Stage → what a FlexIO operator should try first.  Keys match the span
#: categories emitted by the stream/transport/plug-in layers.
SUGGESTIONS: dict[str, str] = {
    "write": "enable asynchronous writes (sync=false) and the XPMEM path "
             "for large members so the simulation stops blocking on output",
    "redistribute": "enable handshake caching (caching=all) and variable "
                    "batching (batching=true) to amortize the 4-step protocol",
    "transport": "raise the bulk-Get concurrency bound / move analytics "
                 "closer to the data (helper cores or same-node staging)",
    "read": "widen the reader partition or pipeline reads with analysis",
    "dc_plugin": "migrate reducer plug-ins writer-side and expander "
                 "plug-ins reader-side; check codelet cost against the "
                 "writer CPU budget",
}


@dataclass(frozen=True)
class BottleneckHint:
    """The dominant stage of a dump, with a share and a suggestion.

    ``stage`` matches a span category; ``share`` is its fraction of total
    exclusive time in [0, 1].  Consumed by ``repro.tools.advisor``
    (placement advice) and :mod:`repro.core.adaptive` (policy tuning).
    """

    stage: str
    share: float
    exclusive_time: float
    suggestion: str

    def __str__(self) -> str:
        return (
            f"bottleneck: {self.stage} ({self.share:.0%} of exclusive time, "
            f"{self.exclusive_time:.6f}s) — {self.suggestion}"
        )


def find_bottleneck(records: Iterable[dict]) -> Optional[BottleneckHint]:
    """Name the stage dominating exclusive time, or ``None`` if no spans."""
    breakdown = stage_breakdown(records)
    total = sum(s.exclusive_time for s in breakdown)
    if not breakdown or total <= 0:
        return None
    top = breakdown[0]
    return BottleneckHint(
        stage=top.stage,
        share=top.exclusive_time / total,
        exclusive_time=top.exclusive_time,
        suggestion=SUGGESTIONS.get(top.stage, "profile this stage further"),
    )


# ---------------------------------------------------------------------------
# Fault/recovery summary
# ---------------------------------------------------------------------------

@dataclass
class FaultSummary:
    """Aggregate of the data plane's fault and recovery flight events.

    Built from a flight timeline (:func:`fault_summary`): injected
    transport faults, retried drain attempts, steps a retry recovered,
    steps lost after exhausted retries, transport degradations,
    abnormal stream ends and wedged drainers.
    """

    #: ``"<transport>.<kind>" -> count`` of injected faults.
    injected: dict = field(default_factory=dict)
    #: Drain attempts that faulted: every retried attempt plus the last
    #: attempt of every lost step.
    drain_faults: int = 0
    recovered: int = 0
    steps_lost: int = 0
    #: ``(src, dst)`` transport pairs, one per degradation event.
    degradations: list = field(default_factory=list)
    #: Failure reasons of streams that ended abnormally.
    stream_failures: list = field(default_factory=list)
    wedged_drains: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def any(self) -> bool:
        """True when the timeline shows any fault activity at all."""
        return bool(
            self.injected or self.drain_faults or self.degradations
            or self.stream_failures or self.wedged_drains
        )

    def lines(self) -> list[str]:
        """Human-readable one-liners (``repro.tools.trace --flight``)."""
        out = []
        for key in sorted(self.injected):
            out.append(f"injected {self.injected[key]}x {key}")
        if self.drain_faults:
            out.append(
                f"{self.drain_faults} drain attempts faulted, "
                f"{self.recovered} steps recovered by retry"
            )
        if self.steps_lost:
            out.append(f"{self.steps_lost} steps lost/aborted (typed gaps)")
        for src, dst in self.degradations:
            out.append(f"transport degraded {src} -> {dst}")
        for reason in self.stream_failures:
            out.append(f"stream failed: {reason}")
        if self.wedged_drains:
            out.append(f"{self.wedged_drains} wedged drain threads")
        return out


def fault_summary(events: Iterable) -> FaultSummary:
    """Aggregate the fault/recovery events of one flight timeline — a
    dump's ``events`` (dicts) or ``recorder.events(stream=...)``."""
    s = FaultSummary()
    for e in events:
        if not isinstance(e, dict):
            e = e.as_dict()
        code = e["code"]
        if code == ev.EV_FAULT:
            key = f"{e.get('transport', '?')}.{e.get('kind', '?')}"
            s.injected[key] = s.injected.get(key, 0) + 1
        elif code == ev.EV_RETRY:
            s.drain_faults += 1
        elif code == ev.EV_STEP_COMMIT:
            if "attempts" in e:  # a retried send saved this step
                s.recovered += 1
        elif code in (ev.EV_STEP_LOST, ev.EV_STEP_ABORTED):
            s.drain_faults += 1
            s.steps_lost += 1
        elif code == ev.EV_DEGRADE:
            s.degradations.append((e.get("src", "?"), e.get("dst", "?")))
        elif code == ev.EV_STREAM_FAILED:
            s.stream_failures.append(e.get("reason", "?"))
        elif code == ev.EV_DRAIN_WEDGED:
            s.wedged_drains += 1
    return s


# ---------------------------------------------------------------------------
# Copy accounting (zero-copy buffer plane)
# ---------------------------------------------------------------------------

@dataclass
class CopySummary:
    """Aggregate of per-delivery copy counts on the transport plane.

    Every ``recv`` span carries ``path`` (inline/pool/xpmem/put_small/
    get_bulk) and ``copies`` (CPU memcpys between producer buffer and the
    consumer-visible view: 0 xpmem, 1 pool/RDMA, 2 inline) attributes;
    this rolls them up so the trace CLI can show whether the memory plane
    actually ran zero-copy.
    """

    #: ``path -> [messages, bytes, total copies]``.
    per_path: dict = field(default_factory=dict)

    @property
    def messages(self) -> int:
        return sum(v[0] for v in self.per_path.values())

    @property
    def total_copies(self) -> int:
        return sum(v[2] for v in self.per_path.values())

    def any(self) -> bool:
        return bool(self.per_path)

    def lines(self) -> list[str]:
        """Human-readable one-liners (what ``repro.tools.trace`` prints)."""
        from repro.util import fmt_bytes

        out = []
        for path in sorted(self.per_path):
            msgs, nbytes, copies = self.per_path[path]
            per_msg = copies / msgs if msgs else 0.0
            out.append(
                f"{path}: {msgs} messages, {fmt_bytes(nbytes)}, "
                f"{per_msg:.1f} copies/message"
            )
        if self.messages:
            out.append(
                f"total: {self.messages} messages, "
                f"{self.total_copies} copies"
            )
        return out


def copy_summary(records: Iterable[dict]) -> CopySummary:
    """Aggregate the copy counts of every delivery span in one dump."""
    s = CopySummary()
    for rec in records:
        copies = rec.get("copies")
        if copies is None:
            continue
        path = str(rec.get("path", "?"))
        entry = s.per_path.setdefault(path, [0, 0, 0])
        entry[0] += 1
        entry[1] += int(rec.get("bytes", 0))
        entry[2] += int(copies)
    return s
