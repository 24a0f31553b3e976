"""Windowing, median of windows, machine scaling, percentiles and the
bound check.

Every workload reports through this module: a run is a list of equal
:class:`Window` s, each timing metric is taken per window, the run's
figure is the median over the windows, and a percentile is refused
unless at least :data:`MIN_TAIL` samples lie beyond it.

The reference VM shares its host, and its speed drifts by 20-40 % over
minutes with no steal to show for it (a neighbour on the sibling
hyper-thread).  So the load generator probes the machine between
windows, and the timings of a closed-loop run are scaled by how much
slower than :data:`loadgen.PROBE_REF` the probes ran
(:func:`machine_slowdown`, :func:`to_reference`): they read "ms at the
reference machine's speed".  On 6-minute logs of back-to-back windows cut
into 25 s runs, that took the run-to-run spread (inter-quartile / median)
of ``inproc_fused`` from 22 % to 4 % and of ``inproc_mxn`` from 10 % to
5 %; README.md has the table.  The unscaled figures are kept beside them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10

#: End-to-end metrics every workload reports: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "step_latency_p50_ms": ("ms", "lower"),
    "step_latency_p95_ms": ("ms", "lower"),
    "writer_visible_p50_ms": ("ms", "lower"),
    "cpu_ms_per_step": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("share", "lower"),
}
#: The ones BENCHMARK.json gates.  ``failed_share`` is 0 on a healthy run,
#: so the driver gates it through the result line's ``attempted`` and
#: ``failed``; p95 and the writer-visible time spread twice as wide as the
#: median latency run to run on the reference VM (README.md), so they are
#: reported, and repeated in the layer table, but not gated.
GATED = [
    "setup_s", "steps_per_s", "step_latency_p50_ms", "cpu_ms_per_step",
    "peak_rss_mb",
]
#: Bound --compare applies to an end-to-end metric that is not gated.
UNGATED_BOUND = 0.25


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises ``ValueError`` when fewer
    than :data:`MIN_TAIL` samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {max(n - rank, 0)} beyond it "
            f"(need {MIN_TAIL})"
        )
    return sorted(samples)[rank - 1]


def percentile_or_none(samples: Sequence[float], q: float) -> Optional[float]:
    try:
        return percentile(samples, q)
    except ValueError:
        return None


@dataclass
class Window:
    """One equal slice of the measured section.

    ``wall_s`` and ``cpu_s`` exclude the harness's own verification (it
    is reported as ``loadgen.verify_ms_per_step`` instead).
    """

    steps: int
    failed: int = 0
    #: time.perf_counter() at the window's first and past its last step.
    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    verify_s: float = 0.0
    latency_ms: list[float] = field(default_factory=list)
    visible_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    lag_steps: int = 0
    #: (stamp, done) of every delivered step; only kept on traced runs.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    error: str = ""


def window_metrics(w: Window) -> dict[str, Optional[float]]:
    """The per-window statistic behind each timing metric."""
    return {
        "steps_per_s": (w.steps - w.failed) / w.wall_s,
        "step_latency_p50_ms": statistics.median(w.latency_ms) if w.latency_ms else None,
        "step_latency_p95_ms": percentile_or_none(w.latency_ms, 95),
        "writer_visible_p50_ms": statistics.median(w.visible_ms) if w.visible_ms else None,
        "cpu_ms_per_step": w.cpu_s * 1e3 / w.steps,
    }


def median_of(values: Sequence[Optional[float]]) -> Optional[float]:
    """Median of the window values a window could report."""
    kept = [v for v in values if v is not None]
    return statistics.median(kept) if kept else None


def summarise(windows: Sequence[Window]) -> dict[str, Optional[float]]:
    """Median over the windows of every timing metric, plus
    ``failed_share``; as measured, not scaled."""
    per_window = [window_metrics(w) for w in windows]
    out = {name: median_of([m[name] for m in per_window]) for name in per_window[0]}
    out["failed_share"] = sum(w.failed for w in windows) / sum(w.steps for w in windows)
    return out


def machine_slowdown(probes: Sequence[dict[str, float]],
                     reference: dict[str, float]) -> float:
    """How much slower than the reference machine a run's probes ran:
    the mean, over the probe kinds, of median measured / reference
    (1.0 without probes)."""
    if not probes:
        return 1.0
    return statistics.mean(
        statistics.median(p[kind] for p in probes) / ref
        for kind, ref in reference.items()
    )


#: The timings that scale with the machine's speed.
TIMINGS = (
    "setup_s", "steps_per_s", "step_latency_p50_ms", "step_latency_p95_ms",
    "writer_visible_p50_ms", "cpu_ms_per_step",
)


def to_reference(metrics: dict[str, Optional[float]],
                 slowdown: float) -> dict[str, Optional[float]]:
    """``metrics`` at the reference machine's speed: times divided by
    ``slowdown``, rates multiplied by it."""
    out = dict(metrics)
    for name in TIMINGS:
        if out.get(name) is not None:
            rate = END_TO_END[name][1] == "higher"
            out[name] = out[name] * slowdown if rate else out[name] / slowdown
    return out


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the figure the
    bounds in BENCHMARK.json are sized from."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Compare run sets ``a`` (base) and ``b``: ``within bound``,
    ``worse``, ``better`` or ``unresolved`` (run-to-run spread wider
    than the bound, unless every run of one side beats every run of the
    other)."""
    delta = worse_by(statistics.median(a), statistics.median(b), better)
    sign = 1 if better == "lower" else -1
    if max(sign * v for v in b) < min(sign * v for v in a):
        separated = "better"
    elif min(sign * v for v in b) > max(sign * v for v in a):
        separated = "worse"
    else:
        separated = ""
    if max(spread(a), spread(b)) > bound:
        if separated == "better" or (separated == "worse" and delta > bound):
            return separated
        return "unresolved"
    if delta > bound:
        return "worse"
    if -delta > bound:
        return "better"
    return "within bound"
