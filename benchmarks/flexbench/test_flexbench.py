"""Checks of the harness itself.  Collected only when targeted:

    python -m pytest benchmarks/flexbench/test_flexbench.py -q
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _paths  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RULE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = dict(seed=1, seconds=60, window_steps=20, max_windows=1)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(_paths.REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the workloads ------------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_delivers_every_step(name):
    r = worker.run_workload(name, **SMOKE)
    assert (r["attempted"], r["failed"], r["errors"]) == (20, 0, [])
    assert set(stats.END_TO_END) <= set(r["metrics"])
    assert set(stats.END_TO_END) == set(r["measured"])
    assert len(r["probes"]) == 2 and r["machine_slowdown"] > 0
    # Only a closed loop is scaled to the reference machine.
    assert r["scaled_by"] == (1.0 if name == "net_tail_small" else r["machine_slowdown"])
    assert r["metrics"]["failed_share"] == 0
    # 20 samples cannot carry a p95; it is reported as missing, not invented.
    assert r["metrics"]["step_latency_p95_ms"] is None
    assert r["metrics"]["step_latency_p50_ms"] > 0


@pytest.mark.parametrize("name", ["inproc_fused", "net_lockstep_bulk"])
def test_perturbed_expectation_is_a_failed_step(name):
    r = worker.run_workload(name, perturb=True, **SMOKE)
    # Ring slot 0 comes round at steps 0, 8 and 16 of the window
    # (the net stream is 50 warm-up steps in: 56, 64).
    assert r["failed"] in (2, 3)
    assert r["metrics"]["failed_share"] == r["failed"] / 20


@pytest.mark.parametrize("name", ["inproc_mxn", "net_lockstep_bulk"])
def test_traced_smoke_prints_every_layer_metric(name):
    r = worker.run_workload(name, trace=True, **SMOKE)
    assert list(r["layers"]) == list(layers.PER_LAYER)
    assert r["failed"] == 0
    m = r["layers"]
    if name == "inproc_mxn":
        assert m["core.stream.end_step_ms_per_step"] > 0
        assert m["transport.shm.copies_per_step"] == 1
        assert m["net.protocol.frames_per_step"] == 0
        assert m["marshal.encode_ms_per_step"] == 0
    else:
        assert m["net.server.publish_ms_per_step"] > 0     # daemon spans arrived
        assert m["net.server.fetch_rpcs_per_step"] == 1
        assert m["net.client.fetch_rpcs_per_step"] == 1
        assert m["adios.assemble_ms_per_step"] > 0
        assert m["core.stream.end_step_ms_per_step"] == 0
    assert layers.dominated_where_expected(name, m, 1e9) == []
    assert all(os.path.exists(p) for p in r["trace_files"])
    # The wrappers came off again.
    from repro.marshal import codec
    assert not hasattr(codec.encode_into, "__wrapped__")


# -- names --------------------------------------------------------------------

def test_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == stats.GATED
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == stats.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RULE.fullmatch(m["name"]), m["name"]
        assert UNIT_RULE.fullmatch(m.get("unit", "s")), m
    assert spec["paths"] == ["benchmarks/flexbench"]


def test_result_line_carries_exactly_the_listed_metrics(spec):
    fake = {
        "workload": "inproc_mxn", "attempted": 10, "failed": 0, "errors": [],
        "metrics": {name: 1.5 for name in stats.END_TO_END},
        "layers": {name: 0.5 for name in layers.PER_LAYER},
    }
    line = run.result_line([fake], trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == stats.GATED
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert line["correct"] is True
    traced = run.result_line([fake], trace=True)
    assert list(traced["metrics"]) == list(layers.PER_LAYER)
    fake["failed"] = 1
    assert run.result_line([fake], trace=False)["correct"] is False


# -- stats --------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile_or_none(list(range(20)), 95) is None
    assert stats.percentile(list(range(1000)), 99) == 989


def test_median_of_windows_and_failed_share():
    windows = [
        stats.Window(steps=10, failed=f, wall_s=1.0, cpu_s=0.01 * c,
                     latency_ms=[float(c)] * 10, visible_ms=[1.0] * 10)
        for f, c in [(0, 4), (1, 2), (0, 9), (0, 3), (0, 5)]
    ]
    out = stats.summarise(windows)
    assert out["step_latency_p50_ms"] == 4.0
    assert out["steps_per_s"] == 10.0                 # 10, 9, 10, 10, 10
    assert out["cpu_ms_per_step"] == pytest.approx(4.0)
    assert stats.median_of([5, 1, None, 3]) == 3
    assert out["step_latency_p95_ms"] is None
    assert out["failed_share"] == 1 / 50


def test_timings_are_scaled_to_the_reference_machine():
    ref = {"pyloop_s": 0.02, "memcpy_s": 0.01}
    probes = [{"pyloop_s": 0.03, "memcpy_s": 0.011},
              {"pyloop_s": 0.09, "memcpy_s": 0.013},     # a burst: the median ignores it
              {"pyloop_s": 0.03, "memcpy_s": 0.012}]
    slow = stats.machine_slowdown(probes, ref)
    assert slow == pytest.approx((1.5 + 1.2) / 2)
    assert stats.machine_slowdown([], ref) == 1.0
    measured = {"setup_s": 2.7, "steps_per_s": 100.0, "step_latency_p50_ms": 1.35,
                "step_latency_p95_ms": None, "cpu_ms_per_step": 2.7,
                "peak_rss_mb": 50.0, "failed_share": 0.0}
    scaled = stats.to_reference(measured, slow)
    assert scaled["steps_per_s"] == pytest.approx(135.0)
    assert scaled["step_latency_p50_ms"] == pytest.approx(1.0)
    assert scaled["cpu_ms_per_step"] == scaled["setup_s"] == pytest.approx(2.0)
    assert scaled["step_latency_p95_ms"] is None
    assert (scaled["peak_rss_mb"], scaled["failed_share"]) == (50.0, 0.0)
    assert stats.to_reference(measured, 1.0) == measured


def test_verdict_words():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert stats.verdict(base, [10.3, 10.1, 10.4, 10.2, 10.3], "lower", 0.1) == "within bound"
    assert stats.verdict(base, [12.0, 12.2, 11.9, 12.1, 12.0], "lower", 0.1) == "worse"
    assert stats.verdict(base, [8.0, 8.2, 7.9, 8.1, 8.0], "lower", 0.1) == "better"
    assert stats.verdict(base, [8.0, 8.2, 7.9, 8.1, 8.0], "higher", 0.1) == "worse"
    wide = [8.0, 12.0, 9.0, 11.5, 10.0]
    assert stats.verdict(wide, [9.0, 12.5, 9.5, 11.0, 10.5], "lower", 0.1) == "unresolved"
    assert stats.verdict(wide, [5.0, 7.5, 6.0, 7.0, 6.5], "lower", 0.1) == "better"
    assert stats.spread(base) == pytest.approx(0.02)


# -- tracing ------------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    S = tracing.Span
    spans = [
        S(0, -1, "root", 1, 0, 0.0, 10.0, None),
        S(1, 0, "a", 1, 0, 1.0, 4.0, None),
        S(2, 1, "leaf", 1, 0, 2.0, 3.0, None),
        S(3, 0, "a", 1, 0, 5.0, 9.0, None),
        S(4, 99, "orphan", 2, 0, 0.0, 2.0, None),   # parent clipped away
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0}
    assert tracing.self_time_by_name(spans) == {
        "root": 3.0, "a": 6.0, "leaf": 1.0, "orphan": 2.0,
    }
    assert sum(own.values()) == 12.0    # both threads' wall, counted once
    assert [s.id for s in tracing.clip(spans, 0.5, 9.5)] == [1, 2, 3]
    assert layers.attributed_s(spans, 1, [(0.0, 10.0)]) == 10.0
    assert layers.attributed_s(spans[1:], 1, [(0.0, 4.5), (4.5, 10.0)]) == 7.0


def test_wrappers_nest_and_come_off():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @property
        def prop(self):
            return 7

    tracer = tracing.Tracer()
    tracer.patch_method("outer", Thing, "outer")
    tracer.patch_method("inner", Thing, "inner", note=lambda res, args: res)
    tracer.patch_method("prop", Thing, "prop")
    tracer.step = 5
    assert (Thing().outer(), Thing().prop) == (2, 7)
    inner, outer, prop = tracer.spans
    assert (inner.name, inner.parent, inner.note, inner.step) == ("inner", outer.id, 1, 5)
    assert (outer.parent, prop.parent) == (-1, -1)
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.uninstall()
    assert Thing().outer() == 2 and len(tracer.spans) == 3
