"""Property-based tests for the shared-cache contention model."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheContentionModel, CacheProfile
from repro.util import MiB


def profile(ws_mib, intensity, base_miss=5.0, name="w"):
    return CacheProfile(
        name=name,
        working_set_bytes=ws_mib * MiB,
        intensity=intensity,
        base_miss_per_kinst=base_miss,
        cpi=1.2,
        miss_penalty_cycles=20.0,
    )


profiles = st.builds(
    profile,
    ws_mib=st.floats(0.25, 32.0),
    intensity=st.floats(0.5, 20.0),
    base_miss=st.floats(0.1, 20.0),
)


@settings(max_examples=60, deadline=None)
@given(p=profiles, l3_mib=st.floats(0.5, 16.0))
def test_property_solo_never_exceeds_base(p, l3_mib):
    """Running alone, a workload misses at exactly its solo rate."""
    model = CacheContentionModel()
    rates = model.shared_miss_rates([p], l3_mib * MiB)
    assert rates[0] == pytest.approx(p.base_miss_per_kinst)


@settings(max_examples=60, deadline=None)
@given(a=profiles, b=profiles, l3_mib=st.floats(0.5, 16.0))
def test_property_corunning_never_helps(a, b, l3_mib):
    """Adding a co-runner can only raise (or keep) everyone's miss rate."""
    model = CacheContentionModel()
    l3 = l3_mib * MiB
    solo = model.shared_miss_rates([a], l3)[0]
    shared = model.shared_miss_rates([a, b], l3)[0]
    assert shared >= solo - 1e-12


@settings(max_examples=60, deadline=None)
@given(a=profiles, b=profiles, c=profiles, l3_mib=st.floats(0.5, 16.0))
def test_property_more_corunners_more_pressure(a, b, c, l3_mib):
    model = CacheContentionModel()
    l3 = l3_mib * MiB
    two = model.shared_miss_rates([a, b], l3)[0]
    three = model.shared_miss_rates([a, b, c], l3)[0]
    assert three >= two - 1e-12


@settings(max_examples=60, deadline=None)
@given(a=profiles, b=profiles, l3_mib=st.floats(0.5, 16.0))
def test_property_allocations_conserve_capacity(a, b, l3_mib):
    """Allocations never exceed the cache, and only fall short when the
    demand itself is smaller than the cache."""
    model = CacheContentionModel()
    l3 = l3_mib * MiB
    allocs = model.allocations([a, b], l3)
    total_demand = a.working_set_bytes + b.working_set_bytes
    assert sum(allocs) <= l3 * (1 + 1e-9)
    if total_demand >= l3:
        assert sum(allocs) == pytest.approx(l3)
    for alloc, p in zip(allocs, (a, b)):
        assert alloc <= p.working_set_bytes * (1 + 1e-9) or alloc <= l3


@settings(max_examples=60, deadline=None)
@given(
    p=profiles,
    m1=st.floats(0.1, 50.0),
    m2=st.floats(0.1, 50.0),
)
def test_property_slowdown_monotone_in_misses(p, m1, m2):
    model = CacheContentionModel()
    lo, hi = sorted((m1, m2))
    assert model.slowdown(p, lo) <= model.slowdown(p, hi)
    assert model.slowdown(p, 0.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(a=profiles, b=profiles, small=st.floats(0.5, 4.0), factor=st.floats(1.5, 8.0))
def test_property_bigger_cache_never_worse(a, b, small, factor):
    """Growing the shared L3 never increases anyone's miss rate."""
    model = CacheContentionModel()
    l3_small = small * MiB
    l3_big = small * factor * MiB
    r_small = model.shared_miss_rates([a, b], l3_small)
    r_big = model.shared_miss_rates([a, b], l3_big)
    assert r_big[0] <= r_small[0] + 1e-9
    assert r_big[1] <= r_small[1] + 1e-9


def test_monitor_report_text():
    """The new textual report includes every category row."""
    from repro.core import PerfMonitor

    mon = PerfMonitor()
    mon.record("data_movement", "x", 0.0, 2.0, nbytes=4_000_000)
    text = mon.report()
    assert "data_movement" in text
    assert "2.0000" in text
