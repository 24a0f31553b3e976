"""Tests for runtime management: DC placement control."""

import numpy as np
import pytest

from repro.core import PluginManager, PluginSide
from repro.core import PerfMonitor
from repro.core.adaptive import AdaptivePolicy, DCPlacementController
from repro.core.plugins import annotation_plugin, sampling_plugin
from repro.obs.names import M_PLUGIN_MIGRATIONS


def run_plugin(plugin, nbytes_shape=(1000, 7), times=1):
    data = {"zion": np.zeros(nbytes_shape)}
    for _ in range(times):
        plugin.apply(data)


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        AdaptivePolicy(reducer_ratio=0.0)
    with pytest.raises(ValueError):
        AdaptivePolicy(reducer_ratio=1.2, expander_ratio=1.0)
    with pytest.raises(ValueError):
        AdaptivePolicy(hysteresis=0)


# ---------------------------------------------------------------------------
# DC placement controller
# ---------------------------------------------------------------------------

def test_reducer_migrates_to_writer():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.READER)
    run_plugin(sampler, times=2)  # observed: 4x reduction
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=2))
    assert ctl.observe_step(writer_busy_fraction=0.5) == []  # vote 1
    events = ctl.observe_step(writer_busy_fraction=0.5)      # vote 2: migrate
    assert len(events) == 1
    assert events[0].to_side is PluginSide.WRITER
    assert sampler.side is PluginSide.WRITER


def test_expander_migrates_to_reader():
    mgr = PluginManager()
    ann = mgr.deploy(annotation_plugin("flag", 1.0), PluginSide.WRITER)
    run_plugin(ann)  # adds bytes: ratio > 1
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1))
    events = ctl.observe_step(writer_busy_fraction=0.2)
    assert len(events) == 1
    assert events[0].to_side is PluginSide.READER
    assert "expander" in events[0].reason


def test_overloaded_writer_repels_reducers():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.WRITER)
    run_plugin(sampler)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1, writer_busy_limit=0.9))
    events = ctl.observe_step(writer_busy_fraction=0.99)
    assert len(events) == 1
    assert events[0].to_side is PluginSide.READER
    assert "overloaded" in events[0].reason


def test_hysteresis_prevents_ping_pong():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(2), PluginSide.READER)
    run_plugin(sampler)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=3))
    # Alternating conditions never accumulate 3 consistent votes.
    assert ctl.observe_step(0.5) == []     # vote writer x1
    assert ctl.observe_step(0.99) == []    # vote reader (already there: reset)
    assert ctl.observe_step(0.5) == []     # vote writer x1 again
    assert sampler.side is PluginSide.READER
    # Three consistent observations do migrate.
    assert ctl.observe_step(0.5) == []
    events = ctl.observe_step(0.5)
    assert len(events) == 1


def test_unobserved_plugin_not_moved():
    mgr = PluginManager()
    sampler = mgr.deploy(sampling_plugin(2), PluginSide.READER)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1))
    assert ctl.observe_step(0.1) == []
    assert sampler.side is PluginSide.READER


def test_controller_records_to_monitor():
    """A migration is a point event: one ``plugin.migrate`` flight event
    carrying what ``controller.events`` carries, and one count of
    ``plugin.migrations`` on the manager's monitor."""
    from repro.obs import recorder as flight
    from repro.obs.events import EV_PLUGIN_MIGRATE

    recorder = flight.reset()
    mon = PerfMonitor()
    mgr = PluginManager(mon)
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.READER)
    run_plugin(sampler)
    ctl = DCPlacementController(mgr, AdaptivePolicy(hysteresis=1))
    (migration,) = ctl.observe_step(0.5)
    (event,) = recorder.events(code=EV_PLUGIN_MIGRATE)
    assert dict(event.attrs) == {
        "plugin": sampler.name, "step": 0, "src": "reader", "dst": "writer",
        "reason": migration.reason,
    }
    assert mon.metrics.counter(M_PLUGIN_MIGRATIONS).value == 1


def test_migrate_to_current_side_is_a_no_op():
    """Migrating a codelet to the side it already runs on neither counts
    nor invalidates the compiled chain."""
    mon = PerfMonitor()
    mgr = PluginManager(mon)
    sampler = mgr.deploy(sampling_plugin(4), PluginSide.READER)
    chain = mgr.compiled_chain(PluginSide.READER)
    mgr.migrate(sampler.name, PluginSide.READER)
    assert mgr.compiled_chain(PluginSide.READER) is chain
    assert mon.metrics.counter(M_PLUGIN_MIGRATIONS).value == 0
    mgr.migrate(sampler.name, PluginSide.WRITER)
    assert mgr.compiled_chain(PluginSide.READER) is None
    assert mon.metrics.counter(M_PLUGIN_MIGRATIONS).value == 1


def test_controller_input_validation():
    ctl = DCPlacementController(PluginManager())
    with pytest.raises(ValueError):
        ctl.observe_step(1.5)
