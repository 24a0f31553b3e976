"""Tests for Data Conditioning plug-ins: validation, execution, mobility."""

import numpy as np
import pytest

from repro.core import CodeletError, DCPlugin, PerfMonitor, PluginManager, PluginSide
from repro.core.plugins import (
    annotation_plugin,
    bounding_box_plugin,
    range_select_plugin,
    sampling_plugin,
    unit_conversion_plugin,
)


def particles(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return {"zion": rng.normal(size=(n, 7))}


# ---------------------------------------------------------------------------
# Codelet validation (the restricted subset)
# ---------------------------------------------------------------------------

def test_plugin_compiles_and_runs():
    p = DCPlugin("double", "def condition(vars):\n    return {k: v * 2 for k, v in vars.items()}\n")
    out = p.apply({"x": np.ones(3)})
    np.testing.assert_array_equal(out["x"], 2 * np.ones(3))
    assert p.stats.invocations == 1


def test_import_forbidden():
    with pytest.raises(CodeletError):
        DCPlugin("evil", "import os\ndef condition(vars):\n    return vars\n")


def test_open_forbidden():
    # `open` simply does not resolve in the sandbox namespace.
    p = DCPlugin("sneaky", "def condition(vars):\n    open('/etc/passwd')\n    return vars\n")
    with pytest.raises(CodeletError):
        p.apply({"x": np.ones(1)})


def test_dunder_access_forbidden():
    with pytest.raises(CodeletError):
        DCPlugin("esc", "def condition(vars):\n    return vars['x'].__class__\n")
    with pytest.raises(CodeletError):
        DCPlugin("esc2", "def condition(vars):\n    x = __builtins__\n    return vars\n")


def test_private_attribute_forbidden():
    with pytest.raises(CodeletError):
        DCPlugin("priv", "def condition(vars):\n    np._private_thing()\n    return vars\n")


def test_with_try_lambda_class_forbidden():
    for bad in (
        "def condition(vars):\n    with vars: pass\n    return vars\n",
        "def condition(vars):\n    try:\n        pass\n    except Exception:\n        pass\n    return vars\n",
        "def condition(vars):\n    f = lambda a: a\n    return vars\n",
        "class X: pass\ndef condition(vars):\n    return vars\n",
    ):
        with pytest.raises(CodeletError):
            DCPlugin("bad", bad)


def test_wrong_signature_rejected():
    with pytest.raises(CodeletError):
        DCPlugin("none", "x = 1\n")
    with pytest.raises(CodeletError):
        DCPlugin("two", "def condition(a, b):\n    return a\n")
    with pytest.raises(CodeletError):
        DCPlugin("name", "def other(vars):\n    return vars\n")


def test_syntax_error_reported():
    with pytest.raises(CodeletError):
        DCPlugin("syn", "def condition(vars)\n    return vars\n")


def test_non_dict_return_rejected():
    p = DCPlugin("bad-ret", "def condition(vars):\n    return 42\n")
    with pytest.raises(CodeletError):
        p.apply({"x": np.ones(1)})


def test_runtime_error_wrapped():
    p = DCPlugin("crash", "def condition(vars):\n    return {'y': vars['missing']}\n")
    with pytest.raises(CodeletError):
        p.apply({"x": np.ones(1)})


def test_loops_and_conditionals_allowed():
    src = (
        "def condition(vars):\n"
        "    out = dict(vars)\n"
        "    for name in list(out):\n"
        "        if len(out[name]) > 2:\n"
        "            out[name] = out[name][:2]\n"
        "    return out\n"
    )
    p = DCPlugin("trim", src)
    out = p.apply({"x": np.arange(10.0)})
    assert len(out["x"]) == 2


# ---------------------------------------------------------------------------
# Library codelets
# ---------------------------------------------------------------------------

def test_sampling_plugin_reduces_volume():
    p = sampling_plugin(stride=4)
    data = particles(100)
    out = p.apply(data)
    assert out["zion"].shape == (25, 7)
    assert p.reduction_ratio == pytest.approx(0.25)


def test_range_select_plugin():
    p = range_select_plugin("zion", column=3, lo=-0.5, hi=0.5)
    data = particles(1000)
    out = p.apply(data)
    v = out["zion"][:, 3]
    assert ((v >= -0.5) & (v <= 0.5)).all()
    assert 0 < len(out["zion"]) < 1000


def test_bounding_box_plugin_adds_metadata():
    p = bounding_box_plugin()
    data = particles(50)
    out = p.apply(data)
    np.testing.assert_array_equal(out["zion_bbox_min"], data["zion"].min(axis=0))
    np.testing.assert_array_equal(out["zion_bbox_max"], data["zion"].max(axis=0))


def test_unit_conversion_plugin():
    p = unit_conversion_plugin("zion", factor=1000.0)
    data = particles(10)
    out = p.apply(data)
    np.testing.assert_allclose(out["zion"], data["zion"] * 1000.0)


def test_annotation_plugin():
    p = annotation_plugin("timestep_flag", 7.0)
    out = p.apply({"x": np.ones(2)})
    assert out["timestep_flag"][0] == 7.0


# ---------------------------------------------------------------------------
# Manager: deployment, migration, chaining
# ---------------------------------------------------------------------------

def test_manager_deploy_and_side_filtering():
    mgr = PluginManager()
    s = mgr.deploy(sampling_plugin(2), PluginSide.WRITER)
    b = mgr.deploy(bounding_box_plugin(), PluginSide.READER)
    assert mgr.plugins(PluginSide.WRITER) == [s]
    assert mgr.plugins(PluginSide.READER) == [b]
    assert len(mgr.plugins()) == 2


def test_manager_duplicate_name_rejected():
    mgr = PluginManager()
    mgr.deploy(sampling_plugin(2))
    with pytest.raises(CodeletError):
        mgr.deploy(sampling_plugin(2))


def test_manager_migration_moves_execution_side():
    """The paper's mobility: the same codelet moves writer↔reader at runtime."""
    mgr = PluginManager()
    mgr.deploy(sampling_plugin(2), PluginSide.READER)
    data = particles(100)
    out = mgr.apply_side(PluginSide.WRITER, data)
    assert out["zion"].shape == (100, 7)  # not deployed writer-side yet
    mgr.migrate("sample/2", PluginSide.WRITER)
    out = mgr.apply_side(PluginSide.WRITER, data)
    assert out["zion"].shape == (50, 7)
    out = mgr.apply_side(PluginSide.READER, data)
    assert out["zion"].shape == (100, 7)  # no longer reader-side


def test_manager_chain_order():
    mgr = PluginManager()
    mgr.deploy(unit_conversion_plugin("zion", 2.0), PluginSide.WRITER)
    mgr.deploy(sampling_plugin(2), PluginSide.WRITER)
    data = {"zion": np.arange(8.0).reshape(4, 2)}
    out = mgr.apply_side(PluginSide.WRITER, data)
    # Conversion first (deployment order), then sampling.
    np.testing.assert_array_equal(out["zion"], (np.arange(8.0).reshape(4, 2) * 2)[::2])


def test_manager_undeploy_and_errors():
    mgr = PluginManager()
    mgr.deploy(sampling_plugin(2))
    p = mgr.undeploy("sample/2")
    assert p.name == "sample/2"
    with pytest.raises(CodeletError):
        mgr.undeploy("sample/2")
    with pytest.raises(CodeletError):
        mgr.migrate("ghost", PluginSide.WRITER)


def test_monitoring_integration():
    mon = PerfMonitor(clock=lambda: 0.0)
    mgr = PluginManager(mon)
    mgr.deploy(sampling_plugin(2), PluginSide.WRITER)
    mgr.apply_side(PluginSide.WRITER, particles(100))
    agg = mon.aggregate("dc_plugin")
    assert agg.count == 1
    assert agg.total_bytes == 100 * 7 * 8


# ---------------------------------------------------------------------------
# Codelets as data: a spec rebuilds one codelet, read one way
# ---------------------------------------------------------------------------

def test_a_spec_whose_source_is_not_its_fingerprints_is_refused():
    """The kernel comes from the fingerprint and the interpreted function
    from the source: a spec where they differ would read one way fused
    and another interpreted, so it is refused."""
    spec = {"name": "units/a", "side": "reader", "fingerprint": "units:a:2.5",
            "source": "def condition(vars):\n    return vars\n"}
    with pytest.raises(CodeletError, match="not the one its fingerprint"):
        DCPlugin.from_spec(spec)


@pytest.mark.parametrize("made", [
    unit_conversion_plugin("a", 2.5), sampling_plugin(3, only=("a",)),
    range_select_plugin("a", 0, 0.0, 1.0), annotation_plugin("k", 1.0),
    bounding_box_plugin(),
], ids=lambda p: p.kernel.fingerprint)
def test_a_fingerprinted_spec_rebuilds_its_factorys_codelet(made):
    """Under any name and on either side, a shipped codelet's spec
    rebuilds the factory's source and kernel."""
    spec = {**made.spec(), "name": "renamed", "side": "writer"}
    back = DCPlugin.from_spec(spec)
    assert (back.name, back.side, back.source) == ("renamed", PluginSide.WRITER, made.source)
    assert back.kernel.fingerprint == made.kernel.fingerprint
    assert back.spec() == spec
