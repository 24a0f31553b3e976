"""Tests for XML-hint-driven stream behaviour (caching/batching/buffering)."""

import numpy as np
import pytest

from repro.adios import Adios, RankContext, block_decompose
from repro.adios.config import MethodSpec
from repro.core import CachingOption, stream_registry
from repro.core.hints import (
    STREAM_HINTS,
    HintValueError,
    StreamError,
    StreamHints,
    UnknownHintError,
    stream_params,
)

CONFIG_TMPL = """
<adios-config>
  <adios-group name="fields">
    <var name="temp" type="float64" dimensions="8,8"/>
    <var name="pressure" type="float64" dimensions="8,8"/>
  </adios-group>
  <method group="fields" method="FLEXPATH">{params}</method>
</adios-config>
"""


@pytest.fixture(autouse=True)
def fresh_registry():
    stream_registry.reset()
    yield
    stream_registry.reset()


def run_stream(params, steps=3, vars_per_step=("temp",), name="hints.test"):
    """Write `steps` steps of global arrays and read them back; returns
    (handshake messages each read cost — the delta of the
    ``handshake.messages`` counter around it —, stream state)."""
    ad = Adios.from_xml(CONFIG_TMPL.format(params=params))
    shape = (8, 8)
    boxes = block_decompose(shape, (2, 2))
    writers = [ad.open_write("fields", name, RankContext(r, 4)) for r in range(4)]
    full = np.arange(64.0).reshape(shape)
    for _ in range(steps):
        for r, w in enumerate(writers):
            for var in vars_per_step:
                w.write(var, full[boxes[r].slices()].copy(), box=boxes[r], global_shape=shape)
        for w in writers:
            w.end_step()
    for w in writers:
        w.close()

    reader = ad.open_read("fields", name, RankContext(0, 1))
    state = stream_registry._states[name]
    counter = state.monitor.metrics.counter("handshake.messages")
    msgs = []
    for s in range(steps):
        for var in vars_per_step:
            before = counter.value
            np.testing.assert_array_equal(reader.read(var), full)
            msgs.append(counter.value - before)
        if s < steps - 1:
            reader._advance()
    return msgs, state


# ---------------------------------------------------------------------------
# Hint parsing
# ---------------------------------------------------------------------------

def test_hints_from_spec_defaults():
    h = StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {}))
    assert h.caching is CachingOption.NO_CACHING
    assert not h.batching and not h.sync and not h.xpmem


def test_hints_from_spec_full():
    spec = MethodSpec(
        "g", "FLEXPATH",
        {"caching": "ALL", "batching": "true", "sync": "yes",
         "xpmem": "1"},
    )
    h = StreamHints.from_spec(spec)
    assert h.caching is CachingOption.CACHING_ALL
    assert h.batching and h.sync and h.xpmem


def test_hints_bad_caching_rejected():
    with pytest.raises(StreamError):
        StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {"caching": "sometimes"}))


@pytest.mark.parametrize("key, choice", [
    (hint.key, choice)
    for hint in STREAM_HINTS.values() if hint.kind == "enum"
    for choice in hint.choices
])
def test_every_registered_enum_choice_round_trips(key, choice):
    """What the registry lists, the builder writes and the parser reads."""
    ad = Adios.from_xml(CONFIG_TMPL.format(params=stream_params(**{key: choice})))
    value = getattr(StreamHints.from_spec(ad.config.method_for("fields")), key)
    assert getattr(value, "value", value) == choice


def test_the_in_process_drain_takes_no_channel_ladder_or_pushdown_hint():
    """A sealed step is delivered by reference: ``transport`` has one
    choice, and no key tunes a channel ladder or in-process pushdown."""
    assert StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {"transport": "shm"})).transport == "shm"
    for rung in ("tcp", "rdma"):
        with pytest.raises(HintValueError, match="transport"):
            StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {"transport": rung}))
    for key in ("degrade_after", "pushdown"):
        with pytest.raises(UnknownHintError, match=key):
            StreamHints.from_spec(MethodSpec("g", "FLEXPATH", {key: "1"}))
        with pytest.raises(UnknownHintError, match=key):
            stream_params(**{key: 1})


# ---------------------------------------------------------------------------
# Handshake accounting behaviour
# ---------------------------------------------------------------------------

def test_no_caching_pays_every_step():
    msgs, _ = run_stream("caching=NONE", steps=3)
    assert len(msgs) == 3
    assert msgs[0] == msgs[1] == msgs[2] > 0


def test_caching_all_free_after_first_step():
    msgs, _ = run_stream("caching=ALL", steps=3)
    assert msgs[0] > 0
    assert msgs[1] == msgs[2] == 0


def test_caching_local_cheaper_than_none():
    none_msgs, _ = run_stream("caching=NONE", steps=2, name="a")
    stream_registry.reset()
    local_msgs, _ = run_stream("caching=LOCAL", steps=2, name="b")
    assert local_msgs[1] < none_msgs[1]
    assert local_msgs[1] > 0


def test_batching_one_round_per_step():
    unbatched, _ = run_stream("caching=NONE;batching=false",
                              vars_per_step=("temp", "pressure"), name="u")
    stream_registry.reset()
    batched, _ = run_stream("caching=NONE;batching=true",
                            vars_per_step=("temp", "pressure"), name="b")
    # Two variables: unbatched pays two rounds per step, batched one
    # (without caching every round costs messages).
    assert all(unbatched) and len(unbatched) == 6
    assert [m > 0 for m in batched] == [True, False] * 3


def test_changed_distribution_invalidates_caches():
    """Particle-movement scenario: writer block shapes change mid-stream."""
    stream_registry.reset()
    ad = Adios.from_xml(CONFIG_TMPL.format(params="caching=ALL"))
    name = "drift.test"
    shape = (8, 8)
    w = ad.open_write("fields", name, RankContext(0, 1))
    from repro.adios import BoundingBox

    w.write("temp", np.zeros((8, 8)), box=BoundingBox((0, 0), (8, 8)), global_shape=shape)
    w.end_step()
    w.write("temp", np.zeros((8, 8)), box=BoundingBox((0, 0), (8, 8)), global_shape=shape)
    w.end_step()
    # Step 3 arrives with a different (split) distribution.
    w2 = ad.open_write("fields", name, RankContext(0, 1))
    del w2  # same writer set; just vary the box below
    w.write("temp", np.zeros((4, 8)), box=BoundingBox((0, 0), (4, 8)), global_shape=shape)
    w.write("temp2_pad", np.zeros(1))  # noqa - fills nothing
    w.end_step()
    w.close()

    reader = ad.open_read("fields", name, RankContext(0, 1))
    counter = stream_registry._states[name].monitor.metrics.counter(
        "handshake.messages"
    )
    msgs = [counter.value]
    reader.read("temp")
    msgs.append(counter.value)
    reader._advance()
    reader.read("temp")  # cached: free
    msgs.append(counter.value)
    reader._advance()
    reader.read("temp", start=(0, 0), count=(4, 8))  # new distribution
    msgs.append(counter.value)
    msgs = [after - before for before, after in zip(msgs, msgs[1:])]
    assert msgs[0] > 0 and msgs[1] == 0 and msgs[2] > 0


def test_peak_buffered_bytes_tracked():
    _, state = run_stream("caching=NONE", steps=3)
    assert state.peak_buffered_bytes >= 3 * 64 * 8
