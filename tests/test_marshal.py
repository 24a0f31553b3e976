"""Unit + property tests for the FFS/PBIO-like marshaling layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.marshal import (
    Field,
    FieldKind,
    Format,
    FormatRegistry,
    MarshalError,
    decode_message,
    encode_message,
)


def particle_format():
    return Format(
        "particles",
        (
            Field("timestep", FieldKind.INT64),
            Field("rank", FieldKind.INT64),
            Field("label", FieldKind.STRING),
            Field("weights", FieldKind.ARRAY),
            Field("offsets", FieldKind.LIST_INT64),
            Field("final", FieldKind.BOOL),
        ),
    )


# ---------------------------------------------------------------------------
# Format / registry
# ---------------------------------------------------------------------------

def test_format_id_stable_across_instances():
    assert particle_format().format_id == particle_format().format_id


def test_format_id_is_hashed_once_per_format(monkeypatch):
    import hashlib

    from repro.marshal import format as format_mod

    calls = []

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            calls.append(bytes(data))
            return hashlib.sha256(data)

    monkeypatch.setattr(format_mod, "hashlib", CountingHashlib)
    a, b = particle_format(), particle_format()
    ids = [a.format_id for _ in range(50)]
    # One hash per Format built, however often the id is read ...
    assert calls == [a.self_description(), b.self_description()]
    # ... and the id is still the wire id: SHA-256 of the schema bytes.
    assert set(ids) == {b.format_id} == {
        int.from_bytes(hashlib.sha256(a.self_description()).digest()[:8], "big")
    }
    # The cached id is not part of the value.
    assert a == b and hash(a) == hash(b) and "format_id" not in repr(a)


def test_format_id_sensitive_to_schema():
    a = Format("x", (Field("a", FieldKind.INT64),))
    b = Format("x", (Field("a", FieldKind.FLOAT64),))
    c = Format("y", (Field("a", FieldKind.INT64),))
    assert len({a.format_id, b.format_id, c.format_id}) == 3


def test_format_rejects_duplicate_fields():
    with pytest.raises(ValueError):
        Format("bad", (Field("a", FieldKind.INT64), Field("a", FieldKind.INT64)))


def test_format_rejects_empty_name():
    with pytest.raises(ValueError):
        Format("", ())


def test_field_validation():
    with pytest.raises(ValueError):
        Field("", FieldKind.INT64)
    with pytest.raises(TypeError):
        Field("x", 1)


def test_self_description_round_trip():
    fmt = particle_format()
    desc = fmt.self_description()
    parsed, consumed = Format.from_self_description(desc + b"trailing")
    assert consumed == len(desc)
    assert parsed == fmt
    assert parsed.format_id == fmt.format_id


def test_registry_define_and_lookup():
    reg = FormatRegistry()
    fmt = reg.define("msg", [("a", FieldKind.INT64), ("b", FieldKind.STRING)])
    assert reg.by_name("msg") is fmt
    assert reg.by_id(fmt.format_id) is fmt
    assert reg.knows(fmt)
    assert len(reg) == 1


def test_registry_rejects_conflicting_redefinition():
    reg = FormatRegistry()
    reg.define("msg", [("a", FieldKind.INT64)])
    with pytest.raises(ValueError):
        reg.define("msg", [("a", FieldKind.FLOAT64)])


def test_registry_idempotent_reregistration():
    reg = FormatRegistry()
    reg.define("msg", [("a", FieldKind.INT64)])
    reg.define("msg", [("a", FieldKind.INT64)])
    assert len(reg) == 1


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------

def test_round_trip_all_kinds():
    fmt = particle_format()
    record = {
        "timestep": 42,
        "rank": -3,
        "label": "zions-π",  # non-ascii
        "weights": np.arange(12, dtype=np.float64).reshape(3, 4),
        "offsets": [0, 7, 19],
        "final": True,
    }
    wire = encode_message(fmt, record)
    reg = FormatRegistry()
    out_fmt, out = decode_message(wire, reg)
    assert out_fmt == fmt
    assert out["timestep"] == 42
    assert out["rank"] == -3
    assert out["label"] == "zions-π"
    np.testing.assert_array_equal(out["weights"], record["weights"])
    assert out["offsets"] == [0, 7, 19]
    assert out["final"] is True


def test_schema_inlined_only_on_first_contact():
    fmt = particle_format()
    record = {
        "timestep": 1, "rank": 0, "label": "x",
        "weights": np.zeros(2), "offsets": [], "final": False,
    }
    peer = FormatRegistry()
    first = encode_message(fmt, record, peer_registry=peer)
    # Decode teaches the peer the schema.
    decode_message(first, peer)
    second = encode_message(fmt, record, peer_registry=peer)
    assert len(second) < len(first)
    # And the peer can still decode the id-only message.
    _, out = decode_message(second, peer)
    assert out["timestep"] == 1


def test_decode_unknown_id_without_schema_fails():
    fmt = particle_format()
    record = {
        "timestep": 1, "rank": 0, "label": "x",
        "weights": np.zeros(1), "offsets": [], "final": False,
    }
    peer = FormatRegistry()
    peer.register(fmt)  # sender believes peer knows it
    wire = encode_message(fmt, record, peer_registry=peer)
    fresh = FormatRegistry()  # but this decoder does not
    with pytest.raises(MarshalError):
        decode_message(wire, fresh)


def test_missing_field_rejected():
    fmt = particle_format()
    with pytest.raises(MarshalError):
        encode_message(fmt, {"timestep": 1})


def test_bad_magic_rejected():
    with pytest.raises(MarshalError):
        decode_message(b"\x00" * 32, FormatRegistry())


def test_truncated_message_rejected():
    with pytest.raises(MarshalError):
        decode_message(b"\x01\x02", FormatRegistry())


def test_unpackable_value_rejected():
    fmt = Format("m", (Field("a", FieldKind.INT64),))
    with pytest.raises(MarshalError):
        encode_message(fmt, {"a": "not an int"})


def test_array_preserves_dtype_and_order():
    fmt = Format("m", (Field("a", FieldKind.ARRAY),))
    arr = np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3))
    wire = encode_message(fmt, {"a": arr})
    _, out = decode_message(wire, FormatRegistry())
    assert out["a"].dtype == np.int32
    np.testing.assert_array_equal(out["a"], arr)


def test_empty_array_round_trip():
    fmt = Format("m", (Field("a", FieldKind.ARRAY),))
    wire = encode_message(fmt, {"a": np.zeros((0, 5))})
    _, out = decode_message(wire, FormatRegistry())
    assert out["a"].shape == (0, 5)


# ---------------------------------------------------------------------------
# Property-based round trips
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ts=st.integers(min_value=-(2**62), max_value=2**62),
    label=st.text(max_size=40),
    offsets=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=20),
    flag=st.booleans(),
)
def test_property_scalar_round_trip(ts, label, offsets, flag):
    fmt = Format(
        "prop",
        (
            Field("ts", FieldKind.INT64),
            Field("label", FieldKind.STRING),
            Field("offsets", FieldKind.LIST_INT64),
            Field("flag", FieldKind.BOOL),
        ),
    )
    wire = encode_message(fmt, {"ts": ts, "label": label, "offsets": offsets, "flag": flag})
    _, out = decode_message(wire, FormatRegistry())
    assert out == {"ts": ts, "label": label, "offsets": offsets, "flag": flag}


@settings(max_examples=40, deadline=None)
@given(
    arr=hnp.arrays(
        dtype=st.sampled_from([np.float64, np.int64, np.float32, np.uint8]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
    )
)
def test_property_array_round_trip(arr):
    fmt = Format("arr", (Field("a", FieldKind.ARRAY),))
    wire = encode_message(fmt, {"a": arr})
    _, out = decode_message(wire, FormatRegistry())
    np.testing.assert_array_equal(out["a"], arr)
    assert out["a"].dtype == arr.dtype


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=200))
def test_property_bytes_round_trip(data):
    fmt = Format("b", (Field("payload", FieldKind.BYTES),))
    wire = encode_message(fmt, {"payload": data})
    _, out = decode_message(wire, FormatRegistry())
    assert out["payload"] == data


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    kinds=st.lists(st.sampled_from(list(FieldKind)), min_size=8, max_size=8),
)
def test_property_schema_self_description_round_trip(names, kinds):
    fields = tuple(Field(n, k) for n, k in zip(names, kinds))
    fmt = Format("schema", fields)
    parsed, _ = Format.from_self_description(fmt.self_description())
    assert parsed == fmt
