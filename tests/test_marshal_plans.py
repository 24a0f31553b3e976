"""The generated per-format codec plans against an independent oracle.

* Golden bytes: every :data:`PROTOCOL_REGISTRY` format and a BP-lite var
  record encode to the hex the per-field interpreter wrote before plans
  existed (checkpoint files and BP files written then still read back,
  and vice versa).
* A struct-per-field reference encoder, written here and sharing nothing
  with the codec, is the oracle for a hypothesis round trip over every
  :class:`FieldKind`.
* Malformed input: every truncation and a byte flip at every offset of
  one message, through both decoders, raises the exception type it
  raised under the interpreter (recorded below).
* Field names are data, never code: hostile names round-trip and the
  generated functions carry none of them.
"""

import builtins
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adios import bp
from repro.marshal import (
    Field,
    FieldKind,
    Format,
    FormatRegistry,
    decode_message,
    decode_stream,
    decode_view,
    encode_into,
    encode_message,
    encoded_size,
)
from repro.marshal import codec
from repro.net.protocol import (
    HEADER,
    MAGIC as FRAME_MAGIC,
    PROTOCOL_REGISTRY,
    PROTOCOL_VERSION,
    VAR_FORMAT,
    MsgType,
    ProtocolError,
    decode_frame,
    decode_var,
)


# ---------------------------------------------------------------------------
# The oracle: one struct call per field, nothing shared with the codec
# ---------------------------------------------------------------------------

def reference_encode(fmt: Format, record: dict, inline: bool = True) -> bytes:
    body = b""
    for f in fmt.fields:
        v = record[f.name]
        if f.kind is FieldKind.INT64:
            body += struct.pack("<q", int(v))
        elif f.kind is FieldKind.FLOAT64:
            body += struct.pack("<d", float(v))
        elif f.kind is FieldKind.BOOL:
            body += struct.pack("<B", 1 if v else 0)
        elif f.kind is FieldKind.STRING:
            b = str(v).encode("utf-8")
            body += struct.pack("<I", len(b)) + b
        elif f.kind is FieldKind.BYTES:
            b = bytes(v)
            body += struct.pack("<Q", len(b)) + b
        elif f.kind is FieldKind.LIST_INT64:
            body += struct.pack("<I", len(v)) + b"".join(struct.pack("<q", int(x)) for x in v)
        else:
            a = np.ascontiguousarray(v)
            dt = a.dtype.str.encode("ascii")
            body += struct.pack("<B", len(dt)) + dt + struct.pack("<B", a.ndim)
            body += b"".join(struct.pack("<Q", d) for d in a.shape)
            body += struct.pack("<Q", a.nbytes) + a.tobytes()
    schema = fmt.self_description() if inline else b""
    return (struct.pack("<IBQ", 0x0FF5F0CD, 1 if inline else 0, fmt.format_id)
            + schema + struct.pack("<Q", len(body)) + body)


def value(kind: FieldKind, name: str):
    """A deterministic value of ``kind``, varied by the field's name."""
    return {
        FieldKind.STRING: f"{name}-é",
        FieldKind.INT64: -(len(name) * 1000003),
        FieldKind.FLOAT64: len(name) / 7.0,
        FieldKind.BOOL: len(name) % 2 == 0,
        FieldKind.LIST_INT64: [len(name), -1, 2**40],
        FieldKind.BYTES: name.encode() + b"\x00\xff",
        FieldKind.ARRAY: np.arange(6, dtype="<f4").reshape(2, 3) * len(name),
    }[kind]


def sample(fmt: Format) -> dict:
    return {f.name: value(f.kind, f.name) for f in fmt.fields}


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.ascontiguousarray(b)  # as sent: 0-d goes 1-d
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b and type(a) is type(b)


def assert_record(got: dict, want: dict, fmt: Format) -> None:
    assert list(got) == fmt.field_names()
    for f in fmt.fields:
        if f.kind is FieldKind.BYTES:
            assert bytes(got[f.name]) == bytes(want[f.name])
        else:
            assert same(got[f.name], want[f.name] if f.kind is not FieldKind.LIST_INT64
                        else [int(x) for x in want[f.name]]), f.name


# ---------------------------------------------------------------------------
# Golden bytes: what the interpreter wrote, for every wire format
# ---------------------------------------------------------------------------

#: ``encode_message(fmt, sample(fmt), PROTOCOL_REGISTRY)`` before plans
#: (``net.ckpt.head``, ``net.ckpt.session`` and ``net.ckpt.tenant``: the
#: oracle's bytes for checkpoint v3; ``net.attach``, ``net.step_data``,
#: ``net.step_ref``, ``net.chain``, ``net.chain_reply`` and the
#: ``net.ckpt`` stream, step and run records: protocol v9's and
#: checkpoint v5's, which changed or added them).
GOLDEN = {
    "net.attach": "cdf0f50f00d04dfc926f7e304646000000000000000a00000073657373696f6e2dc3a90c00000073747265616d5f69642dc3a907000000726f6c652dc3a901b1b4b3ffffffffff080000006e6f6e63652dc3a9f4f6c2ffffffffff",
    "net.bye": "cdf0f50f00f8a97d6c67c66e3c0d0000000000000009000000726561736f6e2dc3a9",
    "net.chain": "cdf0f50f00873a313d53a109a04b000000000000000900000073747265616d2dc3a9050000006f702dc3a9070000006e616d652dc3a907000000736964652dc3a909000000736f757263652dc3a90e00000066696e6765727072696e742dc3a9",
    "net.chain_reply": "cdf0f50f00dfc9e35e547fc6381400000000000000626967ffffffffff08000000636861696e2dc3a9",
    "net.ckpt.head": "cdf0f50f00bbbccf31ef9670cf1d000000000000002b3095ffffffffff922449922449e23f090000007365727665722dc3a9",
    "net.ckpt.run": "cdf0f50f00c5029ea17c4b85832900000000000000f4f6c2ffffffffffb1b4b3ffffffffff6e72a4ffffffffff09000000000000007061796c6f616400ff",
    "net.ckpt.session": "cdf0f50f0004332c7b1e53687035000000000000000a00000073657373696f6e2dc3a90900000074656e616e742dc3a909000000636c69656e742dc3a909000000726573756d652dc3a9",
    "net.ckpt.step": "cdf0f50f00b6fb6533cd433e392900000000000000f4f6c2ffffffffffb1b4b3ffffffffff6e72a4ffffffffff09000000000000007061796c6f616400ff",
    "net.ckpt.stream": "cdf0f50f00d64bfde217f90b2406010000000000000c00000073747265616d5f69642dc3a90900000074656e616e742dc3a9070000006e616d652dc3a9a5ab76ffffffffffe8ed85ffffffffff01080000006572726f722dc3a96e72a4ffffffffff1f2758ffffffffffb1b4b3ffffffffff030000000500000000000000ffffffffffffffff0000000000010000090000006f776e6572732dc3a9030000000600000000000000ffffffffffffffff0000000000010000030000000500000000000000ffffffffffffffff0000000000010000030000000400000000000000ffffffffffffffff0000000000010000f4f6c2ffffffffffb76ddbb66ddbe63f254992244992f43f08000000636861696e2dc3a9626967ffffffffff",
    "net.ckpt.tenant": "cdf0f50f009825292ab3c340d13000000000000000070000006e616d652dc3a908000000746f6b656e2dc3a9001f2758ffffffffff499224499224f93f626967ffffffffff",
    "net.eos": "cdf0f50f0033a6be786ffcd9400800000000000000f4f6c2ffffffffff",
    "net.error": "cdf0f50f00bb86592a811a51cb1900000000000000070000006b696e642dc3a90a0000006d6573736167652dc3a9",
    "net.fetch": "cdf0f50f0049e46124fb89a3e01000000000000000f4f6c2ffffffffff922449922449e23f",
    "net.grant": "cdf0f50f009ce82b24e15823ab29000000000000000900000064657461696c2dc3a907000000706f6f6c2dc3a96e72a4ffffffffffe8ed85ffffffffff00",
    "net.heartbeat": "cdf0f50f00378689050363270d0d000000000000000900000073747265616d2dc3a9",
    "net.hello": "cdf0f50f00b8400025b1d8226c33000000000000000900000074656e616e742dc3a908000000746f6b656e2dc3a909000000636c69656e742dc3a909000000726573756d652dc3a9",
    "net.not_ready": "cdf0f50f00883318a69fb293910800000000000000f4f6c2ffffffffff",
    "net.ok": "cdf0f50f00002e03ea159e23ae0e000000000000000900000064657461696c2dc3a900",
    "net.open": "cdf0f50f0015617ec5ff42d4a43e000000000000000900000073747265616d2dc3a9070000006d6f64652dc3a90a00000070726f6772616d2dc3a9f4f6c2ffffffffffa5ab76ffffffffffb76ddbb66ddbe63f",
    "net.open_reply": "cdf0f50f008693a1977daa7d9a18000000000000000c00000073747265616d5f69642dc3a9a5ab76ffffffffff",
    "net.publish": "cdf0f50f001c1d618ea61319fa1900000000000000f4f6c2ffffffffffb1b4b3ffffffffff003739d2ffffffffff",
    "net.publish_ref": "cdf0f50f00260165a05d9b88c33400000000000000f4f6c2ffffffffffb1b4b3ffffffffff003739d2ffffffffff07000000706f6f6c2dc3a96e72a4ffffffffff6e72a4ffffffffff",
    "net.retry_after": "cdf0f50f008c4256eefb823f6b1500000000000000b76ddbb66ddbe63f09000000726561736f6e2dc3a9",
    "net.step_data": "cdf0f50f000fe39d86e67d323d1000000000000000b1b4b3ffffffffff6e72a4ffffffffff",
    "net.step_ref": "cdf0f50f00a2fa2945c321c99c2b00000000000000b1b4b3ffffffffff6e72a4ffffffffff07000000706f6f6c2dc3a96e72a4ffffffffff6e72a4ffffffffff",
    "net.var": "cdf0f50f00c2c0fe68499be50dad00000000000000070000006e616d652dc3a91f2758ffffffffff030000000500000000000000ffffffffffffffff0000000000010000030000000500000000000000ffffffffffffffff0000000000010000030000000600000000000000ffffffffffffffff0000000000010000922449922449e23f922449922449e23f00033c66340202000000000000000300000000000000180000000000000000000000000080400000004100004041000080410000a041",
    "net.welcome": "cdf0f50f00e8945dfcf578a9503c000000000000000a00000073657373696f6e2dc3a9090000007365727665722dc3a9a5ab76ffffffffff09000000726573756d652dc3a90007000000706f6f6c2dc3a9",
}

#: ``encode_message(bp._VAR_FMT, sample(...))``: a BP-lite var record, schema inlined.
GOLDEN_BP = (
    "cdf0f50f0181bcad51f912c4ba0a00000062706c6974652e76617209000000040000006e"
    "616d65030400000073746570010400000072616e6b010400000064617461050700000068"
    "61735f626f780609000000626f785f73746172740709000000626f785f636f756e74070a"
    "0000006861735f676c6f62616c060c000000676c6f62616c5f736861706507a600000000"
    "000000070000006e616d652dc3a9f4f6c2fffffffffff4f6c2ffffffffff033c66340202"
    "000000000000000300000000000000180000000000000000000000000080400000004100"
    "004041000080410000a04100030000000900000000000000ffffffffffffffff00000000"
    "00010000030000000900000000000000ffffffffffffffff000000000001000001030000"
    "000c00000000000000ffffffffffffffff0000000000010000"
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_protocol_format_encodes_to_its_golden_bytes(name):
    fmt = PROTOCOL_REGISTRY.by_name(name)
    rec = sample(fmt)
    want = bytes.fromhex(GOLDEN[name])
    assert encode_message(fmt, rec, PROTOCOL_REGISTRY) == want
    assert reference_encode(fmt, rec, inline=False) == want
    assert encoded_size(fmt, rec, PROTOCOL_REGISTRY) == len(want)
    out = np.full(len(want) + 5, 0xAA, dtype=np.uint8)
    assert encode_into(fmt, rec, out, PROTOCOL_REGISTRY) == len(want)
    assert out[:len(want)].tobytes() == want and (out[len(want):] == 0xAA).all()
    for decoded in (decode_message(want, PROTOCOL_REGISTRY),
                    decode_view(np.frombuffer(want, np.uint8), PROTOCOL_REGISTRY)):
        assert decoded[0] is fmt
        assert_record(decoded[1], rec, fmt)


def test_golden_covers_the_whole_registry():
    assert len(GOLDEN) == len(PROTOCOL_REGISTRY)
    assert all(PROTOCOL_REGISTRY.by_name(name) is not None for name in GOLDEN)


def test_a_bp_record_encodes_to_its_golden_bytes_and_reads_back():
    rec = sample(bp._VAR_FMT)
    want = bytes.fromhex(GOLDEN_BP)
    assert encode_message(bp._VAR_FMT, rec) == want == reference_encode(bp._VAR_FMT, rec)
    fmt, got, used = decode_stream(want + b"next", FormatRegistry())
    assert used == len(want) and fmt == bp._VAR_FMT
    assert_record(got, rec, bp._VAR_FMT)


# ---------------------------------------------------------------------------
# The oracle, over every kind
# ---------------------------------------------------------------------------

KIND_VALUES = {
    FieldKind.INT64: st.integers(-2**63, 2**63 - 1),
    FieldKind.FLOAT64: st.floats(allow_nan=False),
    FieldKind.BOOL: st.booleans(),
    FieldKind.STRING: st.text(max_size=20),
    FieldKind.BYTES: st.binary(max_size=40),
    FieldKind.LIST_INT64: st.lists(st.integers(-2**63, 2**63 - 1), max_size=6),
    FieldKind.ARRAY: st.sampled_from(["<f8", "<i4", "|u1", "<c16", ">i2", "|b1"]).flatmap(
        lambda dt: st.lists(st.integers(0, 3), min_size=0, max_size=3).map(
            lambda shape: (np.arange(int(np.prod(shape)) if shape else 1) % 7).astype(dt)
            .reshape(shape))),
}


@st.composite
def formats_and_records(draw):
    kinds = draw(st.lists(st.sampled_from(list(FieldKind)), min_size=0, max_size=9))
    names = draw(st.lists(st.text(min_size=1, max_size=8).filter(lambda s: "\x00" not in s),
                          min_size=len(kinds), max_size=len(kinds), unique=True))
    fmt = Format(draw(st.text(min_size=1, max_size=6)),
                 tuple(Field(n, k) for n, k in zip(names, kinds)))
    return fmt, {n: draw(KIND_VALUES[k]) for n, k in zip(names, kinds)}


@settings(max_examples=150, deadline=None)
@given(case=formats_and_records(), known=st.booleans())
def test_plans_match_the_reference_encoder_and_round_trip(case, known):
    fmt, rec = case
    peer = FormatRegistry()
    if known:
        peer.register(fmt)
    want = reference_encode(fmt, rec, inline=not known)
    assert encode_message(fmt, rec, peer) == want
    assert encoded_size(fmt, rec, peer) == len(want)
    out = bytearray(len(want))
    assert encode_into(fmt, rec, out, peer) == len(want) and bytes(out) == want
    for decode in (decode_stream, lambda w, r: decode_view(np.frombuffer(w, np.uint8), r)):
        got_fmt, got, used = decode(want, peer if known else FormatRegistry())
        assert got_fmt == fmt and used == len(want)
        assert_record(got, rec, fmt)


def test_a_detached_tail_is_counted_not_copied():
    fmt = Format("t", (Field("n", FieldKind.INT64), Field("a", FieldKind.ARRAY)))
    rec = {"n": 3, "a": np.arange(100, dtype=np.float64)}
    size = encoded_size(fmt, rec)
    out = np.zeros(size - 800, dtype=np.uint8)
    assert encode_into(fmt, rec, out, detach_tail=True) == size
    assert out.tobytes() + rec["a"].tobytes() == reference_encode(fmt, rec)


# ---------------------------------------------------------------------------
# Malformed input: the interpreter's exception types, case by case
# ---------------------------------------------------------------------------

#: One message with every kind, plus a trailing array.
ALL_KINDS = Format("all", tuple(Field(f"f{k.name.lower()}", k) for k in FieldKind)
                   + (Field("tail", FieldKind.ARRAY),))

OUTCOME_CODES = {"ok": "o", "MarshalError": "M", "UnicodeDecodeError": "U",
                 "ValueError": "V", "error": "S", "TypeError": "T", "OverflowError": "O"}


def malformed_cases():
    """Every truncation, and every byte inverted, of the message with its
    schema inlined and without."""
    known = FormatRegistry()
    known.register(ALL_KINDS)
    for wire, knows in ((encode_message(ALL_KINDS, sample(ALL_KINDS)), False),
                        (encode_message(ALL_KINDS, sample(ALL_KINDS), known), True)):
        for cut in range(len(wire)):
            yield wire[:cut], knows
        for pos in range(len(wire)):
            flipped = bytearray(wire)
            flipped[pos] ^= 0xFF
            yield bytes(flipped), knows


def outcomes() -> str:
    def run(decode, data, knows):
        registry = FormatRegistry()
        if knows:
            registry.register(ALL_KINDS)
        try:
            decode(data, registry)
        except Exception as exc:  # the type is the observation
            return OUTCOME_CODES[type(exc).__name__]
        return "o"

    return "".join(
        run(decode_message, data, knows)
        + run(lambda d, r: decode_view(np.frombuffer(d, np.uint8), r), data, knows)
        for data, knows in malformed_cases())


#: ``outcomes()`` under the per-field interpreter: decode_message then
#: decode_view per case, coded by OUTCOME_CODES.
INTERPRETER_OUTCOMES = (
    "MMMMMMMMMMMMMMMMMMMMMMMMMMSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS"
    "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS"
    "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSS"
    "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMUUUUUUUUUU"
    "UUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUVVUUUUUUUUUUUUUUUUUUUUUUUUVVUUUUUUUUUUUU"
    "UUUUUUUUUUVVUUUUUUUUUUUUUUUUUUUUVVUUUUUUUUUUUUUUUUUUUUVVUUUUUUUUUUUUUUUU"
    "UUVVUUUUUUUUUUUUUUUUUUUUUUUUUUUUUUVVUUUUUUUUUUUUUUUUVVMMMMMMMMMMMMMMMMoo"
    "ooooooooooooooooooooooooooooooUUUUUUUUUUUUUUUUUUUUUUUUUUUUSSSSSSSSSSSSSS"
    "OOooooooooooooooooUUUUUUUUSSVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVVV"
    "VVVVooooooooooooooooooooooooooooooooooooooooooooooooooSSSSSSSSoooooooooo"
    "ooooooooooooooooooooooooooooooooooooooUUUUUUUUSSVVVVVVVVVVVVVVVVVVVVVVVV"
    "VVVVVVVVMVMVMVMVMVMVMVMVoooooooooooooooooooooooooooooooooooooooooooooooo"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMSSSSSSSSSSSSSSSSMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMUUMMMMMMMMMMMMMMMMMM"
    "MMMMMMMMMMMMMMooooooooooooooooooooooooooooooooUUUUUUUUUUUUUUUUUUUUUUUUUU"
    "UUSSSSSSSSSSSSSSOOooooooooooooooooUUUUUUUUSSVVVVVVVVVVVVVVVVVVVVVVVVVVVV"
    "VVVVVVVVVVVVVVVVVVVVooooooooooooooooooooooooooooooooooooooooooooooooooSS"
    "SSSSSSooooooooooooooooooooooooooooooooooooooooooooooooUUUUUUUUSSVVVVVVVV"
    "VVVVVVVVVVVVVVVVVVVVVVVVMVMVMVMVMVMVMVMVoooooooooooooooooooooooooooooooo"
    "oooooooooooooooo"
)


def test_malformed_input_raises_what_the_interpreter_raised():
    got = outcomes()
    diffs = [(i // 2, want, have) for i, (want, have)
             in enumerate(zip(INTERPRETER_OUTCOMES, got)) if want != have]
    assert len(got) == len(INTERPRETER_OUTCOMES) and not diffs, diffs[:10]


# ---------------------------------------------------------------------------
# Field names are data
# ---------------------------------------------------------------------------

HOSTILE = [
    "a'b", 'a"b', "x\ny", "'''", '"""', "\\", "}", "{0}", "N[0]", "r", "off",
    "__import__('builtins').setattr(__import__('builtins'), 'PWNED', 1)",
    "'); __import__('os').system('exit 7'); ('",
]


def test_hostile_field_names_round_trip_and_inject_nothing():
    kinds = list(FieldKind)
    fmt = Format("evil\n'\"", tuple(Field(n, kinds[i % len(kinds)])
                                   for i, n in enumerate(HOSTILE)))
    rec = sample(fmt)
    wire = encode_message(fmt, rec)
    assert wire == reference_encode(fmt, rec)
    peer = FormatRegistry()
    got_fmt, got = decode_message(wire, peer)
    assert_record(got, rec, got_fmt)
    assert_record(decode_view(np.frombuffer(wire, np.uint8), FormatRegistry())[1], rec, fmt)
    assert not hasattr(builtins, "PWNED")
    for plan in (fmt._plan, got_fmt._plan):
        for fn in (plan.size, plan.pack, plan.unpack, plan.unpack_view):
            consts = repr(fn.__code__.co_consts)
            assert not any(name in consts for name in HOSTILE if len(name) > 3)


def test_a_plan_is_built_once_per_format(monkeypatch):
    built = []
    compile_plan = codec._compile
    monkeypatch.setattr(codec, "_compile", lambda fmt: built.append(fmt) or compile_plan(fmt))
    fmt = Format("once", (Field("a", FieldKind.INT64), Field("s", FieldKind.STRING)))
    reg = FormatRegistry()
    for i in range(20):
        wire = encode_message(fmt, {"a": i, "s": "x"})  # schema inlined every time
        assert decode_message(wire, reg)[1] == {"a": i, "s": "x"}
    # One plan for the sender's Format, one for the Format the receiver
    # learned: an inlined schema it already knows keeps its registered one.
    assert [b is fmt for b in built] == [True, False]
    assert reg.by_name("once") is built[1]


def test_bad_values_name_their_field():
    fmt = Format("m", (Field("a", FieldKind.INT64), Field("b", FieldKind.FLOAT64),
                       Field("c", FieldKind.BOOL), Field("d", FieldKind.LIST_INT64)))
    good = {"a": 1, "b": 2.0, "c": True, "d": [1]}
    for field, bad in (("a", "x"), ("b", "y"), ("a", 2**64), ("d", ["z"]), ("d", 5)):
        with pytest.raises(codec.MarshalError, match=f"field '{field}'"):
            encode_message(fmt, {**good, field: bad})
    with pytest.raises(codec.MarshalError, match=r"missing fields \['c'\]"):
        encoded_size(fmt, {"a": 1, "b": 2.0, "d": []})
    short = bytearray(encoded_size(fmt, good) - 3)
    with pytest.raises(codec.MarshalError, match="field 'd'"):
        encode_into(fmt, good, short)


# ---------------------------------------------------------------------------
# Bugfix: a refused frame grows nothing
# ---------------------------------------------------------------------------

def hostile_frames(n: int) -> list:
    """FETCH headers over bodies that inline a schema: a fresh format each,
    or the FETCH format's own id over a schema that is not it."""
    frames = []
    fetch_id = PROTOCOL_REGISTRY.by_name("net.fetch").format_id
    for i in range(n):
        fmt = Format(f"evil.{i}", (Field("step", FieldKind.INT64),
                                   Field(f"x{i}", FieldKind.FLOAT64)))
        body = bytearray(encode_message(fmt, {"step": 1, f"x{i}": 0.5}))
        if i % 2:
            struct.pack_into("<Q", body, 5, fetch_id)  # the right id, a lying schema
        head = HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, int(MsgType.FETCH), 0, i)
        frames.append(head + bytes(body))
    return frames


def test_refused_frames_leave_the_registry_and_the_plans_alone(monkeypatch):
    frames = hostile_frames(1000)
    for name in GOLDEN:  # every format's plan, whether an earlier test built it or not
        codec._plan(PROTOCOL_REGISTRY.by_name(name))
    built = []
    compile_plan = codec._compile
    monkeypatch.setattr(codec, "_compile", lambda fmt: built.append(fmt) or compile_plan(fmt))
    known = len(PROTOCOL_REGISTRY)
    kinds = set()
    for raw in frames:
        with pytest.raises(ProtocolError) as err:
            decode_frame(raw)
        kinds.add(type(err.value))
        with pytest.raises(ProtocolError):
            decode_var(raw, HEADER.size)
    assert kinds == {ProtocolError}
    assert len(PROTOCOL_REGISTRY) == known and built == []


def test_an_inlined_schema_that_is_the_right_one_decodes_and_learns_nothing():
    body = encode_message(PROTOCOL_REGISTRY.by_name("net.fetch"), {"step": 4, "wait": 0.5})
    raw = HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, int(MsgType.FETCH), 0, 1) + body
    known = len(PROTOCOL_REGISTRY)
    assert decode_frame(raw).record == {"step": 4, "wait": 0.5}
    assert len(PROTOCOL_REGISTRY) == known
    var = encode_message(VAR_FORMAT, {"name": "v", "writer_rank": 0, "start": [], "shape": [2],
                                      "gshape": [], "vmin": 0.0, "vmax": 0.0,
                                      "has_stats": False, "data": np.ones(2)})
    assert decode_var(var, 0)[0]["name"] == "v" and len(PROTOCOL_REGISTRY) == known
