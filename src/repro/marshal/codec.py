"""Binary message encoding/decoding against registered formats.

Wire layout of one message::

    magic      u32   0x0FF5F0CD
    flags      u8    bit 0: schema inlined
    format_id  u64
    [schema]         self-description, iff flag bit 0
    body_len   u64
    body             packed fields in format order

Field packing:

    INT64      i64
    FLOAT64    f64
    BOOL       u8
    STRING     u32 len + utf-8 bytes
    BYTES      u64 len + raw bytes
    LIST_INT64 u32 count + count * i64
    ARRAY      u8 dtype-code-len + dtype str + u8 ndim + ndim * u64 shape
               + u64 nbytes + raw C-order data

Every entry point runs the format's **plan**: its size, pack and unpack
functions, generated from the field list the first time the format is
used and kept on the :class:`~repro.marshal.format.Format` (FFS's
dynamic code generation of conversion routines).  A run of fixed-width
fields is one ``struct.Struct``; every other kind is a fixed template.
Field names never enter the generated source — it indexes a tuple of
them — so a schema a peer sent cannot inject code.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Optional

import numpy as np

from repro.marshal.format import FieldKind, Format, FormatRegistry

MAGIC = 0x0FF5F0CD
_FLAG_SCHEMA = 0x01

#: magic u32, flags u8, format id u64; then the body length u64.
_HEAD = struct.Struct("<IBQ")
_BODY_LEN = struct.Struct("<Q")
_U8 = np.dtype(np.uint8)


class MarshalError(RuntimeError):
    """Malformed message, unknown format, or value/schema mismatch."""


# ---------------------------------------------------------------------------
# Plans: generated per format
# ---------------------------------------------------------------------------

#: Fixed-width kinds: struct code and how a value is packed.  ``"?"`` packs
#: any value's truth as one byte and unpacks a bool.
_SCALAR = {
    FieldKind.INT64: ("q", "int({})"),
    FieldKind.FLOAT64: ("d", "float({})"),
    FieldKind.BOOL: ("?", "{}"),
}

#: What packing a bad value can raise (reported as MarshalError).
_PACK_FAULTS = (TypeError, ValueError, OverflowError, struct.error)

# Templates of the variable-width kinds.  ``{v}`` is the value expression,
# ``{i}`` the field index; locals: ``mv``/``off`` (pack), ``m``/``off``
# (unpack; ``raw`` is the flat uint8 array ARRAY and BYTES values view).
_SIZE = {
    FieldKind.STRING: "4 + len(str({v}).encode('utf-8'))",
    FieldKind.BYTES: "8 + len({v})",
    FieldKind.LIST_INT64: "4 + 8 * len({v})",
    FieldKind.ARRAY: "array_size({v})",
}
_PACK = {
    FieldKind.STRING: """\
b = str({v}).encode('utf-8')
n = len(b)
U32.pack_into(mv, off, n)
mv[off + 4:off + 4 + n] = b
off += 4 + n""",
    FieldKind.BYTES: """\
b = {v}
if not isinstance(b, BUFFERS):
    b = bytes(b)
n = len(b)
U64.pack_into(mv, off, n)
mv[off + 8:off + 8 + n] = b
off += 8 + n""",
    FieldKind.LIST_INT64: """\
b = {v}
n = len(b)
struct_of(f'<I{{n}}q').pack_into(mv, off, n, *map(int, b))
off += 4 + 8 * n""",
    FieldKind.ARRAY: """\
a = ascontiguousarray({v})
t = a.dtype.str.encode('ascii')
n = a.nbytes
struct_of(f'<B{{len(t)}}sB{{a.ndim}}QQ').pack_into(mv, off, len(t), t, a.ndim, *a.shape, n)
off += 10 + len(t) + 8 * a.ndim
{copy}off += n""",
}
_ARRAY_COPY = "frombuffer(mv, U8, n, off)[:] = a.reshape(-1).view(U8)\n"
_UNPACK = {
    FieldKind.STRING: """\
(n,) = U32.unpack_from(m, off)
v{i} = str(m[off + 4:off + 4 + n], 'utf-8')
off += 4 + n""",
    FieldKind.LIST_INT64: """\
(n,) = U32.unpack_from(m, off)
_, *v{i} = struct_of(f'<I{{n}}q').unpack_from(m, off)
off += 4 + 8 * n""",
}
_ARRAY_HEAD = """\
(n,) = U8S.unpack_from(m, off)
t = dtype_of(bytes(m[off + 1:off + 1 + n]))
off += 1 + n
(n,) = U8S.unpack_from(m, off)
*shape, n = struct_of(f'<{{n}}QQ').unpack_from(m, off + 1)
off += 9 + 8 * len(shape)
"""
# ARRAY and BYTES values own their bytes, or view ``raw``; each way keeps
# the checks (and so the errors) the per-field interpreter had.
_UNPACK_COPY = {
    **_UNPACK,
    FieldKind.BYTES: """\
(n,) = U64.unpack_from(m, off)
v{i} = bytes(m[off + 8:off + 8 + n])
off += 8 + n""",
    FieldKind.ARRAY: _ARRAY_HEAD + """\
v{i} = frombuffer(m[off:off + n], t).reshape(shape).copy()
off += n""",
}
_UNPACK_VIEW = {
    **_UNPACK,
    FieldKind.BYTES: """\
(n,) = U64.unpack_from(m, off)
v{i} = raw[off + 8:off + 8 + n]
off += 8 + n""",
    FieldKind.ARRAY: _ARRAY_HEAD + """\
v{i} = frombuffer(raw, t, n // t.itemsize if t.itemsize else 0, off).reshape(shape)
off += n""",
}


#: A list's, or an array head's, struct — by its format, which a length
#: or a rank sets.
_struct_of = functools.lru_cache(maxsize=256)(struct.Struct)


@functools.lru_cache(maxsize=64)
def _dtype_of(code: bytes) -> np.dtype:
    return np.dtype(code.decode("ascii"))


def _array_size(value) -> int:
    arr = np.asarray(value)
    # max(): ascontiguousarray, which packs, makes a 0-d value 1-d.
    return 10 + len(arr.dtype.str) + 8 * max(arr.ndim, 1) + arr.nbytes


_RUNTIME = {
    "U8": np.uint8, "U8S": struct.Struct("<B"), "U32": struct.Struct("<I"),
    "U64": struct.Struct("<Q"), "BUFFERS": (bytes, bytearray, memoryview, np.ndarray),
    "PACK_FAULTS": _PACK_FAULTS, "ascontiguousarray": np.ascontiguousarray,
    "frombuffer": np.frombuffer, "struct_of": _struct_of, "dtype_of": _dtype_of,
    "array_size": _array_size, "struct": struct,
}


class _Plan:
    """One format's generated codec.  ``size(record)`` is the body's
    byte count; ``pack(record, mv, off, whole)`` writes the body at
    ``mv[off:]`` and returns the end (``whole=False`` leaves a trailing
    ARRAY's bytes out); ``unpack(m, raw, off)`` / ``unpack_view(...)``
    return ``(record, end)`` — with copies, or with ARRAY and BYTES
    values viewing ``raw``."""

    __slots__ = ("fid", "schema", "size", "pack", "unpack", "unpack_view")


def _fault(fmt: Format, verb: str, i: int, exc: Exception) -> MarshalError:
    f = fmt.fields[i]
    return MarshalError(f"cannot {verb} field {f.name!r} as {f.kind.name}: {exc}")


def _indent(lines: list[str], depth: int) -> str:
    pad = " " * (4 * depth)
    return "".join(pad + line + "\n" for block in lines for line in block.splitlines())


#: The tail of a generated size or pack: a field not in the record.
_MISSING = "    except KeyError:\n        raise missing(r) from None\n"


def _compile(fmt: Format) -> _Plan:
    fields = fmt.fields
    ns = dict(_RUNTIME, N=tuple(f.name for f in fields),
              fault=functools.partial(_fault, fmt), missing=functools.partial(_missing, fmt))
    size, pack, unpack, view = ["n = 0"], [], [], []
    for fixed, group in itertools.groupby(range(len(fields)),
                                          lambda i: fields[i].kind in _SCALAR):
        run = list(group)
        if not fixed:
            for i in run:  # one variable-width field each
                kind, value = fields[i].kind, f"r[N[{i}]]"
                size.append(f"try:\n    n += {_SIZE[kind].format(v=value)}\n"
                            f"except TypeError as e:\n    raise fault('size', {i}, e)")
                copy = ("if whole:\n    " if i == len(fields) - 1 else "") + _ARRAY_COPY
                pack.append(f"try:\n{_indent([_PACK[kind].format(v=value, copy=copy)], 1)}"
                            f"except PACK_FAULTS as e:\n    raise fault('pack', {i}, e)")
                unpack.append(_UNPACK_COPY[kind].format(i=i))
                view.append(_UNPACK_VIEW[kind].format(i=i))
            continue
        start, codes = run[0], "".join(_SCALAR[fields[i].kind][0] for i in run)
        ns[f"S{start}"] = run_struct = struct.Struct("<" + codes)
        size[0] += f" + {run_struct.size}"
        size.append(", ".join(f"r[N[{i}]]" for i in run))  # a missing one raises
        values = ", ".join(_SCALAR[fields[i].kind][1].format(f"r[N[{i}]]") for i in run)
        # A merged run that fails is packed again field by field, so the
        # error names the field (and the offset) the interpreter would have.
        blame = [f"try:\n    struct.pack_into('<{_SCALAR[fields[i].kind][0]}', mv, "
                 f"off + {struct.calcsize('<' + codes[:i - start])}, "
                 f"{_SCALAR[fields[i].kind][1].format(f'r[N[{i}]]')})\n"
                 f"except PACK_FAULTS as e:\n    raise fault('pack', {i}, e)" for i in run]
        pack.append(f"try:\n    S{start}.pack_into(mv, off, {values})\n"
                    f"except PACK_FAULTS as e0:\n{_indent(blame, 1)}"
                    f"    raise fault('pack', {start}, e0)\n"
                    f"off += {run_struct.size}")
        names = "".join(f"v{i}, " for i in run)
        for out in (unpack, view):
            out.append(f"{names}= S{start}.unpack_from(m, off)\noff += {run_struct.size}")
    record = "{" + ", ".join(f"N[{i}]: v{i}" for i in range(len(fields))) + "}"
    src = (
        "def size(r):\n    try:\n" + _indent(size, 2) + "        return n\n" + _MISSING
        + "def pack(r, mv, off, whole):\n    try:\n" + _indent(pack, 2)
        + "        return off\n" + _MISSING
        + "def unpack(m, raw, off):\n" + _indent(unpack, 1) + f"    return {record}, off\n"
        + "def unpack_view(m, raw, off):\n" + _indent(view, 1) + f"    return {record}, off\n"
    )
    exec(compile(src, "<marshal plan>", "exec"), ns)
    plan = _Plan()
    plan.fid, plan.schema = fmt.format_id, fmt.self_description()
    plan.size, plan.pack = ns["size"], ns["pack"]
    plan.unpack, plan.unpack_view = ns["unpack"], ns["unpack_view"]
    object.__setattr__(fmt, "_plan", plan)
    return plan


def _plan(fmt: Format) -> _Plan:
    return fmt._plan or _compile(fmt)


def _missing(fmt: Format, record: dict) -> MarshalError:
    missing = [f.name for f in fmt.fields if f.name not in record]
    return MarshalError(f"record missing fields {missing} for format {fmt.name!r}")


def _inline(plan: _Plan, peer_registry: Optional[FormatRegistry]) -> bool:
    return peer_registry is None or peer_registry.by_id(plan.fid) is None


# ---------------------------------------------------------------------------
# Message encode / decode
# ---------------------------------------------------------------------------

def encode_message(
    fmt: Format,
    record: dict,
    peer_registry: Optional[FormatRegistry] = None,
) -> bytes:
    """Encode ``record`` against ``fmt``.

    ``peer_registry`` models the *receiver's* format knowledge: if given
    and it already knows the format, the schema is not inlined (steady
    state); otherwise the self-description rides along (first contact).
    """
    plan = _plan(fmt)
    inline = _inline(plan, peer_registry)
    out = bytearray(21 + (len(plan.schema) if inline else 0) + plan.size(record))
    _encode(plan, record, memoryview(out), inline, True)
    return bytes(out)


def _encode(plan: _Plan, record: dict, mv: memoryview, inline: bool, whole: bool) -> int:
    _HEAD.pack_into(mv, 0, MAGIC, _FLAG_SCHEMA if inline else 0, plan.fid)
    off = 13
    if inline:
        mv[off : off + len(plan.schema)] = plan.schema
        off += len(plan.schema)
    end = plan.pack(record, mv, off + 8, whole)
    _BODY_LEN.pack_into(mv, off, end - off - 8)
    return end


def decode_message(
    data: bytes, registry: FormatRegistry
) -> tuple[Format, dict]:
    """Decode one message; learns inlined schemas into ``registry``."""
    fmt, record, _ = decode_stream(data, registry)
    return fmt, record


def decode_stream(
    data: bytes, registry: FormatRegistry
) -> tuple[Format, dict, int]:
    """Like :func:`decode_message` but also returns bytes consumed.

    Needed when messages are concatenated (BP-lite index regions, shm
    channel batches).
    """
    return _decode(data, registry, None, copy=True)


def _header(m: memoryview, registry: FormatRegistry,
            expect: Optional[Format]) -> tuple[Format, int, int]:
    """``(format, body offset, body length)`` of the message in ``m``."""
    if m.nbytes < 13:
        raise MarshalError(f"message truncated ({m.nbytes} bytes)")
    magic, flags, format_id = _HEAD.unpack_from(m, 0)
    if magic != MAGIC:
        raise MarshalError(f"bad magic {magic:#x}")
    off = 13
    if expect is not None and format_id != _plan(expect).fid:
        raise MarshalError(f"format id {format_id:#x} is not {expect.name!r}")
    if flags & _FLAG_SCHEMA:
        fmt, consumed = Format.from_self_description(m[off:].tobytes())
        off += consumed
        if fmt.format_id != format_id:
            raise MarshalError(
                f"inlined schema id {fmt.format_id:#x} != header id {format_id:#x}"
            )
        # A known schema keeps its registered Format (and its plan).
        fmt = expect or registry.by_id(format_id) or registry.register(fmt)
    else:
        fmt = expect or registry.by_id(format_id)
        if fmt is None:
            raise MarshalError(f"unknown format id {format_id:#x} and no inlined schema")
    (body_len,) = _BODY_LEN.unpack_from(m, off)
    off += 8
    if off + body_len > m.nbytes:
        raise MarshalError("body extends past end of message")
    return fmt, off, body_len


# ---------------------------------------------------------------------------
# Zero-copy encode / decode (pack_into / unpack_from over wire spans)
# ---------------------------------------------------------------------------

def encoded_size(
    fmt: Format,
    record: dict,
    peer_registry: Optional[FormatRegistry] = None,
) -> int:
    """Exact wire size :func:`encode_into` will write for ``record`` —
    use it to size a pool lease before packing into it."""
    plan = _plan(fmt)
    return 21 + (len(plan.schema) if _inline(plan, peer_registry) else 0) + plan.size(record)


def encode_into(
    fmt: Format,
    record: dict,
    buf,
    peer_registry: Optional[FormatRegistry] = None,
    detach_tail: bool = False,
) -> int:
    """Encode ``record`` directly into ``buf`` (a memoryview, bytearray,
    uint8 ndarray, or a leased buffer's ``data`` array); returns bytes
    written.  With ``detach_tail`` a trailing ARRAY field is packed up to
    and including its byte count and ``buf`` ends there — the caller sends
    the array as the next gather part; sizes still count its bytes.

    The zero-copy twin of :func:`encode_message`: ARRAY payloads are
    copied exactly once, from the source array straight into the
    destination span — so serializing into a leased pool buffer or
    registered RDMA memory costs one copy total.
    """
    plan = _plan(fmt)
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    if mv.format != "B":
        mv = mv.cast("B")
    if mv.readonly:
        raise MarshalError("encode_into destination is read-only")
    try:
        return _encode(plan, record, mv, _inline(plan, peer_registry), not detach_tail)
    except (struct.error, ValueError) as exc:
        raise MarshalError(f"destination too small for message: {exc}") from exc


def decode_view(data, registry: FormatRegistry,
                expect: Optional[Format] = None) -> tuple[Format, dict, int]:
    """Zero-copy decode: like :func:`decode_stream`, but ARRAY fields are
    returned as ``np.frombuffer`` views over ``data`` (and BYTES as uint8
    views) instead of copies.

    ``data`` may be bytes, a memoryview, a flat uint8 ndarray, or a
    :class:`~repro.transport.buffers.WireBuffer` (anything with an
    ``as_array()``).  The returned arrays alias the receive segment: the
    consumer must finish with them (or copy) before releasing the span.
    With ``expect``, a message of any other format is refused before its
    schema is read, and ``registry`` learns nothing.
    """
    return _decode(data, registry, expect)


def _decode(data, registry: FormatRegistry, expect: Optional[Format],
            copy: bool = False) -> tuple[Format, dict, int]:
    if isinstance(data, np.ndarray):
        arr = data if data.dtype is _U8 and data.ndim == 1 else data.reshape(-1).view(_U8)
    elif hasattr(data, "as_array"):
        arr = data.as_array()
    else:
        arr = np.frombuffer(data, dtype=_U8)
    m = memoryview(arr)
    fmt, off, body_len = _header(m, registry, expect)
    plan = _plan(fmt)
    record, pos = (plan.unpack if copy else plan.unpack_view)(m, arr, off)
    if pos - off != body_len:
        raise MarshalError(
            f"body length mismatch: declared {body_len}, consumed {pos - off}"
        )
    return fmt, record, pos
