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
"""

from __future__ import annotations

import struct
from typing import Any, Optional

import numpy as np

from repro.marshal.format import Field, FieldKind, Format, FormatRegistry

MAGIC = 0x0FF5F0CD
_FLAG_SCHEMA = 0x01


class MarshalError(RuntimeError):
    """Malformed message, unknown format, or value/schema mismatch."""


# ---------------------------------------------------------------------------
# Field packers
# ---------------------------------------------------------------------------

def _pack_field(field: Field, value: Any, out: bytearray) -> None:
    kind = field.kind
    try:
        if kind == FieldKind.INT64:
            out += struct.pack("<q", int(value))
        elif kind == FieldKind.FLOAT64:
            out += struct.pack("<d", float(value))
        elif kind == FieldKind.BOOL:
            out += struct.pack("<B", 1 if value else 0)
        elif kind == FieldKind.STRING:
            b = str(value).encode("utf-8")
            out += struct.pack("<I", len(b))
            out += b
        elif kind == FieldKind.BYTES:
            b = bytes(value)
            out += struct.pack("<Q", len(b))
            out += b
        elif kind == FieldKind.LIST_INT64:
            vals = [int(v) for v in value]
            out += struct.pack("<I", len(vals))
            out += struct.pack(f"<{len(vals)}q", *vals) if vals else b""
        elif kind == FieldKind.ARRAY:
            arr = np.ascontiguousarray(value)
            dt = arr.dtype.str.encode("ascii")
            out += struct.pack("<B", len(dt))
            out += dt
            out += struct.pack("<B", arr.ndim)
            for dim in arr.shape:
                out += struct.pack("<Q", dim)
            raw = arr.tobytes()
            out += struct.pack("<Q", len(raw))
            out += raw
        else:  # pragma: no cover - exhaustive over FieldKind
            raise MarshalError(f"unsupported kind {kind}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise MarshalError(
            f"cannot pack field {field.name!r} as {kind.name}: {exc}"
        ) from exc


def _field_size(field: Field, value: Any) -> int:
    """Encoded size of one field (for sizing a pack_into destination)."""
    kind = field.kind
    try:
        if kind == FieldKind.INT64 or kind == FieldKind.FLOAT64:
            return 8
        if kind == FieldKind.BOOL:
            return 1
        if kind == FieldKind.STRING:
            return 4 + len(str(value).encode("utf-8"))
        if kind == FieldKind.BYTES:
            return 8 + len(value)
        if kind == FieldKind.LIST_INT64:
            return 4 + 8 * len(value)
        if kind == FieldKind.ARRAY:
            arr = np.asarray(value)
            dt = arr.dtype.str.encode("ascii")
            # max(): the packers' ascontiguousarray makes a 0-d value 1-d.
            return 1 + len(dt) + 1 + 8 * max(arr.ndim, 1) + 8 + arr.nbytes
    except TypeError as exc:
        raise MarshalError(
            f"cannot size field {field.name!r} as {kind.name}: {exc}"
        ) from exc
    raise MarshalError(f"unsupported kind {kind}")  # pragma: no cover


def _pack_field_into(field: Field, value: Any, mv: memoryview, off: int,
                     data: bool = True) -> int:
    """Pack one field directly at ``mv[off:]``; returns the new offset.

    The zero-copy twin of :func:`_pack_field`: ARRAY payloads are copied
    once, straight into the destination (a leased pool buffer, a queue
    slot, registered RDMA memory), with no intermediate ``bytes`` — or,
    with ``data=False``, not at all: the offset still moves past them.
    """
    kind = field.kind
    try:
        if kind == FieldKind.INT64:
            struct.pack_into("<q", mv, off, int(value))
            return off + 8
        if kind == FieldKind.FLOAT64:
            struct.pack_into("<d", mv, off, float(value))
            return off + 8
        if kind == FieldKind.BOOL:
            struct.pack_into("<B", mv, off, 1 if value else 0)
            return off + 1
        if kind == FieldKind.STRING:
            b = str(value).encode("utf-8")
            struct.pack_into("<I", mv, off, len(b))
            off += 4
            mv[off : off + len(b)] = b
            return off + len(b)
        if kind == FieldKind.BYTES:
            b = value if isinstance(value, (bytes, bytearray, memoryview)) else bytes(value)
            struct.pack_into("<Q", mv, off, len(b))
            off += 8
            mv[off : off + len(b)] = b
            return off + len(b)
        if kind == FieldKind.LIST_INT64:
            vals = [int(v) for v in value]
            struct.pack_into("<I", mv, off, len(vals))
            off += 4
            if vals:
                struct.pack_into(f"<{len(vals)}q", mv, off, *vals)
            return off + 8 * len(vals)
        if kind == FieldKind.ARRAY:
            arr = np.ascontiguousarray(value)
            dt = arr.dtype.str.encode("ascii")
            struct.pack_into("<B", mv, off, len(dt))
            off += 1
            mv[off : off + len(dt)] = dt
            off += len(dt)
            struct.pack_into("<B", mv, off, arr.ndim)
            off += 1
            for dim in arr.shape:
                struct.pack_into("<Q", mv, off, dim)
                off += 8
            struct.pack_into("<Q", mv, off, arr.nbytes)
            off += 8
            if data:  # the single array copy: source view -> destination span
                dst = np.frombuffer(mv, dtype=np.uint8, count=arr.nbytes, offset=off)
                dst[:] = arr.reshape(-1).view(np.uint8)
            return off + arr.nbytes
    except (TypeError, ValueError, OverflowError, struct.error) as exc:
        raise MarshalError(
            f"cannot pack field {field.name!r} as {kind.name}: {exc}"
        ) from exc
    raise MarshalError(f"unsupported kind {kind}")  # pragma: no cover


def _unpack_field(field: Field, data: bytes, off: int) -> tuple[Any, int]:
    kind = field.kind
    if kind == FieldKind.INT64:
        (v,) = struct.unpack_from("<q", data, off)
        return v, off + 8
    if kind == FieldKind.FLOAT64:
        (v,) = struct.unpack_from("<d", data, off)
        return v, off + 8
    if kind == FieldKind.BOOL:
        (v,) = struct.unpack_from("<B", data, off)
        return bool(v), off + 1
    if kind == FieldKind.STRING:
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        return data[off : off + n].decode("utf-8"), off + n
    if kind == FieldKind.BYTES:
        (n,) = struct.unpack_from("<Q", data, off)
        off += 8
        return bytes(data[off : off + n]), off + n
    if kind == FieldKind.LIST_INT64:
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        vals = list(struct.unpack_from(f"<{n}q", data, off)) if n else []
        return vals, off + 8 * n
    if kind == FieldKind.ARRAY:
        (dlen,) = struct.unpack_from("<B", data, off)
        off += 1
        dtype = np.dtype(data[off : off + dlen].decode("ascii"))
        off += dlen
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = []
        for _ in range(ndim):
            (dim,) = struct.unpack_from("<Q", data, off)
            off += 8
            shape.append(dim)
        (nbytes,) = struct.unpack_from("<Q", data, off)
        off += 8
        arr = np.frombuffer(data[off : off + nbytes], dtype=dtype).reshape(shape)
        return arr.copy(), off + nbytes
    raise MarshalError(f"unsupported kind {kind}")  # pragma: no cover


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
    missing = [f.name for f in fmt.fields if f.name not in record]
    if missing:
        raise MarshalError(f"record missing fields {missing} for format {fmt.name!r}")

    inline_schema = peer_registry is None or not peer_registry.knows(fmt)
    flags = _FLAG_SCHEMA if inline_schema else 0

    body = bytearray()
    for field in fmt.fields:
        _pack_field(field, record[field.name], body)

    out = bytearray()
    out += struct.pack("<I", MAGIC)
    out += struct.pack("<B", flags)
    out += struct.pack("<Q", fmt.format_id)
    if inline_schema:
        out += fmt.self_description()
    out += struct.pack("<Q", len(body))
    out += body
    return bytes(out)


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
    if len(data) < 13:
        raise MarshalError(f"message truncated ({len(data)} bytes)")
    (magic,) = struct.unpack_from("<I", data, 0)
    if magic != MAGIC:
        raise MarshalError(f"bad magic {magic:#x}")
    (flags,) = struct.unpack_from("<B", data, 4)
    (format_id,) = struct.unpack_from("<Q", data, 5)
    off = 13

    if flags & _FLAG_SCHEMA:
        fmt, consumed = Format.from_self_description(data[off:])
        off += consumed
        if fmt.format_id != format_id:
            raise MarshalError(
                f"inlined schema id {fmt.format_id:#x} != header id {format_id:#x}"
            )
        registry.register(fmt)
    else:
        maybe = registry.by_id(format_id)
        if maybe is None:
            raise MarshalError(f"unknown format id {format_id:#x} and no inlined schema")
        fmt = maybe

    (body_len,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off + body_len > len(data):
        raise MarshalError("body extends past end of message")

    record: dict = {}
    pos = off
    for field in fmt.fields:
        value, pos = _unpack_field(field, data, pos)
        record[field.name] = value
    if pos - off != body_len:
        raise MarshalError(
            f"body length mismatch: declared {body_len}, consumed {pos - off}"
        )
    return fmt, record, pos


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
    missing = [f.name for f in fmt.fields if f.name not in record]
    if missing:
        raise MarshalError(f"record missing fields {missing} for format {fmt.name!r}")
    inline_schema = peer_registry is None or not peer_registry.knows(fmt)
    n = 13 + (len(fmt.self_description()) if inline_schema else 0) + 8
    for field in fmt.fields:
        n += _field_size(field, record[field.name])
    return n


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
    missing = [f.name for f in fmt.fields if f.name not in record]
    if missing:
        raise MarshalError(f"record missing fields {missing} for format {fmt.name!r}")
    inline_schema = peer_registry is None or not peer_registry.knows(fmt)
    flags = _FLAG_SCHEMA if inline_schema else 0

    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    if mv.format != "B":
        mv = mv.cast("B")
    if mv.readonly:
        raise MarshalError("encode_into destination is read-only")
    try:
        struct.pack_into("<I", mv, 0, MAGIC)
        struct.pack_into("<B", mv, 4, flags)
        struct.pack_into("<Q", mv, 5, fmt.format_id)
        off = 13
        if inline_schema:
            sd = fmt.self_description()
            mv[off : off + len(sd)] = sd
            off += len(sd)
        body_len_off = off
        off += 8
        body_start = off
        tail = fmt.fields[-1] if detach_tail else None
        for field in fmt.fields:
            off = _pack_field_into(field, record[field.name], mv, off, field is not tail)
        struct.pack_into("<Q", mv, body_len_off, off - body_start)
    except (struct.error, ValueError) as exc:
        raise MarshalError(f"destination too small for message: {exc}") from exc
    return off


def _unpack_field_view(field: Field, data: np.ndarray, off: int) -> tuple[Any, int]:
    """Unpack one field from a flat uint8 array; ARRAY and BYTES come
    back as *views* over ``data`` (no copy)."""
    kind = field.kind
    if kind == FieldKind.ARRAY:
        (dlen,) = struct.unpack_from("<B", data, off)
        off += 1
        dtype = np.dtype(bytes(data[off : off + dlen]).decode("ascii"))
        off += dlen
        (ndim,) = struct.unpack_from("<B", data, off)
        off += 1
        shape = []
        for _ in range(ndim):
            (dim,) = struct.unpack_from("<Q", data, off)
            off += 8
            shape.append(dim)
        (nbytes,) = struct.unpack_from("<Q", data, off)
        off += 8
        count = nbytes // dtype.itemsize if dtype.itemsize else 0
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=off)
        return arr.reshape(shape), off + nbytes
    if kind == FieldKind.BYTES:
        (n,) = struct.unpack_from("<Q", data, off)
        off += 8
        return data[off : off + n], off + n
    if kind == FieldKind.STRING:
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        return bytes(data[off : off + n]).decode("utf-8"), off + n
    # Scalars carry no payload worth aliasing; reuse the copying path
    # (struct.unpack_from accepts any buffer, including ndarrays).
    return _unpack_field(field, data, off)


def decode_view(data, registry: FormatRegistry) -> tuple[Format, dict, int]:
    """Zero-copy decode: like :func:`decode_stream`, but ARRAY fields are
    returned as ``np.frombuffer`` views over ``data`` (and BYTES as uint8
    views) instead of copies.

    ``data`` may be bytes, a memoryview, a flat uint8 ndarray, or a
    :class:`~repro.transport.buffers.WireBuffer` (anything with an
    ``as_array()``).  The returned arrays alias the receive segment: the
    consumer must finish with them (or copy) before releasing the span.
    """
    if hasattr(data, "as_array"):
        arr = data.as_array()
    elif isinstance(data, np.ndarray):
        arr = data.reshape(-1).view(np.uint8)
    else:
        arr = np.frombuffer(data, dtype=np.uint8)
    if arr.nbytes < 13:
        raise MarshalError(f"message truncated ({arr.nbytes} bytes)")
    (magic,) = struct.unpack_from("<I", arr, 0)
    if magic != MAGIC:
        raise MarshalError(f"bad magic {magic:#x}")
    (flags,) = struct.unpack_from("<B", arr, 4)
    (format_id,) = struct.unpack_from("<Q", arr, 5)
    off = 13

    if flags & _FLAG_SCHEMA:
        # First contact only (steady state ships bare messages): the
        # schema parser wants bytes, so materialize the tail once here.
        fmt, consumed = Format.from_self_description(arr[off:].tobytes())
        off += consumed
        if fmt.format_id != format_id:
            raise MarshalError(
                f"inlined schema id {fmt.format_id:#x} != header id {format_id:#x}"
            )
        registry.register(fmt)
    else:
        maybe = registry.by_id(format_id)
        if maybe is None:
            raise MarshalError(f"unknown format id {format_id:#x} and no inlined schema")
        fmt = maybe

    (body_len,) = struct.unpack_from("<Q", arr, off)
    off += 8
    if off + body_len > arr.nbytes:
        raise MarshalError("body extends past end of message")

    record: dict = {}
    pos = off
    for field in fmt.fields:
        value, pos = _unpack_field_view(field, arr, pos)
        record[field.name] = value
    if pos - off != body_len:
        raise MarshalError(
            f"body length mismatch: declared {body_len}, consumed {pos - off}"
        )
    return fmt, record, pos
