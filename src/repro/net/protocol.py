"""The daemon's frame protocol: length-prefixed, versioned, codec-bodied.

Every message between a client and the directory daemon — on either
the control port or the data port — is one **frame** inside a ``u64``
length-prefixed socket record (the framing
:class:`~repro.transport.tcp.TcpChannel` already provides):

======  ====  =====================================================
offset  size  field
======  ====  =====================================================
0       4     magic ``0xF1EC0107``
4       1     protocol version (:data:`PROTOCOL_VERSION`)
5       1     message type (:class:`MsgType`)
6       2     reserved, must be zero
8       ...   body: one marshal-codec message (per-type format)
======  ====  =====================================================

The body reuses :func:`repro.marshal.codec.encode_into` and
:func:`~repro.marshal.codec.decode_view` over
:class:`~repro.transport.buffers.WireBuffer` spans: scalar fields are
packed straight into the span, a ``net.var``'s array is not copied at
all (:func:`encode_var` returns it as its own gather part) and decoding
copies nothing (BYTES/ARRAY fields come back as views over the receive
buffer).  Both sides share :data:`PROTOCOL_REGISTRY`, so schemas never
ride along in steady state.

Multi-part frames: a :data:`MsgType.PUBLISH` body carries a variable
*count*, and the frame continues with that many back-to-back codec
``net.var`` messages — the step payload is scatter-gathered by the
sender (``sendv``) and decoded in place by the receiver via the
``consumed`` offsets :func:`decode_frame` and
:func:`decode_var` return.  A PUBLISH is one writer rank's run; a step
several ranks wrote is served as one STEP_DATA whose runs follow back to
back, rank by rank (the count is their sum).

By-reference frames (v5): a peer that proved it shares the daemon's node
moves a run larger than :data:`~repro.transport.tcp.INLINE_MAX` through a
daemon-owned shared-memory slot — :data:`MsgType.GRANT` is the positive
reply that hands a writer its next slot, ``PUBLISH_REF`` / ``STEP_REF``
carry ``(pool, offset, nbytes)`` instead of the run.  Every other peer,
and every smaller run, exchanges exactly the frames above.  Either positive
reply (v6) also tells a writer whether to stamp block bounds: only while a
reader prunes against them; the daemon bounds what arrives unstamped then.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.stepstore import Outcome
from repro.marshal.codec import MarshalError, decode_view, encode_into, encoded_size
from repro.marshal.format import FieldKind, Format, FormatRegistry
from repro.transport.buffers import Ownership, WireBuffer

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "HEADER",
    "MsgType",
    "ProtocolError",
    "Frame",
    "PROTOCOL_REGISTRY",
    "encode_frame",
    "decode_frame",
    "encode_var",
    "decode_var",
    "block_bounds",
    "MISS_REPLY",
    "CKPT_VERSION",
    "CKPT_HEAD",
    "CKPT_TENANT",
    "CKPT_SESSION",
    "CKPT_STREAM",
    "CKPT_STEP",
    "CKPT_RUN",
    "encode_record",
    "decode_record",
]

#: Frame magic ("FlexIO net, 01").
MAGIC = 0xF1EC0107

#: Bump on any incompatible header or format change; DESIGN.md §13
#: ("Versions") says what each one changed.  v8: REGISTER, LOOKUP and
#: LOOKUP_REPLY leave the wire (OPEN registers and looks up a stream).
PROTOCOL_VERSION = 8

#: magic u32, version u8, msg type u8, reserved u16, sequence u64.
#: The sequence is per-connection and monotone; receivers use it to
#: spot duplicated or reordered frames after a reconnect.
HEADER = struct.Struct("<IBBHQ")


class ProtocolError(MarshalError):
    """Malformed frame, bad magic, version skew, or unknown type."""


class MsgType(enum.IntEnum):
    """Every frame's type tag (control plane and data plane)."""

    # control plane ----------------------------------------------------
    HELLO = 1          # client → daemon: tenant + bearer token
    WELCOME = 2        # daemon → client: session id + data port
    ERROR = 3          # daemon → client: typed failure (kind + message)
    OK = 5             # generic success acknowledgement
    HEARTBEAT = 8      # writer lease refresh
    OPEN = 9           # open a named stream for write or read
    OPEN_REPLY = 10    # daemon → client: stream id + data port
    BYE = 12           # client ends the session
    # data plane -------------------------------------------------------
    ATTACH = 16        # bind a data connection to (session, stream, role)
    PUBLISH = 17       # writer → daemon: one step (vars follow in-frame)
    FETCH = 18         # reader → daemon: request one step, held up to ``wait``
    STEP_DATA = 19     # daemon → reader: the step (vars follow in-frame)
    NOT_READY = 20     # daemon → reader: step not yet published (hold ran out)
    EOS = 21           # daemon → reader: stream ended (no more steps)
    RETRY_AFTER = 22   # daemon → peer: draining/restarting, come back later
    # data plane, same-node peers only ----------------------------------
    GRANT = 23         # daemon → writer: OK, and this pool slot is yours
    PUBLISH_REF = 24   # writer → daemon: one step, its run sits in the slot
    STEP_REF = 25      # daemon → reader: the step, pinned until the next request


#: The shared format vocabulary — registered once, known to both sides.
PROTOCOL_REGISTRY = FormatRegistry()

_S, _I, _F, _B, _L = (
    FieldKind.STRING,
    FieldKind.INT64,
    FieldKind.FLOAT64,
    FieldKind.BOOL,
    FieldKind.LIST_INT64,
)

_BODY_FORMATS: dict[MsgType, Format] = {
    MsgType.HELLO: PROTOCOL_REGISTRY.define(
        "net.hello",
        [("tenant", _S), ("token", _S), ("client", _S), ("resume", _S)],
    ),
    MsgType.WELCOME: PROTOCOL_REGISTRY.define(
        "net.welcome",
        [("session", _S), ("server", _S), ("data_port", _I),
         ("resume", _S), ("resumed", _B),
         # Name of a one-slot daemon arena holding a nonce ("" = no pools here).
         ("pool", _S)],
    ),
    MsgType.ERROR: PROTOCOL_REGISTRY.define(
        "net.error", [("kind", _S), ("message", _S)]
    ),
    # ``stats``, to a writer's ATTACH or PUBLISH: a reader prunes right now,
    # stamp ``vmin``/``vmax`` (else the daemon bounds the blocks it prunes).
    MsgType.OK: PROTOCOL_REGISTRY.define("net.ok", [("detail", _S), ("stats", _B)]),
    MsgType.HEARTBEAT: PROTOCOL_REGISTRY.define("net.heartbeat", [("stream", _S)]),
    MsgType.OPEN: PROTOCOL_REGISTRY.define(
        "net.open",
        [("stream", _S), ("mode", _S), ("program", _S), ("rank", _I),
         ("num_ranks", _I), ("lease", _F)],
    ),
    MsgType.OPEN_REPLY: PROTOCOL_REGISTRY.define(
        "net.open_reply", [("stream_id", _S), ("data_port", _I)]
    ),
    MsgType.BYE: PROTOCOL_REGISTRY.define("net.bye", [("reason", _S)]),
    MsgType.ATTACH: PROTOCOL_REGISTRY.define(
        "net.attach",
        [("session", _S), ("stream_id", _S), ("role", _S),
         # Reader-role pushdown: the serialized BlockPredicate of the
         # reader's compiled plug-in chain ("" = none — disables any
         # broker-side pruning for the stream while this peer is attached).
         ("predicate", _S),
         # What the peer read in WELCOME's ``pool`` arena ("" = could not:
         # other host, uid or pid namespace — it gets inline frames only).
         ("nonce", _S),
         # The writer rank this connection publishes for (a reader's is unused).
         ("rank", _I)],
    ),
    # One writer rank's run of its current step; ``eos``: and the rank closes.
    MsgType.PUBLISH: PROTOCOL_REGISTRY.define(
        "net.publish", [("step", _I), ("count", _I), ("eos", _B), ("seq", _I)]
    ),
    MsgType.FETCH: PROTOCOL_REGISTRY.define(
        # ``wait``: seconds the daemon may hold the request while the
        # step may still arrive; 0 = answer at once.
        "net.fetch", [("step", _I), ("wait", _F)]
    ),
    MsgType.STEP_DATA: PROTOCOL_REGISTRY.define(
        "net.step_data", [("step", _I), ("count", _I)]
    ),
    MsgType.NOT_READY: PROTOCOL_REGISTRY.define("net.not_ready", [("step", _I)]),
    MsgType.EOS: PROTOCOL_REGISTRY.define("net.eos", [("step", _I)]),
    MsgType.RETRY_AFTER: PROTOCOL_REGISTRY.define(
        "net.retry_after", [("delay", _F), ("reason", _S)]
    ),
    # ``pool`` names one pool generation; a slot is ``capacity`` bytes at
    # ``offset``.  A writer holds what its latest positive reply granted.
    MsgType.GRANT: PROTOCOL_REGISTRY.define(
        "net.grant", [("detail", _S), ("pool", _S), ("offset", _I), ("capacity", _I), ("stats", _B)]
    ),
    MsgType.PUBLISH_REF: PROTOCOL_REGISTRY.define(
        "net.publish_ref",
        [("step", _I), ("count", _I), ("eos", _B), ("seq", _I),
         ("pool", _S), ("offset", _I), ("nbytes", _I)],
    ),
    MsgType.STEP_REF: PROTOCOL_REGISTRY.define(
        "net.step_ref",
        [("step", _I), ("count", _I), ("pool", _S), ("offset", _I), ("nbytes", _I)],
    ),
}

#: How the daemon answers a FETCH the step store does not serve from
#: its retained steps — ``(frame type, ERROR kind)`` per outcome; a hit
#: is STEP_DATA plus the payload.  ``NOT_YET`` is first held for up to
#: the FETCH's ``wait``.  The client reads it in reverse.
MISS_REPLY: dict[Outcome, tuple[MsgType, str]] = {
    Outcome.LOST: (MsgType.ERROR, "step_lost"),
    Outcome.ENDED: (MsgType.EOS, ""),
    Outcome.FAILED: (MsgType.ERROR, "stream_failed"),
    Outcome.NOT_YET: (MsgType.NOT_READY, ""),
}

#: One variable of a published step: box metadata + the payload array.
#: ``vmin``/``vmax`` are writer-stamped whole-block bounds (the ADIOS
#: per-block statistics idiom); ``has_stats`` is False when the broker did
#: not ask for them, and for the payloads :func:`block_bounds` never bounds.
VAR_FORMAT = PROTOCOL_REGISTRY.define(
    "net.var",
    [("name", _S), ("writer_rank", _I), ("start", _L), ("shape", _L),
     ("gshape", _L), ("vmin", _F), ("vmax", _F), ("has_stats", _B),
     ("data", FieldKind.ARRAY)],
)


def block_bounds(arr: np.ndarray) -> Optional[tuple[float, float]]:
    """``(min, max)`` of a numeric, non-empty block — what pushdown prunes
    against; None for any other payload, which is never pruned."""
    if arr.size and arr.dtype.kind in "fiu":
        return float(arr.min()), float(arr.max())
    return None


def body_format(msg_type: MsgType) -> Format:
    """The codec format of one message type's body."""
    try:
        return _BODY_FORMATS[msg_type]  # an IntEnum: a code finds its member
    except KeyError:
        raise ProtocolError(f"unknown message type {msg_type!r}")


#: Type code -> member, for the decoder (an enum call per frame is not free).
_TYPES = {int(t): t for t in MsgType}


@dataclass(slots=True)
class Frame:
    """One decoded frame: its type, body record, and bytes consumed."""

    version: int
    msg_type: MsgType
    record: dict
    #: Offset one past the body — where in-frame follow-on messages
    #: (``net.var`` runs after PUBLISH/STEP_DATA) begin.
    consumed: int
    #: Per-connection monotone frame sequence number (v2 header field).
    seq: int = 0


def encode_frame(msg_type: MsgType, record: dict, seq: int = 0) -> WireBuffer:
    """Encode one frame into a fresh heap :class:`WireBuffer` span.

    Header and body are packed straight into the span (one copy of the
    field values, none of the span itself); the result feeds
    ``Channel.send``/``sendv`` without further materialization.
    ``seq`` stamps the header's per-connection sequence number.
    """
    fmt = body_format(msg_type)
    size = HEADER.size + encoded_size(fmt, record, PROTOCOL_REGISTRY)
    wb = WireBuffer(np.empty(size, dtype=np.uint8), ownership=Ownership.HEAP)
    mv = memoryview(wb.as_array())
    HEADER.pack_into(mv, 0, MAGIC, PROTOCOL_VERSION, int(msg_type), 0, int(seq))
    encode_into(fmt, record, mv[HEADER.size:], PROTOCOL_REGISTRY)
    return wb


def _as_flat(data: Union[bytes, bytearray, memoryview, np.ndarray, WireBuffer]) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data if data.dtype is _U8 and data.ndim == 1 else data.reshape(-1).view(_U8)
    if isinstance(data, WireBuffer):
        return data.as_array()
    return np.frombuffer(data, dtype=_U8)


_U8 = np.dtype(np.uint8)


#: What a corrupted body can raise out of the codec.  The daemon reads
#: frames off the public network, so every malformed-input failure must
#: surface as the one typed ProtocolError, never a codec internal.
_DECODE_FAULTS = (
    MarshalError, struct.error, UnicodeDecodeError, ValueError,
    IndexError, OverflowError, MemoryError,
)


def _decode_body(arr: np.ndarray, what: str, expect: Optional[Format] = None):
    try:
        return decode_view(arr, PROTOCOL_REGISTRY, expect)
    except _DECODE_FAULTS as exc:
        raise ProtocolError(f"malformed {what} body: {exc}") from exc


def decode_frame(
    data: Union[bytes, bytearray, memoryview, np.ndarray, WireBuffer],
    offset: int = 0,
) -> Frame:
    """Decode the frame starting at ``offset``; zero-copy for BYTES and
    ARRAY body fields (views over the receive span)."""
    arr = _as_flat(data)
    if arr.nbytes - offset < HEADER.size:
        raise ProtocolError(
            f"frame truncated ({arr.nbytes - offset} bytes, need {HEADER.size})"
        )
    magic, version, type_code, reserved, seq = HEADER.unpack_from(arr, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic:#x}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version skew: peer speaks v{version}, "
            f"this build speaks v{PROTOCOL_VERSION}"
        )
    if reserved != 0:
        raise ProtocolError(f"nonzero reserved field {reserved:#x}")
    msg_type = _TYPES.get(type_code)
    if msg_type is None:
        raise ProtocolError(f"unknown message type {type_code}")
    # The body must be this type's format before anything of it is read:
    # a frame never teaches the shared registry a schema.
    _, record, consumed = _decode_body(
        arr[offset + HEADER.size:], msg_type.name, _BODY_FORMATS[msg_type])
    return Frame(version, msg_type, record, offset + HEADER.size + consumed, seq)


def encode_var(record: dict) -> tuple[WireBuffer, np.ndarray]:
    """Encode one ``net.var`` follow-on message as two gather parts: a
    heap span holding everything up to and including the array's byte
    count, and the array itself — the caller's own when it is
    C-contiguous.  Joined, they are the flat codec message."""
    data = np.ascontiguousarray(record["data"])
    record = {**record, "data": data}  # sized and packed as what is sent
    size = encoded_size(VAR_FORMAT, record, PROTOCOL_REGISTRY) - data.nbytes
    wb = WireBuffer(np.empty(size, dtype=np.uint8), ownership=Ownership.HEAP)
    encode_into(VAR_FORMAT, record, memoryview(wb.as_array()), PROTOCOL_REGISTRY,
                detach_tail=True)
    return wb, data


def decode_var(
    data: Union[bytes, bytearray, memoryview, np.ndarray, WireBuffer],
    offset: int,
) -> tuple[dict, int]:
    """Decode one ``net.var`` message at ``offset``; the array payload is
    a view over ``data``.  Returns (record, next offset)."""
    arr = _as_flat(data)
    _, record, consumed = _decode_body(arr[offset:], "net.var", VAR_FORMAT)
    return record, offset + consumed


# ---------------------------------------------------------------------------
# Checkpoint records: the daemon's durability format (DESIGN.md section 14)
# ---------------------------------------------------------------------------
#
# A checkpoint file is a plain concatenation of codec messages — no frame
# headers — walked by the ``consumed`` offsets the codec returns, exactly
# like a PUBLISH frame's ``net.var`` run.  The first record is always
# ``net.ckpt.head``; each ``net.ckpt.stream`` is followed by ``count``
# ``net.ckpt.step`` records whose BYTES payload is the stream's retained
# step (its net.var runs, joined), spilled via the codec's ``encode_into``,
# then ``open`` ``net.ckpt.run`` records: the runs ranks landed for the
# step their barrier has not ended yet.
# ``None`` quotas ride as -1 sentinels (the codec has no null type).

#: Bump on any incompatible checkpoint-record change.  v2: the stream and
#: step records carry the step store's whole snapshot, failure included.
#: v3: the stream record carries its writer run (ranks, their sessions and
#: publish sequences, the barrier) and the open step's runs follow it.
#: v4: the stream record carries its lease (period, remaining TTL); the
#: ``net.ckpt.reg`` registration record is gone.
CKPT_VERSION = 4

CKPT_HEAD = PROTOCOL_REGISTRY.define(
    "net.ckpt.head", [("version", _I), ("wall", _F), ("server", _S)]
)
CKPT_TENANT = PROTOCOL_REGISTRY.define(
    "net.ckpt.tenant",
    [("name", _S), ("token", _S), ("has_token", _B), ("max_streams", _I),
     ("bytes_per_s", _F), ("max_leases", _I)],
)
CKPT_SESSION = PROTOCOL_REGISTRY.define(
    "net.ckpt.session",
    [("session", _S), ("tenant", _S), ("client", _S), ("resume", _S)],
)
CKPT_STREAM = PROTOCOL_REGISTRY.define(
    "net.ckpt.stream",
    [("stream_id", _S), ("tenant", _S), ("name", _S), ("last_step", _I),
     ("eos_step", _I), ("failed", _B), ("error", _S),
     ("retain", _I), ("peak_nbytes", _I), ("count", _I),
     # The writer run: joined ranks and (comma-joined) their sessions, the
     # closed ranks and those that ended the open step, and (rank, seq)
     # pairs flattened; then ``open`` net.ckpt.run records.
     ("ranks", _L), ("owners", _S), ("closed", _L), ("ended", _L),
     ("seqs", _L), ("open", _I),
     # The lease period (0: none) and what was left of it at the walk.
     ("lease", _F), ("remaining", _F)],
)  # eos_step -1 = still open; count net.ckpt.step records follow
CKPT_STEP = PROTOCOL_REGISTRY.define(
    "net.ckpt.step",
    [("step", _I), ("count", _I), ("payload", FieldKind.BYTES)],
)
CKPT_RUN = PROTOCOL_REGISTRY.define(
    "net.ckpt.run",
    [("rank", _I), ("count", _I), ("payload", FieldKind.BYTES)],
)


def encode_record(fmt: Format, record: dict) -> np.ndarray:
    """Encode one bare codec message (no frame header) into a fresh
    uint8 array — the unit a checkpoint file concatenates."""
    size = encoded_size(fmt, record, PROTOCOL_REGISTRY)
    out = np.empty(size, dtype=np.uint8)
    encode_into(fmt, record, memoryview(out), PROTOCOL_REGISTRY)
    return out


def decode_record(
    data: Union[bytes, bytearray, memoryview, np.ndarray, WireBuffer],
    offset: int,
) -> tuple[Format, dict, int]:
    """Decode the bare codec message at ``offset``; returns
    ``(format, record, next_offset)``.  BYTES fields come back as uint8
    views over ``data``."""
    arr = _as_flat(data)
    fmt, record, consumed = _decode_body(arr[offset:], "checkpoint record")
    return fmt, record, offset + consumed
