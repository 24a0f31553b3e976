"""Format (schema) objects and the format registry."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Optional

import numpy as np


class FieldKind(IntEnum):
    """Wire types supported by the marshaling layer."""

    INT64 = 1
    FLOAT64 = 2
    STRING = 3      # UTF-8, length-prefixed
    BYTES = 4       # raw, length-prefixed
    ARRAY = 5       # n-dimensional numpy array: dtype + shape + data
    BOOL = 6
    LIST_INT64 = 7  # variable-length list of int64


@dataclass(frozen=True)
class Field:
    """One named, typed field of a format."""

    name: str
    kind: FieldKind

    def __post_init__(self) -> None:
        if not self.name or "\x00" in self.name:
            raise ValueError(f"invalid field name {self.name!r}")
        if not isinstance(self.kind, FieldKind):
            raise TypeError(f"kind must be FieldKind, got {self.kind!r}")


@dataclass(frozen=True)
class Format:
    """A named, ordered field list — the unit of schema exchange.

    ``format_id`` is content-derived (first 8 bytes of a SHA-256 over the
    self-description), so independently-created identical formats agree on
    ids without coordination — mirroring FFS's server-assigned-but-stable
    format tokens.
    """

    name: str
    fields: tuple[Field, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("format name must be non-empty")
        seen = set()
        for f in self.fields:
            if f.name in seen:
                raise ValueError(f"duplicate field {f.name!r} in format {self.name!r}")
            seen.add(f.name)
        # Frozen, so the content-derived id is hashed once, here; it is
        # not a dataclass field and stays out of eq/hash/repr.
        object.__setattr__(self, "_format_id", int.from_bytes(
            hashlib.sha256(self.self_description()).digest()[:8], "big"
        ))
        #: The codec's generated size/pack/unpack plan, built on first use.
        object.__setattr__(self, "_plan", None)

    @property
    def format_id(self) -> int:
        return self._format_id

    def self_description(self) -> bytes:
        """Canonical byte encoding of the schema itself."""
        out = bytearray()
        name_b = self.name.encode("utf-8")
        out += struct.pack("<I", len(name_b))
        out += name_b
        out += struct.pack("<I", len(self.fields))
        for f in self.fields:
            fb = f.name.encode("utf-8")
            out += struct.pack("<I", len(fb))
            out += fb
            out += struct.pack("<B", int(f.kind))
        return bytes(out)

    @classmethod
    def from_self_description(cls, data: bytes) -> tuple["Format", int]:
        """Parse a schema; returns (format, bytes_consumed)."""
        off = 0
        (nlen,) = struct.unpack_from("<I", data, off)
        off += 4
        name = data[off : off + nlen].decode("utf-8")
        off += nlen
        (nfields,) = struct.unpack_from("<I", data, off)
        off += 4
        fields = []
        for _ in range(nfields):
            (flen,) = struct.unpack_from("<I", data, off)
            off += 4
            fname = data[off : off + flen].decode("utf-8")
            off += flen
            (kind,) = struct.unpack_from("<B", data, off)
            off += 1
            fields.append(Field(fname, FieldKind(kind)))
        return cls(name, tuple(fields)), off

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]


class FormatRegistry:
    """Holds known formats, keyed by id and by name.

    Encoders consult it to decide whether a message must inline its schema
    (first contact) or may reference the id alone; decoders use it to
    resolve ids and learn inlined schemas.
    """

    def __init__(self) -> None:
        self._by_id: dict[int, Format] = {}
        self._by_name: dict[str, Format] = {}

    def register(self, fmt: Format) -> Format:
        existing = self._by_name.get(fmt.name)
        if existing is not None and existing.format_id != fmt.format_id:
            raise ValueError(
                f"format {fmt.name!r} re-registered with a different schema"
            )
        self._by_id[fmt.format_id] = fmt
        self._by_name[fmt.name] = fmt
        return fmt

    def define(self, name: str, fields: Iterable[tuple[str, FieldKind]]) -> Format:
        """Convenience: build and register a format from (name, kind) pairs."""
        fmt = Format(name, tuple(Field(n, k) for n, k in fields))
        return self.register(fmt)

    def by_id(self, format_id: int) -> Optional[Format]:
        return self._by_id.get(format_id)

    def by_name(self, name: str) -> Optional[Format]:
        return self._by_name.get(name)

    def knows(self, fmt: Format) -> bool:
        return fmt.format_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)
