"""BP-lite: a real, indexed, self-describing binary file format.

ADIOS's BP format stores process-group records in write order with a
trailing index holding per-block offsets and *characteristics* (min/max),
so readers can locate and prune blocks without scanning data.  BP-lite
keeps that architecture:

::

    "BPLT" magic | version u32
    var record*          (one marshal message per written block)
    index                (u64 count + one marshal message per block)
    index_offset  u64
    "TLRB" trailer magic

:class:`BpReader` seeks to the trailer, loads the index, and then
fetches one block at a time.  Global-array reads go through the file
methods' handle (:mod:`repro.core.filereader`), which fetches only the
blocks a selection touches; min/max statistics allow query-style pruning
(used by the range-query analytics).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.adios.model import VarMeta
from repro.adios.selection import BoundingBox
from repro.marshal import (
    Field,
    FieldKind,
    Format,
    FormatRegistry,
    decode_message,
    decode_stream,
    encode_message,
)

_MAGIC = b"BPLT"
_TRAILER = b"TLRB"
_VERSION = 1

_VAR_FMT = Format(
    "bplite.var",
    (
        Field("name", FieldKind.STRING),
        Field("step", FieldKind.INT64),
        Field("rank", FieldKind.INT64),
        Field("data", FieldKind.ARRAY),
        Field("has_box", FieldKind.BOOL),
        Field("box_start", FieldKind.LIST_INT64),
        Field("box_count", FieldKind.LIST_INT64),
        Field("has_global", FieldKind.BOOL),
        Field("global_shape", FieldKind.LIST_INT64),
    ),
)

_IDX_FMT = Format(
    "bplite.idxent",
    (
        Field("name", FieldKind.STRING),
        Field("step", FieldKind.INT64),
        Field("rank", FieldKind.INT64),
        Field("offset", FieldKind.INT64),
        Field("length", FieldKind.INT64),
        Field("dtype", FieldKind.STRING),
        Field("vmin", FieldKind.FLOAT64),
        Field("vmax", FieldKind.FLOAT64),
        Field("has_box", FieldKind.BOOL),
        Field("box_start", FieldKind.LIST_INT64),
        Field("box_count", FieldKind.LIST_INT64),
        Field("has_global", FieldKind.BOOL),
        Field("global_shape", FieldKind.LIST_INT64),
        Field("shape", FieldKind.LIST_INT64),
    ),
)


class BpFormatError(RuntimeError):
    """Corrupt or non-BP-lite file, or misuse of the writer protocol."""


@dataclass(frozen=True)
class IndexEntry:
    """One block's index record."""

    name: str
    step: int
    rank: int
    offset: int
    length: int
    dtype: str
    vmin: float
    vmax: float
    box: Optional[BoundingBox]
    global_shape: Optional[tuple[int, ...]]
    shape: tuple[int, ...]


def merge_var_meta(name: str, entries) -> Optional[VarMeta]:
    """``name``'s metadata over index ``entries`` — of one file, or of
    every subfile of an aggregated run (``None``: no entry names it)."""
    matches = [e for e in entries if e.name == name]
    if not matches:
        return None
    gshape = next((e.global_shape for e in matches if e.global_shape), None)
    return VarMeta(
        name=name,
        dtype=matches[0].dtype,
        global_shape=gshape,
        steps=1 + max(e.step for e in matches),
        min_value=min(e.vmin for e in matches),
        max_value=max(e.vmax for e in matches),
    )


class BpWriter:
    """Writes a BP-lite file; one writer serves all ranks of a run."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "wb")
        self._fh.write(_MAGIC)
        self._fh.write(struct.pack("<I", _VERSION))
        self._index: list[dict] = []
        self._step = 0
        self._step_open = False
        self._closed = False
        #: Bytes of variable payload written (monitoring).
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def begin_step(self) -> int:
        if self._closed:
            raise BpFormatError("writer is closed")
        if self._step_open:
            raise BpFormatError("previous step not ended")
        self._step_open = True
        return self._step

    def write(
        self,
        rank: int,
        name: str,
        data: np.ndarray,
        box: Optional[BoundingBox] = None,
        global_shape: Optional[Sequence[int]] = None,
    ) -> None:
        """Write one block from ``rank`` for the current step."""
        if not self._step_open:
            raise BpFormatError("write outside begin_step/end_step")
        arr = np.asarray(data)
        if box is not None and tuple(arr.shape) != tuple(box.count):
            raise ValueError(f"data shape {arr.shape} != box count {box.count}")
        record = {
            "name": name,
            "step": self._step,
            "rank": int(rank),
            "data": arr,
            "has_box": box is not None,
            "box_start": list(box.start) if box else [],
            "box_count": list(box.count) if box else [],
            "has_global": global_shape is not None,
            "global_shape": list(global_shape) if global_shape is not None else [],
        }
        offset = self._fh.tell()
        wire = encode_message(_VAR_FMT, record)
        self._fh.write(wire)
        self.bytes_written += arr.nbytes
        if arr.size:
            vmin, vmax = float(arr.min()), float(arr.max())
        else:
            vmin, vmax = float("inf"), float("-inf")
        self._index.append(
            {
                "name": name,
                "step": self._step,
                "rank": int(rank),
                "offset": offset,
                "length": len(wire),
                "dtype": arr.dtype.str,
                "vmin": vmin,
                "vmax": vmax,
                "has_box": box is not None,
                "box_start": list(box.start) if box else [],
                "box_count": list(box.count) if box else [],
                "has_global": global_shape is not None,
                "global_shape": list(global_shape) if global_shape is not None else [],
                "shape": list(arr.shape),
            }
        )

    def end_step(self) -> None:
        if not self._step_open:
            raise BpFormatError("end_step without begin_step")
        self._step_open = False
        self._step += 1

    def close(self) -> None:
        if self._closed:
            return
        if self._step_open:
            self.end_step()
        index_offset = self._fh.tell()
        self._fh.write(struct.pack("<Q", len(self._index)))
        for entry in self._index:
            self._fh.write(encode_message(_IDX_FMT, entry))
        self._fh.write(struct.pack("<Q", index_offset))
        self._fh.write(_TRAILER)
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "BpWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BpReader:
    """Reads a BP-lite file through its index."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        self._registry = FormatRegistry()
        self.entries: list[IndexEntry] = []
        try:
            self._load_index()
        except BaseException:  # a bad header or index: the file goes too
            self._fh.close()
            raise
        #: Bytes of variable payload actually fetched (monitoring).
        self.bytes_read = 0

    def _load_index(self) -> None:
        fh = self._fh
        head = fh.read(8)
        if len(head) < 8 or head[:4] != _MAGIC:
            raise BpFormatError(f"{self.path}: not a BP-lite file")
        (version,) = struct.unpack("<I", head[4:8])
        if version != _VERSION:
            raise BpFormatError(f"unsupported BP-lite version {version}")
        fh.seek(0, os.SEEK_END)
        if fh.tell() < 20:
            raise BpFormatError(f"{self.path}: truncated file")
        fh.seek(-12, os.SEEK_END)
        tail = fh.read(12)
        if tail[8:] != _TRAILER:
            raise BpFormatError(f"{self.path}: missing trailer (truncated write?)")
        (index_offset,) = struct.unpack("<Q", tail[:8])
        fh.seek(index_offset)
        blob = fh.read()[:-12]  # index region, minus trailer
        (count,) = struct.unpack_from("<Q", blob, 0)
        pos = 8
        for _ in range(count):
            _, rec, consumed = decode_stream(blob[pos:], self._registry)
            pos += consumed
            box = (
                BoundingBox(tuple(rec["box_start"]), tuple(rec["box_count"]))
                if rec["has_box"]
                else None
            )
            self.entries.append(
                IndexEntry(
                    name=rec["name"],
                    step=rec["step"],
                    rank=rec["rank"],
                    offset=rec["offset"],
                    length=rec["length"],
                    dtype=rec["dtype"],
                    vmin=rec["vmin"],
                    vmax=rec["vmax"],
                    box=box,
                    global_shape=tuple(rec["global_shape"]) if rec["has_global"] else None,
                    shape=tuple(rec["shape"]),
                )
            )

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return 1 + max((e.step for e in self.entries), default=-1)

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.name, None)
        return list(seen)

    def var_meta(self, name: str) -> VarMeta:
        meta = merge_var_meta(name, self.entries)
        if meta is None:
            raise KeyError(f"no variable {name!r} in {self.path}")
        return meta

    def blocks(self, name: str, step: int) -> list[IndexEntry]:
        return [e for e in self.entries if e.name == name and e.step == step]

    # ------------------------------------------------------------------
    def fetch(self, entry: IndexEntry) -> np.ndarray:
        """Read and decode one block's record: the only data I/O."""
        self._fh.seek(entry.offset)
        wire = self._fh.read(entry.length)
        _, rec = decode_message(wire, self._registry)
        data = rec["data"]
        self.bytes_read += data.nbytes
        return data

    def read_block(self, name: str, step: int, rank: int) -> np.ndarray:
        """Process-group-oriented read: one writer rank's block."""
        for e in self.blocks(name, step):
            if e.rank == rank:
                return self.fetch(e)
        raise KeyError(f"no block for var {name!r} step {step} rank {rank}")

    def blocks_in_range(
        self, name: str, step: int, vmin: float, vmax: float
    ) -> list[IndexEntry]:
        """Index-level pruning: blocks whose [min,max] intersects [vmin,vmax]."""
        return [
            e
            for e in self.blocks(name, step)
            if not (e.vmax < vmin or e.vmin > vmax)
        ]

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "BpReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
