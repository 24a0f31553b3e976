"""Aggregated file I/O: the ADIOS ``MPI_AGGREGATE`` pattern.

At scale, one-file-per-process drowns the metadata server and N-to-1
single files serialize on locks; ADIOS's aggregating transport picks a
middle point: ranks forward their output to a small number of
*aggregators*, each of which writes one subfile, plus a global manifest
binding ranks to subfiles::

    out.bp.dir/
        manifest.txt          # header + rank -> subfile map
        data.0.bp             # BP-lite subfile of aggregator 0
        data.1.bp
        ...

Readers resolve blocks through the manifest, so both the process-group
and global-array read patterns work unchanged.  Configured in the XML:
``<method group="g" method="MPI_AGGREGATE">aggregators=4</method>``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.adios.api import (
    AdiosError,
    IoMethod,
    RankContext,
    WriteHandle,
    register_method,
)
from repro.adios.bp import BpReader, BpWriter
from repro.adios.config import MethodSpec
from repro.util import ceil_div

_MANIFEST = "manifest.txt"
_MANIFEST_MAGIC = "bplite-aggregate v1"


def _subfile(index: int) -> str:
    return f"data.{index}.bp"


class _AggState:
    """Shared state of one aggregated write: subfile writers + membership."""

    def __init__(self, path: str, num_ranks: int, num_aggregators: int) -> None:
        if num_aggregators < 1:
            raise AdiosError("aggregators must be >= 1")
        self.dir = f"{os.fspath(path)}.dir"
        os.makedirs(self.dir, exist_ok=True)
        self.num_ranks = num_ranks
        self.num_aggregators = min(num_aggregators, num_ranks)
        self.writers = [
            BpWriter(os.path.join(self.dir, _subfile(a)))
            for a in range(self.num_aggregators)
        ]
        for w in self.writers:
            w.begin_step()
        self.open_ranks: set[int] = set()
        self.advanced: set[int] = set()
        self.closed_ranks: set[int] = set()
        self.finished = False

    def aggregator_of(self, rank: int) -> int:
        """Contiguous rank blocks per aggregator (the ADIOS default)."""
        per = ceil_div(self.num_ranks, self.num_aggregators)
        return min(rank // per, self.num_aggregators - 1)

    def write(self, rank: int, name, data, box, global_shape) -> None:
        self.writers[self.aggregator_of(rank)].write(
            rank, name, data, box, global_shape
        )

    def end_rank_step(self, rank: int) -> None:
        self.advanced.add(rank)
        if self.advanced >= (self.open_ranks - self.closed_ranks):
            for w in self.writers:
                w.end_step()
                w.begin_step()
            self.advanced.clear()

    def close(self, rank: int) -> None:
        self.closed_ranks.add(rank)
        self.advanced.discard(rank)
        if self.closed_ranks >= self.open_ranks and not self.finished:
            for w in self.writers:
                w.close()
            self._write_manifest()
            self.finished = True

    def _write_manifest(self) -> None:
        lines = [
            _MANIFEST_MAGIC,
            f"ranks {self.num_ranks}",
            f"aggregators {self.num_aggregators}",
        ]
        for rank in sorted(self.open_ranks):
            lines.append(f"rank {rank} {_subfile(self.aggregator_of(rank))}")
        with open(os.path.join(self.dir, _MANIFEST), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


class _AggWriteHandle(WriteHandle):
    def __init__(self, state: _AggState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self._closed = False
        state.open_ranks.add(ctx.rank)

    def write(self, name, data, box=None, global_shape=None):
        if self._closed:
            raise AdiosError("write after close")
        self._state.write(self._ctx.rank, name, np.asarray(data), box, global_shape)

    def _advance(self):
        if self._closed:
            raise AdiosError("end_step after close")
        self._state.end_rank_step(self._ctx.rank)

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._state.close(self._ctx.rank)


class AggregatedBpMethod(IoMethod):
    """The ``MPI_AGGREGATE`` file method."""

    _shared: dict[str, _AggState] = {}

    def open_write(self, name, group, ctx: RankContext, spec: MethodSpec):
        # Function-local import: repro.core.hints lives above the adios
        # layer (core imports adios at package init), so a module-level
        # import here would cycle.
        from repro.core.hints import AGGREGATORS

        state = self._shared.get(name)
        if state is None or state.finished:
            state = _AggState(
                name, ctx.size, spec.param_int(AGGREGATORS, max(1, ctx.size // 4))
            )
            self._shared[name] = state
        return _AggWriteHandle(state, ctx)

    def open_read(self, name, group, ctx: RankContext, spec: MethodSpec):
        # Function-local import, as in open_write: the reader is repro.core's.
        from repro.core.filereader import FileReadHandle

        subdir = f"{os.fspath(name)}.dir"
        manifest = os.path.join(subdir, _MANIFEST)
        if not os.path.exists(manifest):
            raise AdiosError(f"no aggregated output at {name!r} (missing manifest)")
        subfiles: set[str] = set()
        with open(manifest, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != _MANIFEST_MAGIC:
                raise AdiosError(f"bad manifest header {header!r}")
            for line in fh:
                parts = line.split()
                if parts and parts[0] == "rank":
                    subfiles.add(parts[2])
        return FileReadHandle(
            [BpReader(os.path.join(subdir, f)) for f in sorted(subfiles)]
        )


register_method("MPI_AGGREGATE", AggregatedBpMethod)
register_method("AGGREGATE", AggregatedBpMethod)
