"""The offline placement: the file methods, and BP-lite files as a block source.

The file methods (``BP`` and its aliases, ``MPI_AGGREGATE``) register
here, looked up through ``adios/api.py:_METHOD_MODULES`` like the stream
methods, and read through :class:`~repro.core.reader.StepReader` like
the stream planes do, so one application switches between inline,
staged and offline analytics by its ``<method>`` line alone.  A step is the index entries with that
step, from one file or from every subfile an aggregated run's manifest
names; a block's bytes are fetched only when a plan scatters from it.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.adios import aggregate
from repro.adios.api import (
    EndOfStream,
    FileRun,
    IoMethod,
    VariableNotFound,
    WriteHandle,
    file_run,
    register_method,
)
from repro.adios.bp import BpReader, BpWriter, IndexEntry, merge_var_meta
from repro.adios.model import VarMeta
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import PluginManager
from repro.core.reader import BlockSource, StepReader
from repro.core.redistribution import PlanCache
from repro.obs import CURRENT


class _FileBlock:
    """One on-disk block as a lazy span: its dtype comes from the index,
    its bytes from the file when a plan's assignment reads it
    (:meth:`~repro.core.redistribution.CompiledPlan._coerce_blocks`)."""

    __slots__ = ("reader", "entry", "dtype")

    def __init__(self, reader: BpReader, entry: IndexEntry) -> None:
        self.reader = reader
        self.entry = entry
        self.dtype = np.dtype(entry.dtype)

    def as_array(self, dtype, shape) -> np.ndarray:
        return self.reader.fetch(self.entry).reshape(shape)


class _FileStep(BlockSource):
    """One step of a BP-lite run: its ``(reader, entry)`` pairs."""

    __slots__ = ("pairs", "block_index")

    #: Files carry no publish span: reads root (or join the caller's
    #: current) trace, as on the net plane.
    trace_ctx = CURRENT
    #: A file holds every block its writers wrote.
    may_be_pruned = False

    def __init__(self, pairs: list[tuple[BpReader, IndexEntry]]) -> None:
        self.pairs = pairs
        self.block_index: dict = {}

    def var_names(self) -> list[str]:
        return list(dict.fromkeys(e.name for _, e in self.pairs))

    def var_blocks(self, name: str):
        for reader, e in self.pairs:
            if e.name == name:
                yield e.box, e.global_shape, _FileBlock(reader, e)

    def writer_record(self, rank: int) -> Optional[dict]:
        record: dict = {}
        for reader, e in self.pairs:
            if e.rank == rank and e.name not in record:
                record[e.name] = reader.fetch(e)
        return record or None


class FileReadHandle(StepReader):
    """Reader of one BP-lite run, over its file or its subfiles.

    Step ``i`` is every index entry with step ``i``; a step no entry
    names ends the run (a BP writer always leaves one empty step open).
    Reads compile into a per-handle plan cache, as on the net plane.
    """

    def __init__(self, readers: list[BpReader]) -> None:
        #: The files read, each counting the bytes it fetched (``bytes_read``).
        self.readers = readers
        self._steps: dict[int, list[tuple[BpReader, IndexEntry]]] = {}
        for reader in readers:
            for e in reader.entries:
                self._steps.setdefault(e.step, []).append((reader, e))
        self.monitor = PerfMonitor()
        self.plugins = PluginManager(self.monitor)
        self._plans = PlanCache(maxsize=64)

    def _step_at(self, index: int) -> _FileStep:
        pairs = self._steps.get(index)
        if pairs is None:
            raise EndOfStream(
                f"{', '.join(r.path for r in self.readers)} has no step {index}"
            )
        return _FileStep(pairs)

    def var_meta(self, name: str) -> VarMeta:
        """``name``'s metadata over every step of every file."""
        meta = merge_var_meta(name, (e for r in self.readers for e in r.entries))
        if meta is None:
            raise VariableNotFound(f"no variable {name!r}")
        return meta

    def close(self) -> None:
        for reader in self.readers:
            reader.close()


def _plugins() -> PluginManager:
    """A new file run's plug-in chain, with the run's own monitor."""
    return PluginManager(PerfMonitor())


class BpFileMethod(IoMethod):
    """ADIOS file mode: variables land in an indexed BP-lite file."""

    def open_write(self, name, group, ctx, spec):
        path = os.fspath(name)
        return WriteHandle(file_run(path, lambda: FileRun(_plugins(), [BpWriter(path)])), ctx)

    def open_read(self, name, group, ctx, spec):
        return FileReadHandle([BpReader(name)])


class AggregatedBpMethod(IoMethod):
    """The ``MPI_AGGREGATE`` file method (:mod:`repro.adios.aggregate`)."""

    def open_write(self, name, group, ctx, spec):
        return aggregate.open_write(name, ctx, spec, _plugins)

    def open_read(self, name, group, ctx, spec):
        return FileReadHandle([BpReader(p) for p in aggregate.read_manifest(name)])


# Paper: the MPI-IO, HDF5 and NetCDF methods all funnel into the same
# file substrate.
for _name in ("BP", "POSIX", "MPI", "HDF5", "NETCDF"):
    register_method(_name, BpFileMethod)
register_method("MPI_AGGREGATE", AggregatedBpMethod)
register_method("AGGREGATE", AggregatedBpMethod)
