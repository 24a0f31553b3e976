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

Writers are the BP method's: one :class:`~repro.adios.api.FileRun`, here
over the subfiles, whose finish hook writes the manifest; readers list
the subfiles with :func:`read_manifest`, so the manifest's writer and
parser live side by side.  The method itself,
:class:`~repro.core.filereader.AggregatedBpMethod`, registers with the
file methods' reader; both the process-group and global-array read
patterns work unchanged.  Configured in the XML:
``<method group="g" method="MPI_AGGREGATE">aggregators=4</method>``.
"""

from __future__ import annotations

import os

from repro.adios.api import AdiosError, FileRun, RankContext, WriteHandle, file_run
from repro.adios.bp import BpWriter
from repro.adios.config import AGGREGATORS, MethodSpec
from repro.util import ceil_div

_MANIFEST = "manifest.txt"
_MANIFEST_MAGIC = "bplite-aggregate v1"


def _subfile(index: int) -> str:
    return f"data.{index}.bp"


def _aggregated_run(plugins, subdir: str, num_ranks: int, num_aggregators: int) -> FileRun:
    """One subfile per aggregator in ``subdir``; the manifest is written
    once the last rank closes."""
    if num_aggregators < 1:
        raise AdiosError("aggregators must be >= 1")
    os.makedirs(subdir, exist_ok=True)
    num_aggregators = min(num_aggregators, num_ranks)
    per = ceil_div(num_ranks, num_aggregators)

    def aggregator_of(rank: int) -> int:
        """Contiguous rank blocks per aggregator (the ADIOS default)."""
        return min(rank // per, num_aggregators - 1)

    def write_manifest(run: FileRun) -> None:
        lines = [
            _MANIFEST_MAGIC,
            f"ranks {num_ranks}",
            f"aggregators {num_aggregators}",
        ]
        for rank in sorted(run.barrier.joined):
            lines.append(f"rank {rank} {_subfile(aggregator_of(rank))}")
        with open(os.path.join(subdir, _MANIFEST), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    return FileRun(
        plugins,
        [BpWriter(os.path.join(subdir, _subfile(a))) for a in range(num_aggregators)],
        aggregator_of,
        write_manifest,
    )


def open_write(name, ctx: RankContext, spec: MethodSpec, plugins) -> WriteHandle:
    """Rank ``ctx``'s handle on the aggregated run writing ``name``."""
    subdir = f"{os.fspath(name)}.dir"
    run = file_run(subdir, lambda: _aggregated_run(
        plugins(), subdir, ctx.size, spec.param_int(AGGREGATORS, max(1, ctx.size // 4))
    ))
    return WriteHandle(run, ctx)


def read_manifest(name) -> list[str]:
    """The subfile paths the manifest of the run at ``name`` binds ranks to."""
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
    return [os.path.join(subdir, f) for f in sorted(subfiles)]
