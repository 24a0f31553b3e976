"""The read path every placement shares.

:class:`StepReader` is written once against a *block source*; the
in-process handle (:class:`repro.core.stream.FlexpathReadHandle`), the
network one (:class:`repro.net.client.NetReadHandle`) and the file
methods' (:class:`repro.core.filereader.FileReadHandle`) say where a
step comes from and nothing else.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.adios.api import (
    AdiosError,
    ReadHandle,
    StepLost,
    VariableNotFound,
    resolve_read_args,
)
from repro.adios.selection import resolve_selection
from repro.core.plugins import PluginSide
from repro.core.redistribution import CompiledPlan, FusedPlan, boxes_key, compute_plan


def index_blocks(blocks) -> tuple:
    """One variable's ``(box, global_shape, data)`` blocks as the read
    path uses them: ``(boxes, datas, gshape, dtype, writer_key)`` —
    the placed blocks and their data, the last declared global shape,
    the last block's dtype (``None``: no block) and the placed boxes'
    plan-cache key."""
    boxes, datas = [], []
    gshape = dtype = None
    for box, block_gshape, data in blocks:
        dtype = data.dtype
        if block_gshape is not None:
            gshape = block_gshape
        if box is not None:
            boxes.append(box)
            datas.append(data)
    return boxes, datas, gshape, dtype, boxes_key(boxes)


#: Result buffers a read handle keeps: the caller may hold step s's
#: result while it reads step s+1.
OUT_BUFFERS = 2


def _refs(bufs: list, i: int) -> int:
    return sys.getrefcount(bufs[i])


#: What :func:`_refs` reads for a buffer only its handle's list holds;
#: any more is a live result, a slice of one, or another holder.
_UNHELD = _refs([np.empty(0)], 0)


class BlockSource:
    """The one ``blocks`` of every step source, in process, fetched or
    on disk: :func:`index_blocks` of ``var_blocks(name)``, built
    once per step into ``block_index`` — every reader rank shares it — and
    emptied by a source whose arrays start viewing other bytes."""

    __slots__ = ()

    def blocks(self, name: str) -> tuple:
        found = self.block_index.get(name)
        if found is None:
            found = self.block_index[name] = index_blocks(self.var_blocks(name))
        return found


class StepReader(ReadHandle):
    """The one read path of every placement.

    Selection → fused plan / plain plan (cached or compiled afresh) →
    reader-side chain, with the ``read`` → ``redistribute``/``transport``
    spans and the fused/interpreted counters, written once against a
    **block source** — the step object :meth:`_source` returns
    (:class:`_PublishedStep` in process, the net client's wire views,
    a file step's lazy on-disk blocks):
    ``var_names()``; ``blocks(name)``, :func:`index_blocks` of its
    writer blocks (a sealed step builds it once for every reader
    rank); ``writer_record(rank, name)``, one writer's
    ``{name: data}`` — only ``name``'s unless ``name`` is ``None`` — or
    ``None``; ``trace_ctx``, the publish span reads
    parent on; ``may_be_pruned``, whether a broker may have dropped
    blocks the run's reader chain provably drops.  Subclasses say where a
    step comes from (:meth:`_step_at`; moving past a lost step is done
    once, here) and provide ``plugins``, ``monitor`` and ``_plans`` (the
    :class:`PlanCache` reads compile into; ``None`` re-derives overlap
    geometry every read).  Planes differ only through the source.
    ``begin_step`` positions once: the source it found serves every
    read until the cursor moves or ``end_step()``.
    """

    _cursor = 0
    #: The source ``begin_step`` found for the cursor (``None``: not
    #: positioned — each read looks the step up).
    _at = None
    #: Byte buffers the plain reads' results view (:meth:`_out`).
    _outs = None

    @property
    def current_step(self) -> int:
        return self._cursor

    def _step_at(self, index: int):
        """Step ``index``'s block source; raises the typed readiness
        exceptions (:class:`StepNotReady`, :class:`EndOfStream`, …)."""
        raise NotImplementedError

    def _source(self):
        """The current step's block source."""
        return self._at or self._step_at(self._cursor)

    def _probe_step(self) -> None:
        self._at = self._step_at(self._cursor)

    def _advance(self):
        nxt = self._cursor + 1
        self._at = None
        try:
            at = self._step_at(nxt)
        except StepLost:
            # Move first, then surface the lost step: begin_step() marks
            # it consumed, so the following begin_step() skips the gap.
            self._cursor = nxt
            raise
        self._cursor, self._at = nxt, at

    def end_step(self):
        status = super().end_step()
        self._at = None
        self._release()
        return status

    def _release(self) -> None:
        """``end_step()`` lets the source's bytes go: what a read returned
        is the caller's and never views them.  Nothing to do in process."""

    def _account_handshake(self, name, writer_boxes, writer_key) -> None:
        """Control-plane accounting of one exchange (in process only)."""

    def available_vars(self):
        return self._source().var_names()

    def _reader_chain(self, name: str):
        """The compiled reader-side chain when fusion may engage for
        reads of ``name`` — else ``None`` (interpreted fallback)."""
        if not self.plugins.has_side(PluginSide.READER):
            return None
        chain = self.plugins.compiled_chain(PluginSide.READER)
        if chain is None or not chain.supports(name):
            return None
        return chain

    def _plan(self, boxes, writer_key, target, gshape, chain=None):
        """This geometry's compiled plan, fused with ``chain`` if given:
        replayed from ``_plans`` when there is one (keys carry the chain
        hash, so geometry is reused across chains), else compiled afresh."""
        if self._plans is None:
            base = CompiledPlan(compute_plan(boxes, [target]))
            return FusedPlan(base, chain) if chain is not None else base
        plan, hit = self._plans.get(
            boxes, [target], gshape, chain=chain, writer_key=writer_key
        )
        self.monitor.metrics.counter(
            "dataplane.plan_cache.hits" if hit else "dataplane.plan_cache.misses"
        ).inc()
        return plan

    def read_block(self, name: str, writer_rank: int) -> np.ndarray:
        source = self._source()
        # A reader chain sees the writer's whole record; a plain read
        # needs its one variable.
        chained = self.plugins.has_side(PluginSide.READER)
        record = source.writer_record(writer_rank, None if chained else name)
        if record is None or name not in record:
            raise VariableNotFound(
                f"no block for var {name!r} from writer {writer_rank} "
                f"at step {self._cursor}"
            )
        mon = self.monitor
        with mon.span(
            "read", name, parent=source.trace_ctx,
            step=self._cursor, writer_rank=writer_rank,
        ):
            with mon.span("transport", name, writer_rank=writer_rank) as tspan:
                tspan.add_bytes(sum(int(d.nbytes) for d in record.values()))
            if chained:
                record = self.plugins.apply_side(PluginSide.READER, record)
        data = np.asarray(record[name])
        mon.metrics.counter("dataplane.bytes_read").inc(int(data.nbytes))
        return data

    def _out(self, shape, dtype) -> np.ndarray:
        """A new array of ``shape``/``dtype`` for a read that allocates
        its own result: a fresh view over one of the handle's
        :data:`OUT_BUFFERS` byte buffers that nothing outside the handle
        references any more (every view holds its owner through
        ``.base``), else over a new one.  Reusing the memory, not the
        array object, keeps a long stream from returning its result
        pages to the allocator each step and faulting them back in."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if not nbytes or dtype.hasobject:
            return np.empty(shape, dtype)
        outs = self._outs
        if outs is None:
            outs = self._outs = []
        spare = None
        for i in range(len(outs)):
            if _refs(outs, i) == _UNHELD:
                if outs[i].nbytes >= nbytes:
                    return outs[i][:nbytes].view(dtype).reshape(shape)
                spare = i
        buf = np.empty(nbytes, np.uint8)
        if spare is not None:
            outs[spare] = buf
        elif len(outs) < OUT_BUFFERS:
            outs.append(buf)
        return buf.view(dtype).reshape(shape)

    def read(self, name, *, start=None, count=None, selection=None) -> np.ndarray:
        return self._read(name, None, start, count, selection)

    def read_into(
        self, name, out: np.ndarray, *, start=None, count=None, selection=None
    ) -> np.ndarray:
        """Like :meth:`read`, but scatter the selection straight into the
        preallocated ``out`` array — the steady-state zero-allocation
        read path (incoming spans land in the reader's own buffer, no
        per-step ``np.empty``).  ``out`` must match the selection's shape
        and the variable's dtype; cells no block covers are zeroed, as
        :meth:`read` returns them.  Returns ``out``.  Under a reader-side
        chain, ``out`` is written only if the chain's output has exactly
        its shape; otherwise (a filter dropped rows) the read raises
        :class:`AdiosError` and ``out`` is left as it was.
        """
        return self._read(name, out, start, count, selection)

    def _read(self, name, out, start, count, selection) -> np.ndarray:
        """Both reads: ``out`` is the caller's destination, or ``None``
        when the read allocates its own."""
        start, count = resolve_read_args(selection, start, count)
        source = self._source()
        boxes, datas, gshape, dtype, writer_key = source.blocks(name)
        if dtype is None:
            raise VariableNotFound(f"no variable {name!r} at step {self._cursor}")
        if gshape is None:
            raise AdiosError(
                f"variable {name!r} is not a global array; use read_block()"
            )
        if not boxes and not source.may_be_pruned:
            raise AdiosError(f"no block of {name!r} is placed in its global array")
        target = resolve_selection(start, count, gshape)
        if out is not None:
            if tuple(out.shape) != tuple(target.count):
                raise ValueError(
                    f"out shape {tuple(out.shape)} != selection count "
                    f"{tuple(target.count)}"
                )
            if out.dtype != dtype:
                raise ValueError(f"out dtype {out.dtype} != variable dtype {dtype}")
        mon = self.monitor
        plugins = self.plugins
        chain = self._reader_chain(name)
        with mon.span("read", name, parent=source.trace_ctx, step=self._cursor):
            with mon.span("redistribute", name, writers=len(boxes)):
                self._account_handshake(name, boxes, writer_key)
            fplan = None
            if chain is not None and boxes:
                fplan = self._plan(boxes, writer_key, target, gshape, chain)
                filters = chain.has_filter(name)
                # Axis-0 gaps are sound only where they can only be
                # blocks the chain drops: a pruned source under a chain
                # that filters ``name``.  Such a chain also changes the
                # shape, so it cannot land in a caller's array.
                gaps_ok = filters and source.may_be_pruned
                if not (fplan.row_tiled if gaps_ok else fplan.fusable) or (
                    filters and out is not None
                ):
                    fplan = None
            if fplan is not None:
                # Single pass: the chain runs while wire spans scatter —
                # no materialized intermediate array.
                with mon.span(
                    "transport", name, fused=True, chain=chain.chain_hash
                ) as tspan:
                    if out is None:
                        result = fplan.execute(
                            datas, name, dtype=dtype, check=False, monitor=mon
                        )
                    else:
                        result = fplan.execute_into(
                            datas, name, out, check=False, monitor=mon
                        )
                    tspan.add_bytes(int(result.nbytes))
                plugins.count_fused_read()
            else:
                if source.may_be_pruned:
                    # Only the fused per-block path reads a pruned step
                    # soundly (a plain plan would put fill values where
                    # pruned rows were, and the interpreted chain could
                    # select them).
                    raise AdiosError(
                        f"pushdown is active but the blocks of {name!r} do not "
                        f"row-tile the selection; re-open without pushdown for "
                        f"this access pattern"
                    )
                chained = plugins.has_side(PluginSide.READER)
                with mon.span("transport", name) as tspan:
                    cplan = self._plan(boxes, writer_key, target, gshape)
                    if chained:
                        result = cplan.execute(datas, dtype=dtype, check=False)[0]
                    else:
                        dest = self._out(target.count, dtype) if out is None else out
                        result = cplan.execute_into(
                            datas, [dest], fill=0, check=False
                        )[0]
                    tspan.add_bytes(int(result.nbytes))
                if chained:
                    plugins.count_interpreted_read()
                    record = plugins.apply_side(PluginSide.READER, {name: result})
                    result = np.asarray(record[name])
                    if out is not None:
                        if result.shape != out.shape:  # never broadcast into out
                            raise AdiosError(
                                f"read_into: the reader chain made {name!r} "
                                f"{result.shape}, not out's {out.shape}"
                            )
                        out[...] = result
                        result = out
        mon.metrics.counter("dataplane.bytes_read").inc(int(result.nbytes))
        return result

    def read_all(
        self, names=None, *, start=None, count=None, selection=None
    ) -> dict[str, np.ndarray]:
        """Read several global-array variables of the current step.

        ``names=None`` selects every global-array variable.  In process
        with ``batching=true`` the first read's handshake round services
        them all (paper's variable batching); without it each variable
        pays its own round, exactly as per-variable ``read`` calls do.
        """
        if names is None:
            source = self._source()
            names = [n for n in source.var_names() if source.blocks(n)[2] is not None]
        return {
            n: self.read(n, start=start, count=count, selection=selection)
            for n in names
        }
