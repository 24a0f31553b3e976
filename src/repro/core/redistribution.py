"""MxN global-array redistribution (paper Sections II.B–II.C, Figure 3).

A multi-dimensional array distributed over M writer processes is passed to
N reader processes that may request a *different* distribution.  The
engine:

1. computes the redistribution **plan** — for every (writer, reader) pair,
   the overlap of the writer's block with the reader's requested block;
2. accounts for the **4-step handshake** that establishes the plan at
   runtime, honouring the caching options:

   * ``NO_CACHING`` — full protocol each variable each timestep;
   * ``CACHING_LOCAL`` — reuse the local side's gathered distribution
     (skip step 1), still exchange with the peer (steps 2–4);
   * ``CACHING_ALL`` — reuse both sides' distributions (only step 4);

3. optionally **batches** several variables so handshake and data messages
   aggregate;
4. actually **moves the data**: writer-local numpy blocks are sliced into
   strides per the plan and assembled into each reader's target buffer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from repro.adios.selection import BoundingBox, intersect
from repro.core.monitoring import PerfMonitor


class CachingOption(Enum):
    """How much handshake state carries over between timesteps."""

    NO_CACHING = "none"
    CACHING_LOCAL = "local"
    CACHING_ALL = "all"


@dataclass(frozen=True)
class OverlapPair:
    """One writer→reader stride transfer of the plan."""

    writer: int
    reader: int
    overlap: BoundingBox

    def nbytes(self, itemsize: int) -> int:
        return self.overlap.size * itemsize


@dataclass
class RedistributionPlan:
    """The computed MxN mapping for one (writer dist, reader dist) pair."""

    writer_boxes: list[BoundingBox]
    reader_boxes: list[BoundingBox]
    pairs: list[OverlapPair]
    _by_writer: dict[int, list[OverlapPair]] = field(default_factory=dict)
    _by_reader: dict[int, list[OverlapPair]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for p in self.pairs:
            self._by_writer.setdefault(p.writer, []).append(p)
            self._by_reader.setdefault(p.reader, []).append(p)

    @property
    def num_writers(self) -> int:
        return len(self.writer_boxes)

    @property
    def num_readers(self) -> int:
        return len(self.reader_boxes)

    def sends_of(self, writer: int) -> list[OverlapPair]:
        return self._by_writer.get(writer, [])

    def recvs_of(self, reader: int) -> list[OverlapPair]:
        return self._by_reader.get(reader, [])

    def total_bytes(self, itemsize: int) -> int:
        return sum(p.nbytes(itemsize) for p in self.pairs)

    def data_message_count(self) -> int:
        """Stride messages in step 4 (one per overlapping pair)."""
        return len(self.pairs)

    def communication_matrix(self, itemsize: int) -> np.ndarray:
        """(M, N) byte-volume matrix — input to the placement algorithms."""
        mat = np.zeros((self.num_writers, self.num_readers), dtype=np.int64)
        for p in self.pairs:
            mat[p.writer, p.reader] += p.nbytes(itemsize)
        return mat


def compute_plan(
    writer_boxes: Sequence[BoundingBox], reader_boxes: Sequence[BoundingBox]
) -> RedistributionPlan:
    """Overlap every writer block with every reader block.

    O(M·N) box intersections — exact and plenty fast at the scales the
    paper exercises; each process in the real system computes only its own
    row/column of this product independently (after step 3 of the
    handshake everyone knows all distributions).
    """
    if not writer_boxes:
        raise ValueError("need at least one writer box")
    if not reader_boxes:
        raise ValueError("need at least one reader box")
    ndim = writer_boxes[0].ndim
    for b in list(writer_boxes) + list(reader_boxes):
        if b.ndim != ndim:
            raise ValueError("all boxes must share dimensionality")
    pairs = []
    for w, wb in enumerate(writer_boxes):
        for r, rb in enumerate(reader_boxes):
            ov = intersect(wb, rb)
            if ov is not None:
                pairs.append(OverlapPair(w, r, ov))
    return RedistributionPlan(list(writer_boxes), list(reader_boxes), pairs)


class CompiledPlan:
    """A :class:`RedistributionPlan` lowered to replayable slice assignments.

    Compilation walks the plan's overlap pairs **once** and records, per
    reader, the ``(writer, src_slices, dst_slices)`` triples needed to
    scatter writer blocks into reader buffers.  Subsequent steps replay
    those triples as pure numpy slice assignments — no box intersection,
    no slice arithmetic, no per-block bookkeeping on the hot path.

    Coverage of each reader box is also detected at compile time so fully
    covered targets can be allocated with :func:`numpy.empty` instead of
    :func:`numpy.full`.
    """

    __slots__ = (
        "plan",
        "writer_boxes",
        "reader_boxes",
        "assignments",
        "covered",
        "elements_moved",
        "sources",
    )

    def __init__(self, plan: RedistributionPlan) -> None:
        self.plan = plan
        self.writer_boxes = list(plan.writer_boxes)
        self.reader_boxes = list(plan.reader_boxes)
        # assignments[r] = [(writer_idx, src_slices, dst_slices), ...] in
        # plan-pair order, so overwrite semantics match seed assemble().
        self.assignments: list[list[tuple[int, tuple, tuple]]] = [
            [] for _ in self.reader_boxes
        ]
        self.elements_moved = 0
        for pair in plan.pairs:
            wbox = self.writer_boxes[pair.writer]
            rbox = self.reader_boxes[pair.reader]
            src = pair.overlap.slices(relative_to=wbox)
            dst = pair.overlap.slices(relative_to=rbox)
            self.assignments[pair.reader].append((pair.writer, src, dst))
            self.elements_moved += pair.overlap.size
        #: Writers some assignment reads: only their blocks are coerced.
        self.sources = {w for a in self.assignments for w, _, _ in a}
        # A reader box is "covered" when the union of its incoming
        # overlaps fills it entirely; detected once with a boolean mask.
        self.covered: list[bool] = []
        for r, rbox in enumerate(self.reader_boxes):
            if not self.assignments[r]:
                self.covered.append(rbox.size == 0)
                continue
            mask = np.zeros(rbox.count, dtype=bool)
            for _, _, dst in self.assignments[r]:
                mask[dst] = True
            self.covered.append(bool(mask.all()))

    def _coerce_blocks(
        self,
        writer_blocks: Sequence,
        dtype: Optional[np.dtype],
        check: bool,
    ) -> tuple[list[np.ndarray], np.dtype]:
        """Normalize incoming blocks to shaped arrays.

        A block may be an ndarray or a wire span
        (:class:`~repro.transport.buffers.WireBuffer` — anything with an
        ``as_array``): spans are reinterpreted in place as
        ``np.frombuffer`` views shaped to their writer box, so bytes
        arriving from the transport scatter straight into the reader
        arrays with no intermediate materialization.  A span no
        assignment reads is passed through untouched, so a lazy one (an
        on-disk block) is never fetched.
        """
        if check and len(writer_blocks) != len(self.writer_boxes):
            raise ValueError(
                f"expected {len(self.writer_boxes)} writer blocks, "
                f"got {len(writer_blocks)}"
            )
        blocks: list[np.ndarray] = []
        for i, blk in enumerate(writer_blocks):
            if isinstance(blk, np.ndarray):
                pass
            elif i not in self.sources:
                blocks.append(blk)  # nothing reads it: stays unfetched
                continue
            elif hasattr(blk, "as_array"):
                if dtype is None:
                    raise ValueError("dtype is required for wire-span blocks")
                blk = blk.as_array(dtype, self.writer_boxes[i].count)
            else:
                blk = np.asarray(blk)
            if check and tuple(blk.shape) != tuple(self.writer_boxes[i].count):
                raise ValueError(
                    f"writer {i} block shape {tuple(blk.shape)} != "
                    f"box count {self.writer_boxes[i].count}"
                )
            blocks.append(blk)
        if dtype is None:
            dtype = blocks[0].dtype
        return blocks, np.dtype(dtype)

    def execute(
        self,
        writer_blocks: Sequence[np.ndarray],
        dtype: Optional[np.dtype] = None,
        fill: float = 0,
        check: bool = True,
    ) -> list[np.ndarray]:
        """Replay the compiled assignments: writer blocks → reader arrays.

        Byte-identical to :func:`repro.adios.selection.assemble` run per
        reader box, but without recomputing any overlap geometry.  Writer
        blocks may be wire spans (see :meth:`_coerce_blocks`).
        """
        blocks, dtype = self._coerce_blocks(writer_blocks, dtype, check)
        outputs: list[np.ndarray] = []
        for r, rbox in enumerate(self.reader_boxes):
            if self.covered[r]:
                out = np.empty(rbox.count, dtype=dtype)
            else:
                out = np.full(rbox.count, fill, dtype=dtype)
            for w, src, dst in self.assignments[r]:
                out[dst] = blocks[w][src]
            outputs.append(out)
        return outputs

    def execute_into(
        self,
        writer_blocks: Sequence[np.ndarray],
        outs: Sequence[np.ndarray],
        fill: Optional[float] = None,
        check: bool = True,
    ) -> Sequence[np.ndarray]:
        """Replay the compiled assignments into *preallocated* reader
        arrays — the steady-state zero-allocation path.

        ``outs`` must hold one array per reader box, each shaped to its
        box.  Incoming spans scatter straight into them; uncovered cells
        are only touched when ``fill`` is given (pass it on the first
        step, omit it to preserve existing values).  Returns ``outs``.
        """
        if len(outs) != len(self.reader_boxes):
            raise ValueError(
                f"expected {len(self.reader_boxes)} output arrays, got {len(outs)}"
            )
        for r, (out, rbox) in enumerate(zip(outs, self.reader_boxes)):
            if tuple(out.shape) != tuple(rbox.count):
                raise ValueError(
                    f"reader {r} output shape {tuple(out.shape)} != "
                    f"box count {rbox.count}"
                )
        blocks, _ = self._coerce_blocks(
            writer_blocks, outs[0].dtype if outs else None, check
        )
        for r in range(len(self.reader_boxes)):
            out = outs[r]
            if fill is not None and not self.covered[r]:
                out[...] = fill
            for w, src, dst in self.assignments[r]:
                out[dst] = blocks[w][src]
        return outs


class FusedPlan:
    """A :class:`CompiledPlan` with a reader-side kernel chain fused in.

    Instead of scattering wire spans into a materialized global array and
    then running the plug-in chain interpreted over it, the fused plan
    runs the chain *per block while scattering*: filters drop rows before
    they are ever copied, transforms write straight into the destination.
    Single-reader only (the stream read path).

    Fusion is legal when the reader's destination slices are disjoint
    ascending runs along axis 0 with full trailing dimensions
    (``row_tiled``) that leave no row uncovered (``fusable``) — then
    per-block row operations concatenated in row order are byte-identical
    to the whole-array interpreted pass.  A row tiling *with* gaps is
    sound only for a filtering chain over a source whose missing blocks
    are exactly the ones the chain drops (a step the broker pruned for
    this reader): the reader says which it may use.  Else fall back.
    """

    __slots__ = ("compiled", "chain", "row_tiled", "fusable", "_order")

    def __init__(self, compiled: CompiledPlan, chain) -> None:
        self.compiled = compiled
        self.chain = chain
        self._order: list[tuple[int, int, int, tuple]] = []
        self.row_tiled = self.fusable = False
        self._analyze()

    def _analyze(self) -> None:
        if len(self.compiled.reader_boxes) != 1:
            return
        count = tuple(self.compiled.reader_boxes[0].count)
        spans = []
        for w, src, dst in self.compiled.assignments[0]:
            first = dst[0]
            if first.step not in (None, 1):
                return
            for d, s in enumerate(dst[1:], start=1):
                if (s.start or 0) != 0 or s.stop != count[d] or s.step not in (None, 1):
                    return
            spans.append((first.start or 0, first.stop, w, src, dst))
        spans.sort(key=lambda t: (t[0], t[1]))
        row = 0
        gaps = False
        for a, b, _, _, _ in spans:
            if a < row:  # overlap: overwrite order would matter
                return
            gaps = gaps or a > row
            row = b
        self._order = spans
        self.row_tiled = True
        self.fusable = not gaps and row == count[0]

    def can_execute_into(self, name: str) -> bool:
        """In-place scatter keeps shape, so only filter-free chains."""
        return self.fusable and not self.chain.has_filter(name)

    def execute(
        self,
        writer_blocks: Sequence[np.ndarray],
        name: str,
        dtype: Optional[np.dtype] = None,
        check: bool = True,
        monitor=None,
    ) -> np.ndarray:
        """Scatter + chain in one pass; returns the conditioned array.

        With a filtering chain the per-block survivors concatenate in row
        order (one allocation, exactly the final size); a filter-free
        chain writes transforms straight into the destination buffer
        (so it insists on ``fusable``: gaps would stay unwritten).
        """
        if not self.row_tiled:
            raise ValueError("plan is not fusable; use CompiledPlan.execute")
        blocks, dtype = self.compiled._coerce_blocks(writer_blocks, dtype, check)
        rbox = self.compiled.reader_boxes[0]
        if not self.chain.has_filter(name):
            out = np.empty(rbox.count, dtype=dtype)
            self.execute_into(blocks, name, out, check=False, monitor=monitor)
            return out
        cursor = self.chain.cursor(name)
        pieces = []
        for _, _, w, src, _ in self._order:
            piece = cursor.apply_block(blocks[w][src])
            if piece.shape[0]:
                pieces.append(piece)
        cursor.finish(monitor)
        if not pieces:
            tail = tuple(rbox.count)[1:]
            return np.empty((0, *tail), dtype=dtype)
        if len(pieces) == 1:
            return np.array(pieces[0], dtype=dtype, copy=True)
        return np.concatenate(pieces, axis=0)

    def execute_into(
        self,
        writer_blocks: Sequence[np.ndarray],
        name: str,
        out: np.ndarray,
        check: bool = True,
        monitor=None,
    ) -> np.ndarray:
        """Shape-preserving fused scatter into a preallocated array: the
        first transform lands with ``out=``, the rest run in place — no
        intermediate arrays."""
        if not self.can_execute_into(name):
            raise ValueError(
                "in-place fused scatter needs a gapless row tiling and a "
                "filter-free chain; use execute()"
            )
        blocks, _ = self.compiled._coerce_blocks(writer_blocks, out.dtype, check)
        cursor = self.chain.cursor(name)
        for _, _, w, src, dst in self._order:
            if cursor.kernels:
                cursor.apply_block_into(blocks[w][src], out[dst])
            else:  # a plain scatter is no kernel work
                out[dst] = blocks[w][src]
        cursor.finish(monitor)
        return out


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def boxes_key(boxes: Sequence[BoundingBox]) -> tuple:
    """One distribution's part of a plan-cache key."""
    return tuple((b.start, b.count) for b in boxes)


def make_plan_key(
    writer_boxes: Sequence[BoundingBox],
    reader_boxes: Sequence[BoundingBox],
    gshape: Optional[Sequence[int]] = None,
    chain_hash: str = "",
    writer_key: Optional[tuple] = None,
) -> tuple:
    """Cache key for one (writer dist, reader dist, global shape) triple.

    ``chain_hash`` (the :class:`~repro.core.plugins.CompiledChain`
    digest) separates plans fused against different plug-in chains; the
    empty string is the plain, unfused plan.  ``writer_key`` is
    ``boxes_key(writer_boxes)`` when the caller already has it.
    """
    return (
        boxes_key(writer_boxes) if writer_key is None else writer_key,
        boxes_key(reader_boxes),
        tuple(gshape) if gshape is not None else None,
        chain_hash,
    )


class PlanCache:
    """Process-wide LRU cache of compiled redistribution plans.

    Shared by every CACHING_ALL stream in the process (paper's
    "distribution caching at both sides"); CACHING_LOCAL streams hold a
    private instance.  Thread-safe: the writer drainer thread and reader
    threads may race on it.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(
        self,
        writer_boxes: Sequence[BoundingBox],
        reader_boxes: Sequence[BoundingBox],
        gshape: Optional[Sequence[int]] = None,
        chain=None,
        writer_key: Optional[tuple] = None,
    ):
        """Return ``(plan, hit)`` — compiling on miss.

        Without ``chain`` the plan is a plain :class:`CompiledPlan`;
        with a :class:`~repro.core.plugins.CompiledChain` it is a
        :class:`FusedPlan`, cached under a chain-hash-extended key so
        the same geometry fused against different chains never collides.
        ``writer_key``: the writer boxes' key, when a step's block index
        already holds it.
        """
        chain_hash = chain.chain_hash if chain is not None else ""
        key = make_plan_key(writer_boxes, reader_boxes, gshape, chain_hash, writer_key)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self.stats.hits += 1
                return cached, True
            self.stats.misses += 1
            # Reuse already-compiled geometry for a new chain variant.
            base = self._plans.get(key[:3] + ("",)) if chain is not None else None
        # Compile outside the lock: O(M·N) box math can be slow.
        if base is None:
            base = CompiledPlan(compute_plan(writer_boxes, reader_boxes))
        plan = FusedPlan(base, chain) if chain is not None else base
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return plan, False

    def invalidate(
        self,
        writer_boxes: Sequence[BoundingBox],
        reader_boxes: Sequence[BoundingBox],
        gshape: Optional[Sequence[int]] = None,
    ) -> bool:
        """Drop every chain variant of one geometry (e.g. after
        ``update_writer_boxes``) — the plain plan and all fused plans
        share the (writer, reader, gshape) key prefix."""
        prefix = make_plan_key(writer_boxes, reader_boxes, gshape)[:3]
        with self._lock:
            stale = [k for k in self._plans if k[:3] == prefix]
            for k in stale:
                del self._plans[k]
            return bool(stale)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = PlanCacheStats()


#: The process-wide cache backing CACHING_ALL streams.
global_plan_cache = PlanCache()


@dataclass(frozen=True)
class HandshakeCost:
    """Control-plane cost of establishing one exchange."""

    messages: int
    control_bytes: int
    steps_performed: tuple[str, ...]

    def __add__(self, other: "HandshakeCost") -> "HandshakeCost":
        return HandshakeCost(
            self.messages + other.messages,
            self.control_bytes + other.control_bytes,
            self.steps_performed + other.steps_performed,
        )


#: Bytes to describe one process's block (start+count per dim, 2 * 8B each,
#: conservatively for 3 dims + header).
_DIST_RECORD_BYTES = 64


class RedistributionEngine:
    """Stateful engine for one stream: plan caching + data movement."""

    def __init__(
        self,
        writer_boxes: Sequence[BoundingBox],
        reader_boxes: Sequence[BoundingBox],
        caching: CachingOption = CachingOption.NO_CACHING,
        batching: bool = False,
        monitor: Optional[PerfMonitor] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        self.caching = caching
        self.batching = batching
        self.monitor = monitor
        self.plan_cache = plan_cache
        self._writer_boxes = list(writer_boxes)
        self._reader_boxes = list(reader_boxes)
        self.compiled = self._compile()
        self.plan = self.compiled.plan
        #: Whether each side's gathered distribution is already cached.
        self._local_cached = False
        self._peer_cached = False
        #: The most recent :meth:`handshake`'s cost (``None`` before one).
        self.last_handshake: Optional[HandshakeCost] = None

    def _compile(self) -> CompiledPlan:
        if self.plan_cache is not None:
            compiled, _ = self.plan_cache.get(self._writer_boxes, self._reader_boxes)
            return compiled
        return CompiledPlan(compute_plan(self._writer_boxes, self._reader_boxes))

    # ------------------------------------------------------------------
    def update_writer_boxes(self, writer_boxes: Sequence[BoundingBox]) -> None:
        """Distribution changed (e.g. particle counts moved): caches drop."""
        if self.plan_cache is not None:
            self.plan_cache.invalidate(self._writer_boxes, self._reader_boxes)
        self._writer_boxes = list(writer_boxes)
        self.compiled = self._compile()
        self.plan = self.compiled.plan
        self._local_cached = False
        self._peer_cached = False

    # -- handshake accounting ----------------------------------------------
    def handshake(self, num_variables: int = 1) -> HandshakeCost:
        """Account the control messages for one timestep's exchange.

        With batching, ``num_variables`` share one protocol round;
        without, each variable pays its own round.
        """
        if num_variables < 1:
            raise ValueError("num_variables must be >= 1")
        rounds = 1 if self.batching else num_variables
        total = HandshakeCost(0, 0, ())
        for _ in range(rounds):
            total = total + self._one_round()
        self.last_handshake = total
        return total

    def _one_round(self) -> HandshakeCost:
        M, N = self.plan.num_writers, self.plan.num_readers
        messages = 0
        ctrl = 0
        steps: list[str] = []

        do_step1 = not (
            self.caching in (CachingOption.CACHING_LOCAL, CachingOption.CACHING_ALL)
            and self._local_cached
        )
        do_step23 = not (self.caching is CachingOption.CACHING_ALL and self._peer_cached)

        if do_step1:
            # 1.s / 1.a: coordinators gather local distributions.
            messages += (M - 1) + (N - 1)
            ctrl += (M - 1 + N - 1) * _DIST_RECORD_BYTES
            steps.append("gather_local")
            self._local_cached = True
        if do_step23:
            # 2: coordinators exchange aggregate distributions.
            messages += 2
            ctrl += M * _DIST_RECORD_BYTES + N * _DIST_RECORD_BYTES
            # 3: broadcast the peer-side distribution to all processes.
            messages += (M - 1) + (N - 1)
            ctrl += (M - 1) * N * _DIST_RECORD_BYTES + (N - 1) * M * _DIST_RECORD_BYTES
            steps.append("exchange_and_broadcast")
            self._peer_cached = True
        return HandshakeCost(messages, ctrl, tuple(steps))

    def data_message_count(self, num_variables: int = 1) -> int:
        """Step-4 stride messages for one timestep."""
        per_round = self.plan.data_message_count()
        return per_round if self.batching else per_round * num_variables

    # -- actual data movement ----------------------------------------------
    def move(
        self, writer_blocks: Sequence[np.ndarray], fill: float = 0
    ) -> list[np.ndarray]:
        """Redistribute one variable: writer blocks in → reader blocks out.

        ``writer_blocks[i]`` must have shape ``writer_boxes[i].count``.
        Returns one array per reader with shape ``reader_boxes[j].count``.
        Exactly the strides of the plan are copied — no all-to-all
        broadcast, mirroring the packed-stride sends of step 4.
        """
        dtype = np.asarray(writer_blocks[0]).dtype
        nbytes_moved = 0
        span = (
            self.monitor.span("redistribute", "move", pairs=len(self.plan.pairs))
            if self.monitor is not None
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            outputs = self.compiled.execute(writer_blocks, dtype=dtype, fill=fill)
            nbytes_moved = self.compiled.elements_moved * dtype.itemsize
        finally:
            if span is not None:
                span.add_bytes(nbytes_moved)
                span.__exit__(None, None, None)
        if self.monitor:
            self.monitor.metrics.counter("redistribution.bytes_moved").inc(nbytes_moved)
            self.monitor.metrics.counter("redistribution.stride_messages").inc(
                len(self.plan.pairs)
            )
        return outputs

    # -- timing helpers ------------------------------------------------------
    def writer_visible_time(
        self,
        itemsize: int,
        num_variables: int,
        transfer_time: Callable[[int, int, int], float],
        control_time: Callable[[int], float],
        asynchronous: bool,
        local_copy_bw: float = 10e9,
    ) -> float:
        """Time the *writer* observes for one timestep's output.

        ``transfer_time(writer, reader, nbytes)`` prices one stride send;
        ``control_time(nbytes)`` one control message.  Synchronous writes
        block for handshake + the writer's slowest send sequence; async
        writes pay only the copy into FlexIO's send buffers.
        """
        hs = self.handshake(num_variables)
        t_ctrl = hs.messages * control_time(_DIST_RECORD_BYTES)
        per_writer_bytes = [0] * self.plan.num_writers
        for p in self.plan.pairs:
            per_writer_bytes[p.writer] += p.nbytes(itemsize) * (
                1 if self.batching else num_variables
            )
        if asynchronous:
            # Buffer copy only; movement overlaps computation.
            worst = max(per_writer_bytes) if per_writer_bytes else 0
            return worst / local_copy_bw + (0.0 if self.caching is CachingOption.CACHING_ALL else t_ctrl)
        worst = 0.0
        for w in range(self.plan.num_writers):
            t = 0.0
            for p in self.plan.sends_of(w):
                n = p.nbytes(itemsize) * (1 if self.batching else num_variables)
                t += transfer_time(p.writer, p.reader, n)
            worst = max(worst, t)
        return t_ctrl + worst
