"""The FLEXPATH stream I/O method (paper Section II.B).

Stream mode keeps the file metaphor: the simulation *creates a file* with
a unique name, the analytics *opens* it — but underneath, the open
resolves the name in the process's stream table (its directory) to the
writing program's run.  Writers then emit timesteps; readers consume
them (process-group or global-array pattern); when the writer closes the
file, readers receive End-of-Stream from their next read.  Because the API is the ADIOS file
API, stream and file modes interchange without code changes.

The data plane behind ``end_step`` is the pipelined drain of
:mod:`repro.core.drain`; reads are :mod:`repro.core.reader`'s, served
from a **plan cache**: with CACHING_LOCAL/CACHING_ALL the (writer boxes,
selection) overlap geometry is compiled once to bare numpy slice
assignments and replayed on subsequent steps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.adios.api import (
    IoMethod,
    RankContext,
    Run,
    WriteHandle,
    condition,
    register_method,
)
from repro.adios.config import MethodSpec
from repro.adios.model import Group, ProcessGroupData, WrittenVar
from repro.adios.selection import BoundingBox
from repro.core.directory import DirectoryError, reap
from repro.core.drain import StepState, _rank_parts, _StepDrainer
from repro.core.hints import STREAM_METHODS, StreamError, StreamHints
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import PluginManager, PluginSide, ReaderPredicates
from repro.core.reader import BlockSource, StepReader
from repro.core.redistribution import (
    CachingOption,
    PlanCache,
    RedistributionEngine,
    global_plan_cache,
)
from repro.core.resilience import MovementFailed, TransactionAborted
from repro.core.stepstore import Outcome, StepStore, outcome_error
from repro.obs import recorder as flight, sanitize
from repro.obs.events import EV_STEP_BEGIN, EV_STREAM_FAILED
from repro.transport.faults import injector_from_env, parse_fault_spec

#: Longest a timed ``begin_step`` waits between two probes: a probe of
#: a stalled stream is what checks its writer's lease.
_REAP_INTERVAL = 0.05


@dataclass
class _PublishedStep(BlockSource):
    """One completed timestep: every writer rank's process group."""

    step: int
    groups: dict[int, ProcessGroupData] = field(default_factory=dict)
    #: Span context of the publish (write) span; readers parent their
    #: spans on it so the whole timestep shares one trace ID.  ``None``
    #: when tracing is off or this step's trace was sampled out.
    trace_ctx: Optional[object] = None
    #: Delivery state; only COMMITTED steps are readable.
    status: StepState = StepState.PENDING
    #: Why a LOST/ABORTED step failed (repr of the final exception).
    error: Optional[str] = None
    #: Most tries any one send of this step took (1: nothing retried).
    attempts: int = 1
    #: Buffered payload size: summed once at seal, zeroed when the step
    #: is lost (its groups are discarded), never re-derived.
    nbytes: int = 0
    #: Per-variable block index (:meth:`BlockSource.blocks`).
    block_index: dict = field(default_factory=dict, repr=False)

    #: The buffered copy is never pruned: in-process pushdown only
    #: skips *sending* blocks through the drain channel.
    may_be_pruned = False

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for g in self.groups.values():
            for wv in g.blocks:
                seen.setdefault(wv.name, None)
        return list(seen)

    def var_blocks(self, name: str):
        for pg in self.groups.values():
            for wv in pg.blocks:
                if wv.name == name:
                    yield wv.box, wv.global_shape, wv.data

    def writer_record(self, rank: int) -> Optional[dict]:
        pg = self.groups.get(rank)
        if pg is None:
            return None
        record: dict = {}
        for wv in pg.blocks:
            record.setdefault(wv.name, wv.data)
        return record


class StreamState(Run):
    """Shared state of one named stream: its run of buffered steps (the
    drain thread behind it is a :class:`~repro.core.drain._StepDrainer`)
    and its readers' side."""

    def __init__(
        self,
        name: str,
        monitor: Optional[PerfMonitor] = None,
        hints: Optional[StreamHints] = None,
    ) -> None:
        self.name = name
        self.hints = hints or StreamHints()
        # An untraced stream's own monitor keeps no per-record list (its
        # aggregates and metrics are fed either way); a caller's is theirs.
        monitor = monitor or PerfMonitor(keep_trace=self.hints.trace)
        if self.hints.trace:
            monitor.enable_tracing()
        super().__init__(PluginManager(monitor))
        #: Every step's outcome (a :class:`_PublishedStep`, delivered or
        #: lost) and how the stream ended; nothing is evicted in process.
        self.store = StepStore()
        #: Notified when a step's outcome is appended to ``store`` or
        #: the stream ends; its lock guards every call into the store.
        self._committed = threading.Condition(sanitize.make_lock("stream.publish"))
        self._step = 0
        #: Pushdown readers' block predicates: what the drain may skip.
        self.readers = ReaderPredicates()
        self._drainer: Optional[_StepDrainer] = None
        #: Transport currently draining steps; degrades down the ladder
        #: (rdma → tcp → shm → "buffered") on repeated failure.
        self.active_transport = self.hints.transport
        # Fault schedule: the per-stream hint wins over FLEXIO_FAULTS.
        self._injector = parse_fault_spec(self.hints.faults) or injector_from_env()
        if self._injector is not None:
            self._injector.stream = name  # its transport.fault events are ours

    @property
    def closed(self) -> bool:
        return self.store.closed

    @property
    def error(self) -> Optional[str]:
        """Why the stream ended abnormally; None for a clean close."""
        return self.store.failed

    @property
    def peak_buffered_bytes(self) -> int:
        """High-water mark of buffered bytes (backpressure visibility)."""
        return self.store.peak_nbytes

    # -- async pipeline -----------------------------------------------------
    @property
    def published(self) -> list[_PublishedStep]:
        """Every step's outcome; waits for in-flight drains first so callers
        observe the same ordering the synchronous data plane had."""
        self._quiesce()
        with self._committed:
            return list(self.store)

    def _quiesce(self) -> None:
        if self._drainer is not None:
            self._drainer.wait_idle()

    def _ensure_pipeline(self) -> None:
        if self._drainer is None:
            self._drainer = _StepDrainer(self, self.hints.queue_depth)

    def shutdown_pipeline(self) -> None:
        """Stop the drainer thread and close the drain channel.

        Idempotent: the drainer/channel references are swapped out before
        teardown, so a double close (or a close racing a registry reset)
        finds nothing left to do.
        """
        with self._committed:
            self._committed.notify_all()  # readers parked on an ended stream
        drainer, self._drainer = self._drainer, None
        if drainer is not None:
            drainer.stop()
            drainer._close_channel()  # wedged or not

    # -- writer side --------------------------------------------------------
    def write(self, rank: int, wv: WrittenVar) -> None:
        if self.closed:
            raise StreamError(f"write on ended stream {self.name!r}")
        super().write(rank, wv)

    def end_rank_step(self, rank: int, sync: Optional[bool] = None) -> None:
        if self.closed:
            raise StreamError(f"end_step on ended stream {self.name!r}: {self.error}")
        super().end_rank_step(rank, sync=sync)

    def _seal(self, blocks: list[tuple[int, list]], sync: Optional[bool] = None) -> None:
        """Hand the ended step to the drain pipeline.

        ``sync=True`` blocks until the step has cleared the transport
        (paper's synchronous writes); ``sync=False`` returns as soon as
        the step is queued.  ``None`` defers to the stream hint.  Either
        way the elapsed wall time lands in the ``writer_visible``
        measurement category.
        """
        if sync is None:
            sync = self.hints.sync
        step = _PublishedStep(self._step)
        # Not the ``write`` span's region (it also covers the hand-off
        # and, with sync, the drain): flat, so ``write`` stays the root.
        with self.monitor.measure(
            "writer_visible", self.name, parent=None, step=self._step, sync=bool(sync)
        ) as vis:
            # Root span of this timestep's trace: the writer-side chain
            # and everything downstream parent on it.
            with self.monitor.span("write", self.name, step=self._step) as wspan:
                for rank, written in blocks:
                    step.groups[rank] = ProcessGroupData(
                        rank, self._step, condition(self.plugins, written))
                wire = _rank_parts(
                    step, predicate=self.readers.combined, metrics=self.monitor.metrics
                )
                wspan.add_bytes(step.nbytes)
                step.trace_ctx = wspan.context
            vis.add_bytes(step.nbytes)
            self._ensure_pipeline()
            flight.record(
                EV_STEP_BEGIN, stream=self.name,
                step=step.step, nbytes=step.nbytes,
            )
            self._drainer.submit(step, wire)
            if sync:
                self._drainer.wait_idle()
        self._step += 1
        self.beat()  # the writer's liveness signal
        if sync and step.status is not StepState.COMMITTED:
            # Synchronous writes surface the loss to the writer (the
            # paper's error-reporting contract); the step is already in
            # the step store as LOST/ABORTED so readers see the gap.
            if step.status is StepState.ABORTED:
                raise TransactionAborted(
                    f"step {step.step} of {self.name!r} aborted: {step.error}"
                )
            raise MovementFailed(
                f"step {step.step} of {self.name!r} lost: {step.error}"
            )

    def writer_close(self, rank: int) -> None:
        try:
            super().writer_close(rank)
        except (MovementFailed, TransactionAborted):
            pass  # close never raises; the loss is already recorded

    def _finish(self) -> None:
        self._quiesce()
        with self._committed:
            if not self.store.closed:  # a failed stream stays failed
                self.store.end()
        self.shutdown_pipeline()

    def fail(self, reason: str) -> None:
        """End the stream abnormally (writer death / lease expiry).

        Any partially-written step is discarded — readers must never see
        torn data — and the stream closes with ``error`` set, so their
        next ``begin_step`` reports :attr:`StepStatus.OtherError` through
        :class:`~repro.adios.api.StreamFailure` instead of stalling
        forever on a dead writer.
        """
        with self._committed:
            if self.store.closed:
                return
            self.store.fail(reason)
        super().fail(reason)
        self.monitor.metrics.counter("dataplane.stream.failures").inc()
        flight.record(EV_STREAM_FAILED, stream=self.name, reason=reason)
        flight.dump_on_fault(
            f"stream failed: {reason}", stream=self.name, monitor=self.monitor
        )
        self.shutdown_pipeline()

    # -- reader side --------------------------------------------------------
    def await_step(self, index: int, timeout: Optional[float]) -> tuple[Outcome, object]:
        """Wait ``timeout`` seconds at most (``None``: unbounded) for step
        ``index`` to be decided — delivered, lost, or the stream over —
        and return what the store says of it then."""
        def decided():
            found = self.store.lookup(index)
            return None if found[0] is Outcome.NOT_YET else found

        with self._committed:
            return self._committed.wait_for(decided, timeout) or (Outcome.NOT_YET, None)

    def get_step(self, index: int, deadline: Optional[float] = None) -> _PublishedStep:
        """Step ``index``, or the typed exception of its outcome.  A
        sealed step still in the drain pipeline is waited for — for *its*
        outcome, never for drainer idleness — until ``deadline``
        (``time.monotonic()`` seconds; ``None``: until the stream ends)."""
        timeout = None if deadline is None else deadline - time.monotonic()
        outcome, found = self.await_step(index, timeout if index < self._step else 0.0)
        if outcome is Outcome.NOT_YET and reap([self]):
            # The stall was a dead writer: its lease lapsed.
            outcome, found = self.await_step(index, 0.0)
        if outcome is not Outcome.HIT:
            raise outcome_error(outcome, f"step {index} of {self.name!r}", found)
        return found


class StreamRegistry:
    """The process's directory: stream name -> its run, the one table a
    writer's open adds to and a reader's open looks up."""

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._states: dict[str, StreamState] = {}

    def set_clock(self, clock) -> None:
        """Swap the lease clock of the streams opened from now on (tests:
        lease expiry is one tick forward)."""
        self._clock = clock

    def create(
        self, name: str, ctx: RankContext, monitor=None, hints=None
    ) -> StreamState:
        state = self._states.get(name)
        if state is None or state.closed:  # a finished stream's name is recycled
            state = self._states[name] = StreamState(name, monitor, hints)
            state.hold_lease(state.hints.lease or None, self._clock or time.monotonic)
        return state

    def open(self, name: str, ctx: RankContext) -> StreamState:
        state = self._states.get(name)
        if state is None:
            raise DirectoryError(f"no stream registered under {name!r}")
        return state

    def close_stream(self, name: str) -> None:
        """Tear the stream down and withdraw its name."""
        state = self._states.pop(name, None)
        if state is not None:
            state.shutdown_pipeline()

    def reset(self) -> None:
        for state in getattr(self, "_states", {}).values():
            try:
                state.shutdown_pipeline()
            # flexlint: ok(FXL001) reset must tear every stream down even if one close misbehaves
            except Exception:
                pass
        self.__init__(self._clock)


#: Process-global registry (the "network" all in-process programs share).
stream_registry = StreamRegistry()


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

class FlexpathWriteHandle(WriteHandle):
    """Stream-mode writer for one rank over the stream's
    :class:`StreamState`.  ``end_step(sync=True)`` forces one synchronous
    publish regardless of the ``sync`` hint.  The name stays registered
    after ``close()``: readers still drain buffered steps, then see
    EndOfStream."""


class FlexpathReadHandle(StepReader):
    """Stream-mode reader for one rank; End-of-Stream when writers close.

    Step-oriented usage: ``begin_step()`` returns
    :class:`~repro.adios.api.StepStatus` (``NotReady`` instead of a
    :class:`StreamStalled` raise), reads address the positioned step,
    ``end_step()`` releases it.  The read path is :class:`StepReader`'s;
    this class adds what only the in-process plane has: the stream's
    hints, the handshake-protocol accounting and its pushdown
    registration.
    """

    def __init__(self, state: StreamState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self.plugins = state.plugins
        #: The stream's shared monitor (enable tracing / dump here).
        self.monitor = state.monitor
        # Handshake-protocol accounting per global-array variable: the
        # engine carries the caching state the XML hints select.
        self._hs_engines: dict[str, RedistributionEngine] = {}
        self._hs_boxes: dict[str, tuple] = {}
        #: Last step whose handshake round is paid (the cursor only grows).
        self._hs_paid_step = -1
        # The caching hint maps the paper's protocol levels onto the
        # data plane: CACHING_ALL shares the process-wide plan cache
        # (both sides keep every distribution), CACHING_LOCAL keeps a
        # per-handle one, NO_CACHING re-derives geometry every read.
        caching = state.hints.caching
        self._plans: Optional[PlanCache] = (
            global_plan_cache if caching is CachingOption.CACHING_ALL
            else PlanCache(maxsize=64) if caching is CachingOption.CACHING_LOCAL
            else None
        )
        # Chain hash last registered with the stream (predicate pushdown).
        self._registered_pred_hash: Optional[str] = None

    def _step_at(self, index: int) -> _PublishedStep:
        return self._state.get_step(index, self._deadline)

    def _wait_ready(self) -> None:
        # Woken by the commit; each re-probe runs the lease reaper.
        self._state.await_step(
            self._cursor + self._step_consumed,
            min(self._deadline - time.monotonic(), _REAP_INTERVAL),
        )

    def _reader_chain(self, name: str):
        """Honours the ``fused`` hint, and is where a pushdown reader
        registers its chain's block predicate with the stream, so the
        writer-side drain can skip blocks it provably drops.  Idempotent
        per chain generation; a chain without a predicate vetoes pruning."""
        state = self._state
        if state.hints.pushdown and state.plugins.has_side(PluginSide.READER):
            chain_hash = state.plugins.chain_hash(PluginSide.READER)
            if chain_hash != self._registered_pred_hash:
                state.readers.attach(self, state.plugins.block_predicate(PluginSide.READER))
                self._registered_pred_hash = chain_hash
        return super()._reader_chain(name) if state.hints.fused else None

    def _account_handshake(self, name, gshape, writer_boxes, writer_key) -> None:
        """Run the 4-step handshake protocol accounting for one exchange.

        Honors the stream's caching and batching hints: with CACHING_ALL
        and unchanged distributions the steady-state cost is zero; with
        batching only the first variable of each step pays a round.
        """
        hints = self._state.hints
        eng = self._hs_engines.get(name)
        if eng is None:
            reader_box = BoundingBox((0,) * len(gshape), tuple(gshape))
            eng = RedistributionEngine(
                writer_boxes, [reader_box],
                caching=hints.caching, batching=hints.batching,
                plan_cache=self._plans,
            )
            self._hs_engines[name] = eng
            self._hs_boxes[name] = writer_key
        elif self._hs_boxes.get(name) != writer_key:
            # Distribution changed (e.g. particle movement): caches drop.
            eng.update_writer_boxes(writer_boxes)
            self._hs_boxes[name] = writer_key
        if hints.batching and self._cursor == self._hs_paid_step:
            return  # aggregated into this step's earlier round
        cost = eng.handshake()
        self._hs_paid_step = self._cursor
        mon = self._state.monitor
        mon.metrics.counter("handshake.messages").inc(cost.messages)
        mon.metrics.counter("handshake.control_bytes").inc(cost.control_bytes)

    def handshake_messages(self) -> int:
        """Total handshake messages accounted on this stream (monitoring).

        Served straight from the metrics registry counter — O(1), no
        trace scan.
        """
        return int(self._state.monitor.metrics.counter("handshake.messages").value)

    def close(self):
        """Withdraws this reader's pushdown predicate: a gone reader must
        not steer the drain.  Idempotent."""
        self._registered_pred_hash = None
        self._state.readers.detach(self)


class FlexpathMethod(IoMethod):
    """The stream method registered under ``FLEXPATH`` in the config."""

    def open_write(self, name: str, group: Group, ctx: RankContext, spec: MethodSpec):
        state = stream_registry.create(name, ctx, hints=StreamHints.from_spec(spec))
        return FlexpathWriteHandle(state, ctx)

    def open_read(self, name: str, group: Group, ctx: RankContext, spec: MethodSpec):
        state = stream_registry.open(name, ctx)
        return FlexpathReadHandle(state, ctx)


for _stream_method in STREAM_METHODS:
    register_method(_stream_method, FlexpathMethod)
