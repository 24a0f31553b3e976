"""The FLEXPATH stream I/O method (paper Section II.B).

Stream mode keeps the file metaphor: the simulation *creates a file* with
a unique name, the analytics *opens* it — but underneath, the open
resolves the name at the directory server and connects to the writing
program.  Writers then emit timesteps; readers consume them (process-group
or global-array pattern); when the writer closes the file, readers receive
End-of-Stream from their next read.  Because the API is the ADIOS file
API, stream and file modes interchange without code changes.

The data plane behind ``end_step`` is pipelined: sealing a
step (running writer-side DC plug-ins) happens on the writer's thread,
then the step is handed to a bounded background **drainer** that pushes
the payload through the selected SHM/RDMA channel.  With ``sync=false``
(the default) the writer-visible span covers only the seal + buffer
hand-off; ``sync=true`` blocks until the transport drain completes —
so ``writer_visible`` is a *measured* span, not a formula.

Reads are served from a **plan cache**: with CACHING_LOCAL/CACHING_ALL
the (writer boxes, selection) overlap geometry is compiled once to bare
numpy slice assignments and replayed on subsequent steps.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.adios.api import (
    AdiosError,
    IoMethod,
    RankContext,
    ReadHandle,
    StepLost,
    VariableNotFound,
    WriteHandle,
    register_method,
    resolve_read_args,
)
from repro.adios.config import MethodSpec
from repro.adios.model import Group, ProcessGroupData, WrittenVar
from repro.adios.selection import BoundingBox, assemble, intersect, resolve_selection
from repro.analysis import sanitize
from repro.core.directory import CoordinatorInfo, DirectoryError, DirectoryServer
from repro.core.hints import (
    BATCHING,
    BUFFER_STEPS,
    CACHING,
    DEGRADE_AFTER,
    FAULTS,
    FUSED,
    LEASE,
    PUSHDOWN,
    MAX_RETRIES,
    QUEUE_DEPTH,
    RETRY_BACKOFF,
    RETRY_JITTER,
    RETRY_TIMEOUT,
    STREAM_HINTS,
    STREAM_METHODS,
    SYNC,
    TRACE,
    TRANSACTIONAL,
    TRANSPORT,
    TRANSPORT_RDMA,
    TRANSPORT_SHM,
    TRANSPORT_TCP,
    XPMEM,
    defaults as hint_defaults,
    validate_spec,
)
from repro.core.redistribution import (
    CachingOption,
    CompiledPlan,
    FusedPlan,
    PlanCache,
    RedistributionEngine,
    compute_plan,
    global_plan_cache,
)
from repro.core.monitoring import PerfMonitor
from repro.core.plugins import (
    CodeletError,
    PluginManager,
    PluginSide,
    combine_predicates,
    parse_predicate,
)
from repro.obs import recorder as flight
from repro.obs.events import (
    EV_BACKPRESSURE,
    EV_DEGRADE,
    EV_DRAIN_WEDGED,
    EV_QUEUE_HIGH_WATER,
    EV_RETRY,
    EV_STEP_ABORTED,
    EV_STEP_BEGIN,
    EV_STEP_COMMIT,
    EV_STEP_LOST,
    EV_STREAM_FAILED,
)
from repro.core.resilience import (
    MovementFailed,
    Participant,
    RetryPolicy,
    TransactionAborted,
    TransactionCoordinator,
    retry_call,
)
from repro.core.stepstore import Outcome, StepStore, StreamStalled, outcome_error
from repro.transport.buffers import WireBuffer, WireVector
from repro.transport.faults import (
    TransportFault,
    injector_from_env,
    parse_fault_spec,
)
from repro.util import rng


class StreamError(RuntimeError):
    """Protocol misuse on a stream."""


class StepState(Enum):
    """Delivery state of one published step."""

    PENDING = "pending"      # sealed, still in the drain pipeline
    COMMITTED = "committed"  # drained successfully; readable
    LOST = "lost"            # retries exhausted; payload discarded
    ABORTED = "aborted"      # its transaction aborted; payload discarded


#: Graceful-degradation ladder: on repeated drain failure the stream falls
#: back to the next transport down, ending at buffered-only (no channel).
_DEGRADE_LADDER: dict[str, Optional[str]] = {
    TRANSPORT_RDMA: TRANSPORT_TCP,
    TRANSPORT_TCP: TRANSPORT_SHM,
    TRANSPORT_SHM: None,
}

#: Longest a timed ``begin_step`` waits between two probes: a probe of
#: a stalled stream is what runs the directory's lease reaper.
_REAP_INTERVAL = 0.05

#: Methods that run on (or in lock-step with) the drainer thread.  The
#: FlexLint FXL005 rule checks every ``self.<attr>`` assignment inside
#: these against :data:`DRAINER_SHARED_STATE` — an attribute mutated from
#: the drainer without being declared here fails the lint, forcing the
#: author to think about its synchronization.
DRAINER_METHODS = frozenset({
    "_run",
    "_drain_one",
    "_send_with_retries",
    "_drain_transactional",
    "_mark_lost",
    "_maybe_degrade",
    "_close_channel",
    "_commit",
})

#: Attributes the drainer thread is allowed to mutate.
#: ``backpressure_events`` is guarded by the lock of the ``_committed``
#: condition — as is every call into the stream's step ``store``, which
#: the drainer appends to but never assigns; ``_pending`` by
#: ``_pending_lock``; ``_channel`` / ``active_transport`` /
#: ``_consecutive_failures`` are drainer-private (the drainer is their
#: only writer after pipeline start).
DRAINER_SHARED_STATE = frozenset({
    "_pending",
    "_consecutive_failures",
    "_channel",
    "active_transport",
    "backpressure_events",
})


#: The registry's defaults: :class:`StreamHints` restates none of them.
_DEFAULTS = hint_defaults()

#: How each registered hint kind is read off a ``<method>`` element.
_HINT_READERS = {
    "bool": MethodSpec.param_bool,
    "int": MethodSpec.param_int,
    "float": MethodSpec.param_float,
    "str": lambda spec, key, default: spec.param(key, default) or default,
    "enum": lambda spec, key, default: (
        spec.param(key, default) or default
    ).strip().lower(),
}


@dataclass(frozen=True)
class StreamHints:
    """Transport tuning hints parsed from the XML ``<method>`` parameters.

    The paper's Section IV.B.1 knobs: handshake caching, variable
    batching, synchronous vs asynchronous writes, the XPMEM path, and the
    buffering depth (backpressure threshold).  ``queue_depth`` bounds the
    async drainer's hand-off queue (steps in flight before the writer
    blocks); ``transport`` picks the drain channel (``shm``/``rdma``).
    One field per key of :data:`repro.core.hints.STREAM_HINTS`, which
    owns every default.
    """

    caching: CachingOption = CachingOption(_DEFAULTS[CACHING])
    batching: bool = _DEFAULTS[BATCHING]
    sync: bool = _DEFAULTS[SYNC]
    xpmem: bool = _DEFAULTS[XPMEM]
    buffer_steps: int = _DEFAULTS[BUFFER_STEPS]
    #: Enable span tracing on the stream's monitor (``trace=true``).
    trace: bool = _DEFAULTS[TRACE]
    #: Bounded depth of the async publication queue (back-pressure point).
    queue_depth: int = _DEFAULTS[QUEUE_DEPTH]
    #: Drain channel: ``shm`` (intra-node) or ``rdma`` (inter-node).
    transport: str = _DEFAULTS[TRANSPORT]
    #: All-or-nothing step visibility via two-phase commit across ranks.
    transactional: bool = _DEFAULTS[TRANSACTIONAL]
    #: Bounded retries per step drain (paper's timeout-and-retry).
    max_retries: int = _DEFAULTS[MAX_RETRIES]
    #: Per-send timeout (seconds); also the backoff base delay.
    retry_timeout: float = _DEFAULTS[RETRY_TIMEOUT]
    #: Exponential backoff multiplier between retries.
    retry_backoff: float = _DEFAULTS[RETRY_BACKOFF]
    #: Jitter fraction added to backoff delays (decorrelates ranks).
    retry_jitter: float = _DEFAULTS[RETRY_JITTER]
    #: Fault-injection schedule for the drain channel (chaos testing),
    #: e.g. ``rate=0.1,seed=7,kinds=timeout|torn``.
    faults: str = _DEFAULTS[FAULTS]
    #: Consecutive failed steps before degrading to the next transport
    #: down the ladder (0 disables degradation).
    degrade_after: int = _DEFAULTS[DEGRADE_AFTER]
    #: Directory lease in seconds; the writer must heartbeat within it or
    #: the failure detector ends the stream for readers (0 = no lease).
    lease: float = _DEFAULTS[LEASE]
    #: Fuse compilable plug-in chains into the redistribution plan so
    #: reads run the chain while scattering (single pass); ``false``
    #: keeps the classic interpreted pass over materialized arrays.
    fused: bool = _DEFAULTS[FUSED]
    #: Register reader block predicates with the directory so the drain
    #: skips sending blocks the chain provably drops.
    pushdown: bool = _DEFAULTS[PUSHDOWN]

    @classmethod
    def from_spec(cls, spec: MethodSpec) -> "StreamHints":
        # Unknown keys are a hard error with a suggestion (the registry
        # is the single source of hint truth), not a silently-ignored
        # parameter as in the old scattered-literal days.
        validate_spec(spec)
        values = {
            key: _HINT_READERS[hint.kind](spec, key, hint.default)
            for key, hint in STREAM_HINTS.items()
        }
        try:
            values[CACHING] = CachingOption(values[CACHING])
        except ValueError:
            raise StreamError(
                f"unknown caching hint {values[CACHING]!r}; expected none/local/all"
            ) from None
        if values[TRANSPORT] not in (TRANSPORT_SHM, TRANSPORT_RDMA):
            raise StreamError(
                f"unknown transport hint {values[TRANSPORT]!r}; expected shm/rdma"
            )
        return cls(**values)


@dataclass
class _PublishedStep:
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

    #: The buffered copy is never pruned: in-process pushdown only
    #: skips *sending* blocks through the drain channel.
    may_be_pruned = False

    def var_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for g in self.groups.values():
            for name in g.variables:
                seen.setdefault(name, None)
        return list(seen)

    def var_blocks(self, name: str):
        for pg in self.groups.values():
            wv = pg.variables.get(name)
            if wv is not None:
                yield wv.box, wv.global_shape, wv.data

    def writer_record(self, rank: int) -> Optional[dict]:
        pg = self.groups.get(rank)
        if pg is None:
            return None
        return {n: wv.data for n, wv in pg.variables.items()}


class _StepDrainer:
    """Bounded background thread pushing sealed steps through a channel.

    The writer hands each :class:`_PublishedStep` to :meth:`submit`;
    once the queue holds ``queue_depth`` undrained steps the writer
    blocks (back-pressure, counted in ``dataplane.backpressure_waits``).
    Every step ends up in the stream's step store exactly once —
    COMMITTED when the drain succeeded, LOST/ABORTED when it did not —
    so readers never hang on a failed step and never see torn data.
    """

    def __init__(self, state: "StreamState", queue_depth: int) -> None:
        self._state = state
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, int(queue_depth)))
        self._pending = 0
        self._pending_lock = sanitize.make_lock("drain.pending")
        self._idle = threading.Event()
        self._idle.set()
        self._stopped = False
        #: Highest queue depth seen so far (writer thread only).
        self._high_water = 0
        #: True when stop() timed out joining a stuck drain thread.
        self.wedged = False
        # Captured at construction: near-zero overhead when disabled.
        self._san = sanitize.get()
        self._depth = state.monitor.metrics.gauge("dataplane.drain.queue_depth")
        self._thread = threading.Thread(
            target=self._run, name=f"flexio-drain-{state.name}", daemon=True
        )
        self._thread.start()
        if self._san is not None:
            self._san.note_thread_started(self._thread, f"drainer:{state.name}")

    def submit(self, step: _PublishedStep, rank_parts: dict) -> None:
        mon = self._state.monitor
        with self._pending_lock:
            self._pending += 1
            self._idle.clear()
        item = (step, rank_parts)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            mon.metrics.counter("dataplane.backpressure_waits").inc()
            flight.record(
                EV_BACKPRESSURE, stream=self._state.name, step=step.step
            )
            self._queue.put(item)
        self._depth.inc()
        if self._depth.value > self._high_water:
            self._high_water = self._depth.value
            flight.record(
                EV_QUEUE_HIGH_WATER, stream=self._state.name,
                depth=int(self._high_water),
            )

    def wait_idle(self) -> None:
        """Block until every submitted step has been drained + committed."""
        self._idle.wait()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the drain thread; returns False if it is wedged.

        Idempotent: repeat calls (double-close, registry reset after an
        explicit shutdown) are no-ops.  A thread still alive after the
        join timeout is marked ``wedged`` and left behind (it is a
        daemon), counted in ``dataplane.drain.wedged`` so the hang is
        observable instead of silently blocking close forever.
        """
        if self._stopped:
            return not self.wedged
        self._stopped = True
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass  # the polling loop sees _stopped once the queue drains
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self.wedged = True
            mon = self._state.monitor
            mon.metrics.counter("dataplane.drain.wedged").inc()
            flight.record(
                EV_DRAIN_WEDGED, stream=self._state.name, timeout=timeout
            )
            flight.dump_on_fault(
                "drain wedged", stream=self._state.name, monitor=mon
            )
            return False
        if self._san is not None:
            self._san.note_thread_joined(self._thread)
        return True

    def _run(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stopped:
                    return
                continue
            if item is None:
                return
            step, rank_parts = item
            try:
                self._state._drain_one(step, rank_parts)
            finally:
                self._depth.dec()
                with self._pending_lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.set()


class StreamState:
    """Shared state of one named stream: buffered steps + membership."""

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
        self.monitor = monitor or PerfMonitor(keep_trace=self.hints.trace)
        if self.hints.trace:
            self.monitor.enable_tracing()
        #: Times a publish exceeded the hinted buffering depth.
        self.backpressure_events = 0
        self.plugins = PluginManager(self.monitor)
        #: Every step's outcome (a :class:`_PublishedStep`, delivered or
        #: lost) and how the stream ended; nothing is evicted in process.
        self.store = StepStore()
        #: Notified when a step's outcome is appended to ``store`` or
        #: the stream ends; its lock guards every call into the store.
        self._committed = threading.Condition(sanitize.make_lock("stream.publish"))
        self._current: dict[int, ProcessGroupData] = {}
        self._step = 0
        self.writer_ranks: set[int] = set()
        self._advanced: set[int] = set()
        self._closed_ranks: set[int] = set()
        self._drainer: Optional[_StepDrainer] = None
        self._channel = None
        #: Transport currently draining steps; degrades down the ladder
        #: (rdma → shm → "buffered") on repeated failure.
        self.active_transport = self.hints.transport
        #: Directory this stream is registered at (set by the registry);
        #: heartbeats and reader-side failure detection go through it.
        self._directory: Optional[DirectoryServer] = None
        # Fault schedule: the per-stream hint wins over FLEXIO_FAULTS.
        self._injector = parse_fault_spec(self.hints.faults) or injector_from_env()
        if self._injector is not None:
            self._injector.stream = name  # its transport.fault events are ours
        self._retry_policy = RetryPolicy(
            max_retries=self.hints.max_retries,
            timeout=self.hints.retry_timeout,
            backoff_factor=self.hints.retry_backoff,
            jitter=self.hints.retry_jitter,
        )
        # Per-stream deterministic jitter source (stable across runs).
        self._retry_rng = rng(zlib.crc32(name.encode("utf-8")))
        self._consecutive_failures = 0

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

    def _open_channel(self, transport: str):
        """The drain channel for one rung of the transport ladder."""
        from repro.core.runtime import make_stream_channel

        return make_stream_channel(
            transport, monitor=self.monitor, injector=self._injector,
            xpmem=self.hints.xpmem,
        )

    def _ensure_pipeline(self) -> None:
        if self._drainer is None:
            self._channel = self._open_channel(self.active_transport)
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
        self._close_channel()

    def _close_channel(self) -> None:
        """Swap the drain channel out, then close it — which is also what
        unmaps a mapped step nobody received (best effort)."""
        channel, self._channel = self._channel, None
        close = getattr(channel, "close", None)
        try:
            if close is not None:
                close()
        # flexlint: ok(FXL001) best-effort close of an arbitrary channel during teardown or fallback
        except Exception:
            pass

    # -- writer side --------------------------------------------------------
    def writer_join(self, rank: int) -> None:
        if self.closed:
            raise StreamError(f"stream {self.name!r} already closed")
        self.writer_ranks.add(rank)

    def write(self, rank: int, wv: WrittenVar) -> None:
        if self.closed or rank in self._closed_ranks:
            raise StreamError("write on a closed stream handle")
        pg = self._current.get(rank)
        if pg is None:
            pg = ProcessGroupData(rank=rank, step=self._step)
            self._current[rank] = pg
        pg.add(wv)

    def end_rank_step(self, rank: int, sync: Optional[bool] = None) -> None:
        if self.closed:
            raise StreamError(f"end_step on ended stream {self.name!r}: {self.error}")
        if rank not in self.writer_ranks:
            raise StreamError(f"rank {rank} never joined stream {self.name!r}")
        self._advanced.add(rank)
        live = self.writer_ranks - self._closed_ranks
        if self._advanced >= live:
            self._publish(sync=sync)

    def _publish(self, sync: Optional[bool] = None) -> None:
        """Seal the current step, hand it to the drain pipeline.

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
            # Root span of this timestep's trace: everything downstream
            # (the reader's redistribute/transport/plug-in spans and the
            # drainer's channel spans) parents on it.
            with self.monitor.span("write", self.name, step=self._step) as wspan:
                if not self.plugins.has_side(PluginSide.WRITER):
                    # No writer-side conditioning: the sealed step reuses
                    # the written groups directly (no dict round-trip, no
                    # per-variable rewrap).
                    for rank, pg in sorted(self._current.items()):
                        step.groups[rank] = pg
                else:
                    for rank, pg in sorted(self._current.items()):
                        record = {name: wv.data for name, wv in pg.variables.items()}
                        conditioned = self.plugins.apply_side(PluginSide.WRITER, record)
                        out = ProcessGroupData(rank=rank, step=pg.step)
                        for name, data in conditioned.items():
                            orig = pg.variables.get(name)
                            out.add(
                                WrittenVar(
                                    name=name,
                                    data=np.asarray(data),
                                    box=orig.box if orig is not None and _same_shape(orig, data) else None,
                                    global_shape=orig.global_shape if orig is not None else None,
                                )
                            )
                        step.groups[rank] = out
                step.nbytes = sum(g.nbytes for g in step.groups.values())
                wspan.add_bytes(step.nbytes)
                step.trace_ctx = wspan.context
            vis.add_bytes(step.nbytes)
            self._ensure_pipeline()
            flight.record(
                EV_STEP_BEGIN, stream=self.name,
                step=step.step, nbytes=step.nbytes,
            )
            self._drainer.submit(
                step,
                _rank_parts(
                    step,
                    predicate=self._pushdown_predicate(),
                    metrics=self.monitor.metrics,
                ),
            )
            if sync:
                self._drainer.wait_idle()
        self._current = {}
        self._advanced = set()
        self._step += 1
        if self._directory is not None:
            # Liveness signal for the lease-based failure detector; a
            # concurrently-unregistered name is not the writer's problem.
            try:
                self._directory.heartbeat(self.name)
            except DirectoryError:
                pass
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

    def _pushdown_predicate(self):
        """The combined reader block predicate for this step's drain.

        Only consulted with ``pushdown=true``: readers register their
        chain's serialized predicate at the directory, and a block is
        skipped only when *every* registered predicate provably drops it
        (no predicate registered → everything is sent).
        """
        if not self.hints.pushdown or self._directory is None:
            return None
        try:
            specs = self._directory.predicates_of(self.name)
        except DirectoryError:
            return None
        preds = []
        for spec in specs:
            try:
                pred = parse_predicate(spec)
            except CodeletError:
                return None  # unintelligible predicate: never skip
            if pred is None:
                return None  # a reader with no predicate needs everything
            preds.append(pred)
        return combine_predicates(preds)

    def _drain_one(self, step: _PublishedStep, rank_parts: dict) -> None:
        """Drainer-thread body: push one step's payload, then commit it.

        A step is committed **only** when its payload cleared the
        transport (or its transaction committed); a step whose retries
        were exhausted is marked LOST/ABORTED with its buffers discarded,
        so readers get a typed gap instead of torn or silently-dropped
        data.
        """
        mon = self.monitor
        err: Optional[Exception] = None
        with mon.measure(
            "drain", self.name, nbytes=step.nbytes,
            parent=step.trace_ctx, step=step.step,
        ):
            if self.hints.transactional and step.groups:
                err = self._drain_transactional(step, rank_parts)
            else:
                parts = WireVector(
                    p for r in sorted(rank_parts) for p in rank_parts[r]
                )
                err = self._send_with_retries(step, parts)
        if err is None:
            self._consecutive_failures = 0
            self._commit(step)
        else:
            mon.metrics.counter("dataplane.drain.errors").inc()
            self._mark_lost(step, err)
            self._consecutive_failures += 1
            self._maybe_degrade()

    def _send_with_retries(self, step: _PublishedStep, parts: WireVector):
        """Push one payload under the stream's retry policy.

        Returns None on success, the final exception on failure.  Only
        transport faults and timeouts are retriable — anything else
        (a programming error in the channel) fails the step immediately.
        Every failed attempt is counted in ``dataplane.drain.faults``;
        one that is retried is a ``drain.retry`` flight event carrying
        its error, and a send that eventually succeeds increments
        ``dataplane.drain.recovered`` and leaves its try count on the
        step (``attempts`` of the ``step.commit`` event).
        """
        if not parts or self._channel is None:
            return None
        mon = self.monitor
        policy = self._retry_policy
        retriable = (TransportFault, TimeoutError)
        attempt = 0

        def on_retry(n: int, exc: Exception) -> None:
            nonlocal attempt
            attempt = n
            mon.metrics.counter("dataplane.drain.retries").inc()
            flight.record(
                EV_RETRY, stream=self.name, step=step.step, attempt=n,
                error=repr(exc),
            )

        def send_once() -> Optional[Exception]:
            # A retriable fault is raised (retry_call's cue); any other
            # error is this function's own result: it fails the step.
            try:
                with mon.span(
                    "drain_attempt", self.name, parent=step.trace_ctx,
                    step=step.step, attempt=attempt,
                ):
                    self._channel.sendv(parts, timeout=policy.timeout)
                    ack = self._channel.recv(timeout=policy.timeout)
                    if isinstance(ack, (WireBuffer, WireVector)) and not ack.released:
                        # The drain is its own consumer (the DC plugin side
                        # already observed the data): releasing the delivery
                        # returns the lease or detaches the mapping.
                        ack.release()
                return None
            # flexlint: ok(FXL001) deliberate non-retriable classifier: any non-fault error fails the step
            except Exception as exc:
                mon.metrics.counter("dataplane.drain.faults").inc()
                if isinstance(exc, retriable):
                    raise
                return exc

        try:
            err = retry_call(
                send_once, policy, retriable,
                on_retry=on_retry, rng=self._retry_rng,
            )
        except retriable as exc:
            return exc  # retries exhausted
        if err is None and attempt > 0:
            mon.metrics.counter("dataplane.drain.recovered").inc()
            step.attempts = max(step.attempts, attempt + 1)
        return err

    def _drain_transactional(self, step: _PublishedStep, rank_parts: dict):
        """All-or-nothing step visibility: 2PC across the writer ranks.

        Each rank's prepare vote is its own reliable send; only when
        every rank's payload cleared the transport does the coordinator
        commit (and the caller flips the step COMMITTED).  Any abort
        discards the whole step.  Returns None on commit, the abort
        exception otherwise.
        """
        ranks = sorted(step.groups)

        def make_prepare(r: int):
            def prepare(_step: int, _payload: dict) -> bool:
                return self._send_with_retries(step, rank_parts.get(r, [])) is None

            return prepare

        participants = [
            Participant(r, lambda _s, _p: None, prepare_fn=make_prepare(r))
            for r in ranks
        ]
        coordinator = TransactionCoordinator(participants)
        mon = self.monitor
        try:
            coordinator.run(step.step, {r: {} for r in ranks})
        except TransactionAborted as exc:
            mon.metrics.counter("dataplane.tx.aborted").inc()
            return exc
        mon.metrics.counter("dataplane.tx.committed").inc()
        return None

    def _mark_lost(self, step: _PublishedStep, exc: Exception) -> None:
        """Record a failed step: payload discarded, typed gap published."""
        step.status = (
            StepState.ABORTED
            if isinstance(exc, TransactionAborted)
            else StepState.LOST
        )
        step.error = repr(exc)
        step.groups.clear()  # free the buffers; never torn-visible
        step.nbytes = 0
        mon = self.monitor
        mon.metrics.counter("dataplane.drain.steps_lost").inc()
        code = (
            EV_STEP_ABORTED if step.status is StepState.ABORTED else EV_STEP_LOST
        )
        flight.record(code, stream=self.name, step=step.step, error=step.error)
        flight.dump_on_fault(
            f"step {step.step} {step.status.value}",
            stream=self.name, monitor=mon,
        )
        with self._committed:
            self.store.append(step.step, step, 0, lost=step.error)
            self._committed.notify_all()

    def _maybe_degrade(self) -> None:
        """Graceful degradation: fall down the transport ladder.

        After ``degrade_after`` consecutive failed steps the stream
        closes its channel and rebuilds the next transport down
        (rdma → shm → buffered-only).  Runs on the drainer thread, which
        is the only user of the channel, so the swap is race-free.
        """
        threshold = self.hints.degrade_after
        if threshold <= 0 or self._consecutive_failures < threshold:
            return
        nxt = _DEGRADE_LADDER.get(self.active_transport)
        previous = self.active_transport
        self._close_channel()
        if nxt is None:
            self.active_transport = "buffered"
        else:
            self._channel = self._open_channel(nxt)
            self.active_transport = nxt
        self._consecutive_failures = 0
        self.monitor.metrics.counter("dataplane.transport.degradations").inc()
        flight.record(
            EV_DEGRADE, stream=self.name, src=previous, dst=self.active_transport
        )

    def _commit(self, step: _PublishedStep) -> None:
        step.status = StepState.COMMITTED
        mon = self.monitor
        mon.metrics.counter("dataplane.drain.steps_committed").inc()
        mon.metrics.counter("dataplane.drain.bytes_committed").inc(step.nbytes)
        # ``attempts`` only when a retried send recovered the step.
        recovered = {"attempts": step.attempts} if step.attempts > 1 else {}
        flight.record(
            EV_STEP_COMMIT, stream=self.name, step=step.step,
            nbytes=step.nbytes, **recovered,
        )
        with self._committed:  # last: a woken reader finds the commit recorded
            self.store.append(step.step, step, step.nbytes)
            if len(self.store) > self.hints.buffer_steps:
                # In the real transport the writer would stall here; in the
                # in-process harness we surface it through monitoring.
                self.backpressure_events += 1
            self._committed.notify_all()

    def writer_close(self, rank: int) -> None:
        self._closed_ranks.add(rank)
        self._advanced.discard(rank)
        if self._closed_ranks >= self.writer_ranks:
            # Publish any partial step implicitly, then end the stream.
            if self._current:
                try:
                    self._publish()
                except (MovementFailed, TransactionAborted):
                    pass  # close never raises; the loss is already recorded
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
        self._current = {}
        self._advanced = set()
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
        if outcome is Outcome.NOT_YET and self._directory is not None:
            # A stall may really be a dead writer: run the failure
            # detector before deciding what to tell the reader.
            try:
                self._directory.reap()
            except DirectoryError:
                pass
            outcome, found = self.await_step(index, 0.0)
        if outcome is not Outcome.HIT:
            raise outcome_error(outcome, f"step {index} of {self.name!r}", found)
        return found


def _same_shape(orig: WrittenVar, data) -> bool:
    return tuple(np.shape(data)) == tuple(orig.data.shape)


def _provably_dropped(predicate, wv: WrittenVar) -> bool:
    """True when the reader predicate proves no row of this block
    survives the chain — judged on conservative whole-block bounds."""
    data = wv.data
    if data.size == 0 or data.dtype.kind not in "fiu":
        return False
    return not predicate.might_match(
        wv.name, float(data.min()), float(data.max())
    )


def _rank_parts(
    step: _PublishedStep, predicate=None, metrics=None
) -> dict[int, WireVector]:
    """Per-rank scatter-gather vectors of a step's payload.

    The transactional drain sends each rank's vector as that rank's
    prepare; the plain drain flattens them (rank order) into one send.
    Parts are :class:`WireBuffer` views over the step's written arrays —
    the step holds those arrays until commit/loss, so the views stay
    valid across retries.

    With a reader ``predicate`` (pushdown), blocks the reader chain
    provably drops never enter the vectors — analytics placed on the
    I/O path saving the movement itself.  The step's buffered copy is
    untouched, so in-process reads stay exact.
    """
    out: dict[int, WireVector] = {}
    for rank in sorted(step.groups):
        vec = WireVector()
        for wv in step.groups[rank].variables.values():
            if not wv.data.nbytes:
                continue
            if predicate is not None and _provably_dropped(predicate, wv):
                if metrics is not None:
                    metrics.counter("plugin.blocks_skipped").inc()
                continue
            vec.append(wv.data)
        out[rank] = vec
    return out


class StreamRegistry:
    """Directory server + live stream states for one process."""

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self.directory = DirectoryServer(clock=clock)
        self._states: dict[str, StreamState] = {}

    def set_clock(self, clock) -> None:
        """Swap the injectable clock (tests) — propagates to the
        directory server so lease reaping is deterministic."""
        self._clock = clock
        self.directory.set_clock(clock)

    def create(
        self, name: str, ctx: RankContext, monitor=None, hints=None
    ) -> StreamState:
        state = self._states.get(name)
        if state is None or state.closed:
            if state is not None and state.closed:
                # Recycle a finished stream's name for a new run.
                self.directory.unregister(name)
            state = StreamState(name, monitor, hints)
            state._directory = self.directory
            self._states[name] = state
            # Coordinator (rank 0 by election) registers the name, with a
            # liveness lease when the stream hints ask for one.
            self.directory.register(
                name,
                CoordinatorInfo(
                    program="writer", coordinator_rank=0, num_ranks=ctx.size, contact=state
                ),
                lease=state.hints.lease or None,
            )
        return state

    def open(self, name: str, ctx: RankContext) -> StreamState:
        info = self.directory.lookup(
            name,
            CoordinatorInfo(program="reader", coordinator_rank=0, num_ranks=ctx.size),
        )
        return info.contact

    def close_stream(self, name: str) -> None:
        if name in self._states:
            self._states[name].shutdown_pipeline()
            try:
                self.directory.unregister(name)
            except DirectoryError:
                pass  # already unregistered (recycled name)

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
    """Stream-mode writer for one rank.

    Step-oriented usage: ``begin_step() … write() … end_step()``;
    ``end_step(sync=True)`` forces one synchronous publish regardless of
    the stream's ``sync`` hint.
    """

    def __init__(self, state: StreamState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self._closed = False
        state.writer_join(ctx.rank)

    @property
    def plugins(self) -> PluginManager:
        return self._state.plugins

    @property
    def monitor(self) -> PerfMonitor:
        """The stream's shared monitor (enable tracing / dump here)."""
        return self._state.monitor

    def write(self, name, data, box=None, global_shape=None):
        if self._closed:
            raise StreamError("write after close")
        arr = np.asarray(data)
        if box is not None and tuple(arr.shape) != tuple(box.count):
            raise ValueError(f"data shape {arr.shape} != box count {box.count}")
        self._state.write(
            self._ctx.rank,
            WrittenVar(
                name=name,
                data=arr,
                box=box,
                global_shape=tuple(global_shape) if global_shape is not None else None,
            ),
        )

    def _advance(self, sync: Optional[bool] = None):
        if self._closed:
            raise StreamError("end_step after close")
        self._state.end_rank_step(self._ctx.rank, sync=sync)

    def close(self):
        if self._closed:
            return
        self._closed = True
        # The name stays registered so readers can still resolve the
        # stream and drain buffered steps; EndOfStream tells them it ended.
        self._state.writer_close(self._ctx.rank)


class StepReader(ReadHandle):
    """The one read path of every stream placement.

    Selection → fused plan / cached plain plan / ``assemble`` fallback →
    reader-side chain, with the ``read`` → ``redistribute``/``transport``
    spans and the fused/interpreted counters, written once against a
    **block source** — the step object :meth:`_source` returns
    (:class:`_PublishedStep` in process, the net client's wire views):
    ``var_names()``; ``var_blocks(name)``, one ``(box, global_shape,
    data)`` per writer block; ``writer_record(rank)``, one writer's
    ``{name: data}`` or ``None``; ``trace_ctx``, the publish span reads
    parent on; ``may_be_pruned``, whether a broker may have dropped
    blocks this reader's chain provably drops.  Subclasses say where a
    step comes from (:meth:`_step_at`; moving past a lost step is done
    once, here) and provide ``plugins``, ``monitor`` and ``_plans`` (the
    :class:`PlanCache` reads compile into; ``None`` re-derives overlap
    geometry every read).  Planes differ only through the source.
    """

    _cursor = 0

    @property
    def current_step(self) -> int:
        return self._cursor

    def _step_at(self, index: int):
        """Step ``index``'s block source; raises the typed readiness
        exceptions (:class:`StepNotReady`, :class:`EndOfStream`, …)."""
        raise NotImplementedError

    def _source(self):
        """The current step's block source."""
        return self._step_at(self._cursor)

    def _probe_step(self) -> None:
        self._source()

    def _advance(self):
        nxt = self._cursor + 1
        try:
            self._step_at(nxt)
        except StepLost:
            # Move first, then surface the lost step: begin_step() marks
            # it consumed, so the following begin_step() skips the gap.
            self._cursor = nxt
            raise
        self._cursor = nxt

    def _account_handshake(self, name, gshape, writer_boxes) -> None:
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

    def _pred_spec(self) -> str:
        """The reader chain's serialized block predicate ("": none) —
        what a pushdown reader publishes to whoever prunes for it."""
        pred = self.plugins.block_predicate(PluginSide.READER)
        return pred.spec() if pred is not None else ""

    def _plan(self, boxes, target, gshape, chain=None):
        """This geometry's compiled plan, fused with ``chain`` if given:
        replayed from ``_plans`` when there is one (keys carry the chain
        hash, so geometry is reused across chains), else compiled afresh."""
        if self._plans is None:
            base = CompiledPlan(compute_plan(boxes, [target]))
            return FusedPlan(base, chain) if chain is not None else base
        plan, hit = self._plans.get(boxes, [target], gshape, chain=chain)
        self.monitor.metrics.counter(
            "dataplane.plan_cache.hits" if hit else "dataplane.plan_cache.misses"
        ).inc()
        return plan

    def read_block(self, name: str, writer_rank: int) -> np.ndarray:
        source = self._source()
        record = source.writer_record(writer_rank)
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
            if self.plugins.has_side(PluginSide.READER):
                record = self.plugins.apply_side(PluginSide.READER, record)
        data = np.asarray(record[name])
        mon.metrics.counter("dataplane.bytes_read").inc(int(data.nbytes))
        return data

    def read(self, name, *, start=None, count=None, selection=None) -> np.ndarray:
        return self._read(name, None, start, count, selection)

    def read_into(
        self, name, out: np.ndarray, *, start=None, count=None, selection=None
    ) -> np.ndarray:
        """Like :meth:`read`, but scatter the selection straight into the
        preallocated ``out`` array — the steady-state zero-allocation
        read path (incoming spans land in the reader's own buffer, no
        per-step ``np.empty``).  ``out`` must match the selection's shape
        and the variable's dtype; returns ``out``.
        """
        return self._read(name, out, start, count, selection)

    def _read(self, name, out, start, count, selection) -> np.ndarray:
        """Both reads: ``out`` is the caller's destination, or ``None``
        when the read allocates its own."""
        start, count = resolve_read_args(selection, start, count)
        source = self._source()
        boxes, datas = [], []
        gshape = dtype = None
        for box, block_gshape, data in source.var_blocks(name):
            dtype = data.dtype
            if block_gshape is not None:
                gshape = block_gshape
            if box is not None:
                boxes.append(box)
                datas.append(data)
        if dtype is None:
            raise VariableNotFound(f"no variable {name!r} at step {self._cursor}")
        if gshape is None:
            raise AdiosError(
                f"variable {name!r} is not a global array; use read_block()"
            )
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
                self._account_handshake(name, gshape, boxes)
            fplan = None
            if chain is not None and boxes:
                fplan = self._plan(boxes, target, gshape, chain)
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
                    # soundly (assemble() would put fill values where
                    # pruned rows were, and the interpreted chain could
                    # select them).
                    raise AdiosError(
                        f"pushdown is active but the blocks of {name!r} do not "
                        f"row-tile the selection; re-open without pushdown for "
                        f"this access pattern"
                    )
                with mon.span("transport", name) as tspan:
                    if self._plans is not None and boxes:
                        cplan = self._plan(boxes, target, gshape)
                        if out is None:
                            result = cplan.execute(datas, dtype=dtype, check=False)[0]
                        else:
                            result = cplan.execute_into(datas, [out], check=False)[0]
                    else:
                        result = assemble(
                            target,
                            (
                                (b, d) for b, d in zip(boxes, datas)
                                if intersect(target, b) is not None
                            ),
                            dtype=dtype,
                        )
                        if out is not None:
                            out[...] = result
                            result = out
                    tspan.add_bytes(int(result.nbytes))
                if plugins.has_side(PluginSide.READER):
                    plugins.count_interpreted_read()
                    record = plugins.apply_side(PluginSide.READER, {name: result})
                    result = np.asarray(record[name])
                    if out is not None and result is not out:
                        out[...] = result  # a reader-side plugin transformed the data
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
            names = [
                n for n in source.var_names()
                if any(g is not None for _, g, _ in source.var_blocks(n))
            ]
        return {
            n: self.read(n, start=start, count=count, selection=selection)
            for n in names
        }


class FlexpathReadHandle(StepReader):
    """Stream-mode reader for one rank; End-of-Stream when writers close.

    Step-oriented usage: ``begin_step()`` returns
    :class:`~repro.adios.api.StepStatus` (``NotReady`` instead of a
    :class:`StreamStalled` raise), reads address the positioned step,
    ``end_step()`` releases it.  The read path is :class:`StepReader`'s;
    this class adds what only the in-process plane has: the stream's
    hints, the handshake-protocol accounting and the directory.
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
        # Chain hash last pushed to the directory (predicate pushdown).
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
        publishes its chain's block predicate at the directory so the
        writer-side drain can skip blocks it provably drops.  Idempotent
        per chain generation; a chain without a predicate withdraws."""
        state = self._state
        if (
            state.hints.pushdown and state._directory is not None
            and state.plugins.has_side(PluginSide.READER)
        ):
            chain_hash = state.plugins.chain_hash(PluginSide.READER)
            if chain_hash != self._registered_pred_hash:
                try:
                    state._directory.register_predicate(
                        state.name, f"reader-{id(self)}", self._pred_spec()
                    )
                    self._registered_pred_hash = chain_hash
                except DirectoryError:
                    pass
        return super()._reader_chain(name) if state.hints.fused else None

    def _account_handshake(self, name, gshape, writer_boxes) -> None:
        """Run the 4-step handshake protocol accounting for one exchange.

        Honors the stream's caching and batching hints: with CACHING_ALL
        and unchanged distributions the steady-state cost is zero; with
        batching only the first variable of each step pays a round.
        """
        hints = self._state.hints
        boxes_key = tuple((b.start, b.count) for b in writer_boxes)
        eng = self._hs_engines.get(name)
        if eng is None:
            reader_box = BoundingBox((0,) * len(gshape), tuple(gshape))
            eng = RedistributionEngine(
                writer_boxes, [reader_box],
                caching=hints.caching, batching=hints.batching,
                plan_cache=self._plans,
            )
            self._hs_engines[name] = eng
            self._hs_boxes[name] = boxes_key
        elif self._hs_boxes.get(name) != boxes_key:
            # Distribution changed (e.g. particle movement): caches drop.
            eng.update_writer_boxes(writer_boxes)
            self._hs_boxes[name] = boxes_key
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
        pass


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
