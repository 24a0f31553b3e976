"""The data plane behind ``end_step``: a pipelined drain.

Sealing a step (running writer-side DC plug-ins) happens on the writer's
thread, then the step is handed to a bounded background **drainer**
that delivers it and commits it.  In process a sealed step is delivered
by reference: every reader reads the writer's arrays from the stream's
step store, as an XPMEM consumer reads the producer's mapped pages, so
nothing is sent.  What the drain keeps of data movement is the paper's
timeout-and-retry (Section II.H): each delivery attempt is one consult
of the stream's fault injector, under the stream's retry policy.  With
``sync=false`` (the default) the writer-visible span covers only the
seal + hand-off; ``sync=true`` blocks until the step is committed or
lost — so ``writer_visible`` is a *measured* span, not a formula.
"""

from __future__ import annotations

import queue
import threading
import zlib
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.core.hints import TRANSPORT_SHM
from repro.core.resilience import RetryPolicy, TransactionAborted, retry_call
from repro.obs import recorder as flight, sanitize
from repro.obs.events import (
    EV_BACKPRESSURE,
    EV_DRAIN_WEDGED,
    EV_QUEUE_HIGH_WATER,
    EV_RETRY,
    EV_STEP_ABORTED,
    EV_STEP_COMMIT,
    EV_STEP_LOST,
)
from repro.transport.buffers import as_byte_view
from repro.transport.faults import TransportFault, consult
from repro.util import rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stream import StreamState, _PublishedStep


class StepState(Enum):
    """Delivery state of one published step."""

    PENDING = "pending"      # sealed, still in the drain pipeline
    COMMITTED = "committed"  # drained successfully; readable
    LOST = "lost"            # retries exhausted; payload discarded
    ABORTED = "aborted"      # its transaction aborted; payload discarded


#: Methods that run on the drainer thread.  The FlexLint FXL005 rule
#: checks every ``self.<attr>`` and ``self._state.<attr>`` assignment
#: inside these against :data:`DRAINER_SHARED_STATE` — an attribute
#: mutated from the drainer without being declared here fails the lint,
#: forcing the author to think about its synchronization.
DRAINER_METHODS = frozenset({
    "_run",
    "_drain_one",
    "_deliver",
    "_drain_transactional",
    "_mark_lost",
    "_commit",
})

#: Attributes the drainer thread is allowed to mutate: its own
#: ``_pending`` (guarded by ``_pending_lock``).  Every call into the
#: stream's step ``store``, which the drainer appends to but never
#: assigns, is guarded by the lock of the ``_committed`` condition.
DRAINER_SHARED_STATE = frozenset({"_pending"})


class _StepDrainer:
    """Bounded background thread delivering and committing sealed steps.

    The writer hands each :class:`_PublishedStep` to :meth:`submit`;
    once the queue holds ``queue_depth`` undrained steps the writer
    blocks (back-pressure, counted in ``dataplane.backpressure_waits``).
    Every step ends up in the stream's step store exactly once —
    COMMITTED when its delivery succeeded, LOST/ABORTED when it did not
    — so readers never hang on a failed step and never see torn data.

    The drainer owns the retry policy; :data:`DRAINER_METHODS` run on
    its thread and reach the stream state only through ``self._state``.
    """

    def __init__(self, state: "StreamState", queue_depth: int) -> None:
        self._state = state
        hints = state.hints
        self._retry_policy = RetryPolicy(
            max_retries=hints.max_retries,
            timeout=hints.retry_timeout,
            jitter=hints.retry_jitter,
        )
        # Per-stream deterministic jitter source (stable across runs).
        self._retry_rng = rng(zlib.crc32(state.name.encode("utf-8")))
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

    def submit(self, step: _PublishedStep, spans: list) -> None:
        """Queue one sealed step with the per-rank ``(rank, nbytes)``
        :func:`_rank_parts` built for it.  From here until its commit or
        loss the step's arrays are lent to its readers: with the
        sanitizer on they are digested now and checked then."""
        mon = self._state.monitor
        lent = None if self._san is None else self._san.lend(*_byte_views(step))
        with self._pending_lock:
            self._pending += 1
            self._idle.clear()
        item = (step, spans, lent)
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
            try:
                self._drain_one(*item)
            finally:
                self._depth.dec()
                with self._pending_lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.set()

    def _drain_one(self, step: _PublishedStep, spans: list,
                   lent: Optional[int]) -> None:
        """Drainer-thread body: deliver one step, then commit it.

        A step is committed **only** when its delivery succeeded (or its
        transaction committed); a step whose retries were exhausted is
        marked LOST/ABORTED with its buffers discarded, so readers get a
        typed gap instead of torn or silently-dropped data.  ``lent`` is
        the sanitizer's digest of the step's arrays at the hand-off.
        """
        state = self._state
        mon = state.monitor
        with mon.measure(
            "drain", state.name, nbytes=step.nbytes,
            parent=step.trace_ctx, step=step.step,
        ):
            if state.hints.transactional and step.groups:
                err = self._drain_transactional(step, spans)
            else:
                err = self._deliver(step, step.nbytes)
        if lent is not None:  # before a loss discards the arrays
            self._san.check_lent(
                sanitize.XPMEM_SOURCE_MUTATED,
                f"step {step.step} of {state.name} (lent at its seal)",
                lent, *_byte_views(step),
            )
        if err is None:
            self._commit(step)
        else:
            mon.metrics.counter("dataplane.drain.errors").inc()
            self._mark_lost(step, err)

    def _deliver(self, step: _PublishedStep, nbytes: int) -> Optional[TransportFault]:
        """Deliver ``nbytes`` of ``step`` under the stream's retry policy.

        The arrays are already where every reader reads them, so an
        attempt is one consult of the stream's fault injector — on the
        shm rung, as the mapped send it stands for — and a step with no
        bytes consults nothing.  Returns None on success, the last fault
        when the retries ran out.  Every failed attempt is counted in
        ``dataplane.drain.faults``; one that is retried is a
        ``drain.retry`` flight event carrying its error, and a delivery
        that eventually succeeds increments ``dataplane.drain.recovered``
        and leaves its try count on the step (``attempts`` of the
        ``step.commit`` event).
        """
        if not nbytes:
            return None
        state = self._state
        metrics = state.monitor.metrics
        attempt = 0

        def on_retry(n: int, exc: Exception) -> None:
            nonlocal attempt
            attempt = n
            metrics.counter("dataplane.drain.retries").inc()
            flight.record(
                EV_RETRY, stream=state.name, step=step.step, attempt=n,
                error=repr(exc),
            )

        def attempt_once() -> None:
            try:
                consult(state._injector, metrics, TRANSPORT_SHM, nbytes)
            except TransportFault:
                metrics.counter("dataplane.drain.faults").inc()
                raise

        try:
            retry_call(
                attempt_once, self._retry_policy, (TransportFault,),
                on_retry=on_retry, rng=self._retry_rng,
            )
        except TransportFault as exc:
            return exc  # retries exhausted
        if attempt > 0:
            metrics.counter("dataplane.drain.recovered").inc()
            step.attempts = max(step.attempts, attempt + 1)
        return None

    def _drain_transactional(self, step: _PublishedStep, spans: list):
        """All-or-nothing step visibility across the writer ranks.

        In rank order, each rank's delivery of its own bytes is that
        rank's prepare vote, under the retry policy (a rank with nothing
        written votes yes).  The first rank whose delivery fails aborts
        the step — the ranks after it are never tried — and the caller
        discards the whole step; only when every vote is yes does the
        caller commit.  Returns None on commit, the abort exception
        otherwise.
        """
        metrics = self._state.monitor.metrics
        for rank, nbytes in spans:
            err = self._deliver(step, nbytes)
            if err is not None:
                metrics.counter("dataplane.tx.aborted").inc()
                return TransactionAborted(
                    f"step {step.step}: rank {rank} voted abort ({err!r})"
                )
        metrics.counter("dataplane.tx.committed").inc()
        return None

    def _mark_lost(self, step: _PublishedStep, exc: Exception) -> None:
        """Record a failed step: payload discarded, typed gap published."""
        if isinstance(exc, TransactionAborted):
            step.status, code = StepState.ABORTED, EV_STEP_ABORTED
        else:
            step.status, code = StepState.LOST, EV_STEP_LOST
        step.error = repr(exc)
        step.groups.clear()  # free the buffers; never torn-visible
        step.block_index.clear()
        step.nbytes = 0
        state = self._state
        mon = state.monitor
        mon.metrics.counter("dataplane.drain.steps_lost").inc()
        flight.record(code, stream=state.name, step=step.step, error=step.error)
        flight.dump_on_fault(
            f"step {step.step} {step.status.value}",
            stream=state.name, monitor=mon,
        )
        with state._committed:
            state.store.append(step.step, step, 0, lost=step.error)
            state._committed.notify_all()

    def _commit(self, step: _PublishedStep) -> None:
        step.status = StepState.COMMITTED
        state = self._state
        metrics = state.monitor.metrics
        metrics.counter("dataplane.drain.steps_committed").inc()
        metrics.counter("dataplane.drain.bytes_committed").inc(step.nbytes)
        if step.nbytes:  # delivered on the shm rung, by reference
            metrics.counter("shm.bytes_sent").inc(step.nbytes)
            metrics.counter("shm.messages_sent").inc()
        # ``attempts`` only when a retried delivery recovered the step.
        recovered = {"attempts": step.attempts} if step.attempts > 1 else {}
        flight.record(
            EV_STEP_COMMIT, stream=state.name, step=step.step,
            nbytes=step.nbytes, **recovered,
        )
        with state._committed:  # last: a woken reader finds the commit recorded
            state.store.append(step.step, step, step.nbytes)
            state._committed.notify_all()


def _byte_views(step: _PublishedStep) -> list:
    """Every written array of ``step`` as bytes (the sanitizer's digest)."""
    return [as_byte_view(wv.data) for pg in step.groups.values() for wv in pg.blocks]


def _rank_parts(step: _PublishedStep) -> list[tuple[int, int]]:
    """The seal's one walk over a step's groups, in rank order: sets
    ``step.nbytes`` (every written byte) and returns each rank's
    ``(rank, nbytes)`` — the transactional drain's per-rank votes."""
    spans = [
        (rank, sum(wv.data.nbytes for wv in step.groups[rank].blocks))
        for rank in sorted(step.groups)
    ]
    step.nbytes = sum(nbytes for _, nbytes in spans)
    return spans
