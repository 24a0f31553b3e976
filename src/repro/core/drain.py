"""The data plane behind ``end_step``: commit at the seal, retry behind it.

Sealing a step (running writer-side DC plug-ins) happens on the writer's
thread, and so does the step's first delivery attempt.  In process a
sealed step is delivered by reference: every reader reads the writer's
arrays from the stream's step store, as an XPMEM consumer reads the
producer's mapped pages, so nothing is sent.  What the drain keeps of
data movement is the paper's timeout-and-retry (Section II.H): each
delivery attempt is one consult of the stream's fault injector, under
the stream's retry policy.  A first attempt that succeeds commits the
step before ``end_step`` returns.  Only a step that must wait — its
first attempt faulted, or an earlier step still waits — goes to a
bounded queue and a background **drainer** thread, started the first
time one is needed, which runs the rest of the retry policy in step
order.  With ``sync=false`` (the default) the writer-visible span covers
the seal, the first attempt and the hand-off; ``sync=true`` blocks until
the step is committed or lost — so ``writer_visible`` is a *measured*
span, not a formula.
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


#: Methods of the drain path.  They run on the drainer thread, and
#: ``_drain_one``, ``_deliver`` and ``_commit`` also on the writer's, for
#: a step's first attempt (:meth:`_StepDrainer.submit`).  The FlexLint
#: FXL005 rule checks every ``self.<attr>`` and ``self._state.<attr>``
#: assignment inside these against :data:`DRAINER_SHARED_STATE` — an
#: attribute mutated on the drain path without being declared here fails
#: the lint, forcing the author to think about its synchronization.
DRAINER_METHODS = frozenset({
    "_run",
    "_drain_one",
    "_deliver",
    "_mark_lost",
    "_commit",
})

#: Attributes the drain path is allowed to mutate: the drainer's own
#: ``_pending`` (guarded by ``_pending_lock``).  Every call into the
#: stream's step ``store``, which the drain appends to but never
#: assigns, is guarded by the lock of the ``_committed`` condition.
DRAINER_SHARED_STATE = frozenset({"_pending"})

#: A first attempt: one try, no retry (the drainer thread runs those).
_FIRST_ATTEMPT = RetryPolicy(max_retries=0)


class _StepDrainer:
    """Delivers and commits sealed steps: at the seal, or behind it.

    The writer hands each :class:`_PublishedStep` to :meth:`submit`,
    which makes the step's first delivery attempt on the writer's thread
    when no earlier step is still pending, and commits it there.  A step
    whose first attempt faulted, or that was sealed while an earlier one
    was pending, waits in a bounded queue for a background thread that
    runs the rest of the retry policy; once the queue holds
    ``queue_depth`` steps the writer blocks (back-pressure, counted in
    ``dataplane.backpressure_waits``).  Every step ends up in the
    stream's step store exactly once and in step order — COMMITTED when
    its delivery succeeded, LOST/ABORTED when it did not — so readers
    never hang on a failed step and never see torn data.

    The drainer owns the retry policy; :data:`DRAINER_METHODS` reach the
    stream state only through ``self._state``.
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
        #: Submitted steps not yet committed or lost.
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
        #: Started by the first step that must wait (:meth:`_enqueue`).
        self._thread: Optional[threading.Thread] = None

    def submit(self, step: _PublishedStep, spans: list) -> None:
        """Deliver one sealed step, with the per-rank ``(rank, nbytes)``
        :func:`_rank_parts` built for it: commit it here if its first
        attempt succeeds, else queue it for the drainer thread.  From here
        until its commit or loss the step's arrays are lent to its
        readers: with the sanitizer on they are digested now and checked
        then."""
        lent = None if self._san is None else self._san.lend(*_byte_views(step))
        if self._state.hints.transactional and step.groups:
            sends = spans  # each rank's own bytes: its prepare vote
        else:
            sends = [(None, step.nbytes)]
        with self._pending_lock:
            behind = self._pending > 0
            self._pending += 1
            self._idle.clear()
        resume = (0, None)  # queued behind an earlier step: no try yet
        if not behind:  # the first attempt is made here
            resume = None
            try:
                resume = self._drain_one(step, sends, lent)
            finally:
                if resume is None:  # decided here (or raised)
                    self._done()
            if resume is None:
                return
        self._enqueue((step, sends, lent, resume))

    def _enqueue(self, item: tuple) -> None:
        """Queue a step for the drainer thread, starting it if need be."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"flexio-drain-{self._state.name}",
                daemon=True,
            )
            self._thread.start()
            if self._san is not None:
                self._san.note_thread_started(
                    self._thread, f"drainer:{self._state.name}")
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._state.monitor.metrics.counter("dataplane.backpressure_waits").inc()
            flight.record(
                EV_BACKPRESSURE, stream=self._state.name, step=item[0].step
            )
            self._queue.put(item)
        self._depth.inc()
        if self._depth.value > self._high_water:
            self._high_water = self._depth.value
            flight.record(
                EV_QUEUE_HIGH_WATER, stream=self._state.name,
                depth=int(self._high_water),
            )

    def _done(self) -> None:
        """One submitted step is committed or lost."""
        with self._pending_lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    def wait_idle(self) -> None:
        """Block until every submitted step has been committed or lost."""
        self._idle.wait()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the drain thread; returns False if it is wedged.

        Idempotent: repeat calls (double-close, registry reset after an
        explicit shutdown) are no-ops, and so is a stop with no thread
        started.  A thread still alive after the join timeout is marked
        ``wedged`` and left behind (it is a daemon), counted in
        ``dataplane.drain.wedged`` so the hang is observable instead of
        silently blocking close forever.
        """
        if self._stopped:
            return not self.wedged
        self._stopped = True
        if self._thread is None:
            return True
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
                self._done()

    def _drain_one(self, step: _PublishedStep, sends: list,
                   lent: Optional[int], resume: Optional[tuple] = None):
        """Deliver one step's ``(rank, nbytes)`` sends, then commit it.

        Without ``resume`` this is the step's first attempt, on the
        writer's thread: one try of each send in order, and a fault
        returns ``(index of the send, fault)`` — the step undecided — for
        the drainer thread to pass back as ``resume``.  There the rest of
        the retry policy runs from that send on: a faulted send goes on
        at its first retry, and ``(0, None)`` (a step queued behind
        another) starts afresh.

        A step is committed **only** when its delivery succeeded; a step
        whose retries were exhausted is marked LOST/ABORTED with its
        buffers discarded, so readers get a typed gap instead of torn or
        silently-dropped data.  On a transactional stream (paper's
        planned D2T scheme) the sends are the writer ranks' prepare
        votes, in rank order (a rank with nothing written votes yes):
        the first vote that fails aborts the step, the ranks after it
        are never tried, and only when every vote is yes is the step
        committed.  ``lent`` is the sanitizer's digest of the step's
        arrays at the hand-off.
        """
        state = self._state
        mon = state.monitor
        first = resume is None
        start, failed = resume or (0, None)
        policy = _FIRST_ATTEMPT if first else self._retry_policy
        err = None
        with mon.measure(
            "drain", state.name, nbytes=step.nbytes,
            parent=step.trace_ctx, step=step.step,
        ):
            for at in range(start, len(sends)):
                err = self._deliver(step, sends[at][1], policy, failed)
                if err is not None:
                    break  # the sends after it are never tried
                failed = None
        if err is not None and first:
            return at, err  # the drainer thread retries it
        if lent is not None:  # before a loss discards the arrays
            self._san.check_lent(
                sanitize.XPMEM_SOURCE_MUTATED,
                f"step {step.step} of {state.name} (lent at its seal)",
                lent, *_byte_views(step),
            )
        if sends[0][0] is not None:  # the sends were prepare votes
            if err is None:
                mon.metrics.counter("dataplane.tx.committed").inc()
            else:
                mon.metrics.counter("dataplane.tx.aborted").inc()
                err = TransactionAborted(
                    f"step {step.step}: rank {sends[at][0]} voted abort ({err!r})"
                )
        if err is None:
            self._commit(step)
        else:
            mon.metrics.counter("dataplane.drain.errors").inc()
            self._mark_lost(step, err)
        return None

    def _deliver(self, step: _PublishedStep, nbytes: int, policy: RetryPolicy,
                 failed: Optional[TransportFault] = None) -> Optional[TransportFault]:
        """Deliver ``nbytes`` of ``step`` under ``policy``.

        The arrays are already where every reader reads them, so an
        attempt is one consult of the stream's fault injector — on the
        shm rung, as the mapped send it stands for — and a step with no
        bytes consults nothing.  ``failed``: the fault the send's first
        attempt already raised; the tries go on at its first retry.
        Returns None on success, the last fault when the retries ran
        out.  Every failed attempt is counted in
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
                attempt_once, policy, (TransportFault,),
                on_retry=on_retry, rng=self._retry_rng, failed=failed,
            )
        except TransportFault as exc:
            return exc  # retries exhausted
        if attempt > 0:
            metrics.counter("dataplane.drain.recovered").inc()
            step.attempts = max(step.attempts, attempt + 1)
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
