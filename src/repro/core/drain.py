"""The data plane behind ``end_step``: a pipelined drain.

Sealing a step (running writer-side DC plug-ins) happens on the writer's
thread, then the step is handed to a bounded background **drainer** that
pushes the payload through the selected SHM/RDMA/TCP channel.  With
``sync=false`` (the default) the writer-visible span covers only the
seal + buffer hand-off; ``sync=true`` blocks until the transport drain
completes — so ``writer_visible`` is a *measured* span, not a formula.
"""

from __future__ import annotations

import queue
import threading
import zlib
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.adios.model import WrittenVar
from repro.core.hints import TRANSPORT_RDMA, TRANSPORT_SHM, TRANSPORT_TCP
from repro.core.resilience import RetryPolicy, TransactionAborted, retry_call
from repro.obs import recorder as flight, sanitize
from repro.obs.events import (
    EV_BACKPRESSURE,
    EV_DEGRADE,
    EV_DRAIN_WEDGED,
    EV_QUEUE_HIGH_WATER,
    EV_RETRY,
    EV_STEP_ABORTED,
    EV_STEP_COMMIT,
    EV_STEP_LOST,
)
from repro.transport.buffers import WireBuffer, WireVector
from repro.transport.faults import TransportFault
from repro.util import rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stream import StreamState, _PublishedStep


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

#: Methods that run on (or in lock-step with) the drainer thread.  The
#: FlexLint FXL005 rule checks every ``self.<attr>`` and
#: ``self._state.<attr>`` assignment inside these against
#: :data:`DRAINER_SHARED_STATE` — an attribute mutated from the drainer
#: without being declared here fails the lint, forcing the author to
#: think about its synchronization.
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

#: Attributes the drainer thread is allowed to mutate.  Its own:
#: ``_pending`` (guarded by ``_pending_lock``), ``_channel`` and
#: ``_consecutive_failures`` (drainer-private).  The stream state's,
#: written through ``self._state``: ``active_transport`` (the drainer is
#: its only writer after pipeline start).  Every call into the stream's
#: step ``store``, which the drainer appends to but never assigns, is
#: guarded by the lock of the ``_committed`` condition.
DRAINER_SHARED_STATE = frozenset({
    "_pending",
    "_consecutive_failures",
    "_channel",
    "active_transport",
})


class _StepDrainer:
    """Bounded background thread pushing sealed steps through a channel.

    The writer hands each :class:`_PublishedStep` to :meth:`submit`;
    once the queue holds ``queue_depth`` undrained steps the writer
    blocks (back-pressure, counted in ``dataplane.backpressure_waits``).
    Every step ends up in the stream's step store exactly once —
    COMMITTED when the drain succeeded, LOST/ABORTED when it did not —
    so readers never hang on a failed step and never see torn data.

    The drainer owns the channel, the retry policy and the degradation
    count; :data:`DRAINER_METHODS` run on its thread and reach the
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
        self._consecutive_failures = 0
        self._channel = self._open_channel(state.active_transport)
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

    def _open_channel(self, transport: str):
        """The drain channel for one rung of the transport ladder."""
        from repro.core.runtime import make_stream_channel

        state = self._state
        return make_stream_channel(
            transport, monitor=state.monitor, injector=state._injector
        )

    def submit(self, step: _PublishedStep, wire: tuple) -> None:
        """Queue one sealed step with the ``(vector, rank spans)``
        :func:`_rank_parts` built for it."""
        mon = self._state.monitor
        with self._pending_lock:
            self._pending += 1
            self._idle.clear()
        item = (step, wire)
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
            step, wire = item
            try:
                self._drain_one(step, wire)
            finally:
                self._depth.dec()
                with self._pending_lock:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.set()

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

    def _drain_one(self, step: _PublishedStep, wire: tuple) -> None:
        """Drainer-thread body: push one step's payload, then commit it.

        A step is committed **only** when its payload cleared the
        transport (or its transaction committed); a step whose retries
        were exhausted is marked LOST/ABORTED with its buffers discarded,
        so readers get a typed gap instead of torn or silently-dropped
        data.
        """
        state = self._state
        mon = state.monitor
        parts, spans = wire
        with mon.measure(
            "drain", state.name, nbytes=step.nbytes,
            parent=step.trace_ctx, step=step.step,
        ):
            if state.hints.transactional and step.groups:
                err = self._drain_transactional(step, parts, spans)
            else:
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
        name, mon = self._state.name, self._state.monitor
        policy = self._retry_policy
        retriable = (TransportFault, TimeoutError)
        attempt = 0

        def on_retry(n: int, exc: Exception) -> None:
            nonlocal attempt
            attempt = n
            mon.metrics.counter("dataplane.drain.retries").inc()
            flight.record(
                EV_RETRY, stream=name, step=step.step, attempt=n,
                error=repr(exc),
            )

        def send_once() -> Optional[Exception]:
            # A retriable fault is raised (retry_call's cue); any other
            # error is this function's own result: it fails the step.
            try:
                with mon.span(
                    "drain_attempt", name, parent=step.trace_ctx,
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

    def _drain_transactional(self, step: _PublishedStep, parts: WireVector, spans: list):
        """All-or-nothing step visibility across the writer ranks.

        In rank order, each rank's slice of the step's vector is that
        rank's prepare vote: a reliable send under the retry policy (a
        rank with nothing to send votes yes).  The first rank whose send
        fails aborts the step — the ranks after it are never sent — and
        the caller discards the whole step; only when every vote is yes
        does the caller commit.
        Returns None on commit, the abort exception otherwise.
        """
        metrics = self._state.monitor.metrics
        for rank, lo, hi in spans:
            err = self._send_with_retries(step, WireVector(parts[lo:hi]))
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

    def _maybe_degrade(self) -> None:
        """Graceful degradation: fall down the transport ladder.

        After ``degrade_after`` consecutive failed steps the stream
        closes its channel and rebuilds the next transport down
        (rdma → tcp → shm → buffered-only).  Runs on the drainer thread, which
        is the only user of the channel, so the swap is race-free.
        """
        state = self._state
        threshold = state.hints.degrade_after
        if threshold <= 0 or self._consecutive_failures < threshold:
            return
        previous = state.active_transport
        nxt = _DEGRADE_LADDER.get(previous)
        self._close_channel()
        if nxt is None:
            state.active_transport = "buffered"
        else:
            self._channel = self._open_channel(nxt)
            state.active_transport = nxt
        self._consecutive_failures = 0
        state.monitor.metrics.counter("dataplane.transport.degradations").inc()
        flight.record(
            EV_DEGRADE, stream=state.name, src=previous, dst=state.active_transport
        )

    def _commit(self, step: _PublishedStep) -> None:
        step.status = StepState.COMMITTED
        state = self._state
        mon = state.monitor
        mon.metrics.counter("dataplane.drain.steps_committed").inc()
        mon.metrics.counter("dataplane.drain.bytes_committed").inc(step.nbytes)
        # ``attempts`` only when a retried send recovered the step.
        recovered = {"attempts": step.attempts} if step.attempts > 1 else {}
        flight.record(
            EV_STEP_COMMIT, stream=state.name, step=step.step,
            nbytes=step.nbytes, **recovered,
        )
        with state._committed:  # last: a woken reader finds the commit recorded
            state.store.append(step.step, step, step.nbytes)
            state._committed.notify_all()


def _provably_dropped(predicate, wv: WrittenVar) -> bool:
    """True when the reader predicate proves no row of this block
    survives the chain — judged on conservative whole-block bounds."""
    data = wv.data
    if data.size == 0 or data.dtype.kind not in "fiu":
        return False
    return not predicate.might_match(
        wv.name, float(data.min()), float(data.max())
    )


def _rank_parts(step: _PublishedStep, predicate, metrics) -> tuple[WireVector, list]:
    """The seal's one walk over a step's groups, in rank order.

    Sets ``step.nbytes`` (every written byte, sent or not) and returns
    the step's scatter-gather vector with each rank's ``(rank, lo, hi)``
    slice of it.  The plain drain sends the vector whole; the
    transactional one sends each rank's slice as that rank's prepare.
    Parts are :class:`WireBuffer` views over the step's written arrays —
    the step holds those arrays until commit/loss, so the views stay
    valid across retries.

    With a reader ``predicate`` (pushdown; else ``None``), blocks the
    reader chain provably drops never enter the vector — analytics
    placed on the I/O path saving the movement itself.  The step's buffered copy is
    untouched, so in-process reads stay exact.
    """
    arrays: list = []
    spans: list[tuple[int, int, int]] = []
    nbytes = 0
    for rank in sorted(step.groups):
        lo = len(arrays)
        for wv in step.groups[rank].blocks:
            data = wv.data
            if not data.nbytes:
                continue
            nbytes += data.nbytes
            if predicate is not None and _provably_dropped(predicate, wv):
                metrics.counter("plugin.blocks_skipped").inc()
                continue
            arrays.append(data)
        spans.append((rank, lo, len(arrays)))
    step.nbytes = nbytes
    return WireVector(arrays), spans
