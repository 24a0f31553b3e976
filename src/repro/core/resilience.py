"""Resiliency: timeout-and-retry and transactional output
(paper Section II.H).

"Regarding resiliency, the current version uses simple timeout-and-retry
schemes to cope with errors and failures during data movement, but we are
planning to incorporate our recent work on a distributed transaction
protocol [26] into future versions of FlexIO."

Both are implemented here:

* :func:`retry_call` — the *current* scheme: every data-movement
  operation runs under a :class:`RetryPolicy`, a timeout with bounded
  retries and exponential backoff; the one fault source,
  :class:`repro.transport.faults.TransportFaultInjector`,
  deterministically injects drops/timeouts so the behaviour is testable.
* :class:`TransactionCoordinator` — the *planned* scheme (D2T-style):
  an output step becomes a distributed transaction over all writer
  participants — two-phase commit with prepare votes, so a step is
  visible to readers either completely or not at all.  The
  ``transactional=true`` stream hint applies it to a FlexIO stream's
  drain (:mod:`repro.core.drain`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

from repro.transport.faults import TransportFaultInjector


class MovementFailed(RuntimeError):
    """An operation exhausted its retries."""


class TransactionAborted(RuntimeError):
    """The coordinator aborted the transaction (some participant failed)."""


# ---------------------------------------------------------------------------
# Timeout-and-retry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff plus optional jitter."""

    max_retries: int = 3
    timeout: float = 1.0
    backoff_factor: float = 2.0
    #: Fraction of the backoff delay added as uniform random jitter, to
    #: decorrelate retry storms across ranks (0 → deterministic backoff).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0 or self.backoff_factor < 1.0:
            raise ValueError("timeout > 0 and backoff_factor >= 1 required")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")

    def delay_before(self, attempt: int, rng: Optional[Any] = None) -> float:
        """Backoff delay before retry ``attempt`` (attempt 0 = first try).

        ``rng`` (a numpy Generator) supplies the jitter draw; without one
        the delay is the deterministic exponential schedule.
        """
        if attempt == 0:
            return 0.0
        base = self.timeout * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0 and rng is not None:
            base += base * self.jitter * float(rng.random())
        return base


def retry_call(
    op: Callable[[], Any],
    policy: RetryPolicy,
    retriable: tuple[type, ...],
    on_retry: Optional[Callable[[int, Exception], None]] = None,
    rng: Optional[Any] = None,
    sleep: Callable[[float], None] = None,
) -> Any:
    """Run ``op`` under ``policy`` — the one attempt loop.

    The network plane's reconnect loops and the in-process step drain
    share this driver: ``op`` is one attempt (an RPC, a publish, a
    fetch, a send); a ``retriable`` exception triggers
    ``on_retry(attempt, exc)`` — where callers rebuild sockets and
    re-HELLO — after the policy's exponential backoff with seeded
    jitter.  Exhaustion re-raises the *last* retriable exception, so the
    caller decides the terminal type (e.g. wrap in ``SessionLost``).

    ``sleep`` is injectable (defaults to ``time.sleep``): tests pass a
    recorder.
    """
    import time as _time

    do_sleep = sleep if sleep is not None else _time.sleep
    last_exc: Optional[Exception] = None
    for attempt in range(policy.max_retries + 1):
        delay = policy.delay_before(attempt, rng)
        if delay > 0.0:
            do_sleep(delay)
        if attempt > 0 and on_retry is not None and last_exc is not None:
            try:
                on_retry(attempt, last_exc)
            except retriable as exc:
                last_exc = exc
                continue
        try:
            return op()
        except retriable as exc:
            last_exc = exc
    assert last_exc is not None
    raise last_exc


# ---------------------------------------------------------------------------
# Distributed transactions (D2T-style two-phase commit)
# ---------------------------------------------------------------------------

class TxPhase(Enum):
    IDLE = "idle"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Participant:
    """One writer rank's transaction agent.

    ``prepare`` stages the rank's output (durably, in the real system);
    ``commit`` publishes the staged data through ``publish_fn``;
    ``abort`` discards it.  A
    :class:`~repro.transport.faults.TransportFaultInjector` can fail
    prepares, and ``prepare_fn`` lets the rank do real work during
    prepare (e.g. move its bytes onto the wire) and vote on the outcome.
    """

    def __init__(
        self,
        rank: int,
        publish_fn: Callable[[int, dict], None],
        injector: Optional[TransportFaultInjector] = None,
        prepare_fn: Optional[Callable[[int, dict], bool]] = None,
    ) -> None:
        self.rank = rank
        self._publish = publish_fn
        self.injector = injector
        self._prepare_fn = prepare_fn
        self.phase = TxPhase.IDLE
        self._staged: Optional[tuple[int, dict]] = None

    def prepare(self, step: int, payload: dict) -> bool:
        """Stage the payload; returns the participant's vote."""
        if self.injector is not None and self.injector.next_fault() is not None:
            self.phase = TxPhase.ABORTED
            self._staged = None
            return False
        if self._prepare_fn is not None and not self._prepare_fn(step, payload):
            self.phase = TxPhase.ABORTED
            self._staged = None
            return False
        self._staged = (step, dict(payload))
        self.phase = TxPhase.PREPARED
        return True

    def commit(self) -> None:
        if self.phase is not TxPhase.PREPARED or self._staged is None:
            raise TransactionAborted(f"rank {self.rank} has nothing prepared")
        step, payload = self._staged
        self._publish(step, payload)
        self._staged = None
        self.phase = TxPhase.COMMITTED

    def abort(self) -> None:
        self._staged = None
        self.phase = TxPhase.ABORTED


@dataclass
class TxStats:
    transactions: int = 0
    committed: int = 0
    aborted: int = 0


class TransactionCoordinator:
    """Two-phase commit across all participants of one output step."""

    def __init__(self, participants: Sequence[Participant]) -> None:
        if not participants:
            raise ValueError("a transaction needs participants")
        self.participants = list(participants)
        self.stats = TxStats()

    def run(self, step: int, payloads: dict[int, dict]) -> bool:
        """One transaction: prepare all, then commit or abort all.

        ``payloads`` maps rank → that rank's output record.  Returns True
        on commit; raises :class:`TransactionAborted` on abort (callers
        retry the step).
        """
        self.stats.transactions += 1
        votes = []
        for p in self.participants:
            payload = payloads.get(p.rank)
            if payload is None:
                votes.append(False)
                break
            votes.append(p.prepare(step, payload))
            if not votes[-1]:
                break
        if not all(votes) or len(votes) < len(self.participants):
            for p in self.participants:
                p.abort()
            self.stats.aborted += 1
            raise TransactionAborted(f"step {step}: a participant voted abort")
        for p in self.participants:
            p.commit()
        self.stats.committed += 1
        return True
