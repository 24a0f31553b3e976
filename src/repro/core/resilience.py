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
* the *planned* scheme (D2T-style) is the ``transactional=true``
  stream hint: the drain (:mod:`repro.core.drain`) makes an output step
  a distributed transaction over all writer ranks — each rank's send is
  its prepare vote, and the step commits only when every vote is yes,
  so it is visible to readers either completely or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


class MovementFailed(RuntimeError):
    """An operation exhausted its retries."""


class TransactionAborted(RuntimeError):
    """A transactional step aborted (some writer rank's prepare failed)."""


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
