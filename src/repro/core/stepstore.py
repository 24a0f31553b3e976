"""The step store: what a reader is told about step *k*, decided once.

:class:`~repro.core.stream.StreamState` (in process) and
:class:`~repro.net.server.HostedStream` (the daemon) both keep, end,
fail and look up their steps here, so retention and the lost-step rule
have one definition: :meth:`StepStore.lookup`.  The store takes no lock,
does no I/O and wakes nobody — each plane synchronises it with what it
already has (the ``_committed`` condition; the daemon's one event loop,
whose ``HostedStream.wake`` follows every change a parked reader awaits).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Iterator, Optional

from repro.adios.api import EndOfStream, StepLost, StepNotReady, StreamFailure


class StreamStalled(StepNotReady):
    """No published step is available yet (writer still running)."""


class Outcome(Enum):
    """What :meth:`StepStore.lookup` decides, in the order it tests."""

    HIT = "hit"          # retained and delivered: here is the payload
    LOST = "lost"        # appended, or skipped over, but undeliverable
    ENDED = "ended"      # at or past the writer's clean end of stream
    FAILED = "failed"    # the stream ended abnormally
    NOT_YET = "not_yet"  # may still arrive


class StepStore:
    """Steps by index, the oldest evicted beyond ``retain`` of them
    (``None`` keeps every step), plus how the stream ended."""

    def __init__(self, retain: Optional[int] = None) -> None:
        self.retain = retain
        #: index -> (payload, nbytes, lost reason | None), oldest first.
        self._steps: dict[int, tuple[Any, int, Optional[str]]] = {}
        self.last = -1  # highest index ever appended; never falls
        #: First index past the writer's clean end (None: still open).
        self.ended: Optional[int] = None
        #: Why the stream ended abnormally (None: it did not).
        self.failed: Optional[str] = None
        self.nbytes = 0  # bytes of the retained delivered payloads
        self.peak_nbytes = 0

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[Any]:
        """Retained payloads, lost ones included, oldest first."""
        return (payload for payload, _, _ in self._steps.values())

    @property
    def closed(self) -> bool:
        return self.ended is not None or self.failed is not None

    def append(self, index: int, payload: Any, nbytes: int,
               lost: Optional[str] = None) -> None:
        """Keep step ``index``, replacing an earlier append of it; with
        ``lost`` (a reason) it is a typed gap and holds no bytes."""
        if lost is not None:
            nbytes = 0
        replaced = self._steps.pop(index, None)
        if replaced is not None:
            self.nbytes -= replaced[1]
        self._steps[index] = (payload, nbytes, lost)
        self.nbytes += nbytes
        self.last = max(self.last, index)
        while self.retain is not None and len(self._steps) > self.retain:
            self.nbytes -= self._steps.pop(next(iter(self._steps)))[1]
        self.peak_nbytes = max(self.peak_nbytes, self.nbytes)

    def end(self, index: Optional[int] = None) -> None:
        """Clean end: no step will exist at or past ``index`` (default:
        just past the last appended one)."""
        self.ended = self.last + 1 if index is None else index

    def fail(self, reason: str) -> None:
        """Abnormal end (writer death, lease expiry); what is retained
        stays readable."""
        self.failed = reason

    def lookup(self, index: int) -> tuple[Outcome, Any]:
        """``(outcome, payload | reason | None)`` for step ``index``."""
        entry = self._steps.get(index)
        if entry is not None and entry[2] is None:
            return Outcome.HIT, entry[0]
        if index <= self.last:
            # Appended as lost, evicted, or skipped by a gap: it can
            # never arrive, whatever became of the stream afterwards.
            return Outcome.LOST, entry[2] if entry is not None else "not retained"
        if self.ended is not None and index >= self.ended:
            return Outcome.ENDED, None
        if self.failed is not None:
            return Outcome.FAILED, self.failed
        return Outcome.NOT_YET, None

    def snapshot(self) -> dict:
        """The whole state as plain values; :meth:`restore` inverts it."""
        return {
            "retain": self.retain, "last": self.last, "ended": self.ended,
            "failed": self.failed, "peak_nbytes": self.peak_nbytes,
            "steps": [(index, *entry) for index, entry in self._steps.items()],
        }

    @classmethod
    def restore(cls, snap: dict) -> "StepStore":
        store = cls(snap["retain"])
        for step in snap["steps"]:
            store.append(*step)
        store.last, store.ended, store.failed = snap["last"], snap["ended"], snap["failed"]
        store.peak_nbytes = snap["peak_nbytes"]
        return store


#: The exception type and the wording of each outcome that is not a hit.
_TYPED = {
    Outcome.LOST: (StepLost, "lost"),
    Outcome.ENDED: (EndOfStream, "past the end of the stream"),
    Outcome.FAILED: (StreamFailure, "stream failed"),
    Outcome.NOT_YET: (StreamStalled, "not yet published"),
}


def outcome_error(outcome: Outcome, where: str, detail: Optional[str] = None) -> Exception:
    """The typed exception a reader is given for a non-HIT ``outcome``,
    on every plane.  ``where`` names the step and its stream; ``detail``
    is :meth:`StepStore.lookup`'s reason, or its copy off the wire."""
    exc_type, wording = _TYPED[outcome]
    return exc_type(f"{where} {wording}" + (f": {detail}" if detail else ""))
