"""Runtime concurrency sanitizer ("tsan-lite") for the FlexIO data plane.

The SHM transport's SPSC queues are only correct under single-producer /
single-consumer discipline, the stream pipeline hands work to a
background drainer thread that must be joined at shutdown, and a handful
of locks guard shared state.  None of those contracts is enforced by the
type system — this module checks them at run time when enabled:

* **SPSC discipline** — each queue records the first thread that ever
  enqueues (producer) and the first that ever dequeues (consumer); any
  operation from a *different* thread on the same side is a violation.
* **Lock-order inversions** — tracked locks build a global acquisition
  order graph (lockdep-style): observing ``B held while acquiring A``
  after ``A held while acquiring B`` flags a potential deadlock even if
  the run never actually deadlocked.
* **Un-joined drainer threads** — pipeline threads register at start and
  deregister on a successful join; :func:`check_shutdown` flags any
  registered thread still alive (a leaked or wedged drainer).
* **Buffer-lease discipline** — the zero-copy buffer plane
  (:mod:`repro.transport.buffers`) reports lease acquire/release;
  use-after-release and double-release are flagged as they happen, and
  :meth:`Sanitizer.check_leases` flags leases never released (leaked
  pool buffers or registered memory).
* **Mapped-buffer discipline** — a buffer readers must see unchanged is
  digested when lent and checked when it comes back (:meth:`Sanitizer.lend`,
  :meth:`Sanitizer.check_lent`): an xpmem mapping (``xpmem-source-mutated``:
  the writer modified an array it had handed over), a daemon pool slot and
  the slot a reader holds (``net-slot-mutated``: granted while retained or
  pinned).

Enablement: set ``FLEXIO_SANITIZE=1`` in the environment (read lazily on
first use), or call :func:`enable` / :func:`disable` programmatically.
When disabled the cost is one ``None`` check per instrumented operation
and locks are plain :class:`threading.Lock` objects.

The chaos harness (:mod:`repro.tools.chaos`) folds sanitizer violations
into its invariant report, and the test suite exercises the checks
directly (``tests/test_sanitize.py``).
"""

from __future__ import annotations

import os
import sys
import threading
import zlib
from dataclasses import dataclass
from typing import Optional

#: Violation kinds (the ``Violation.kind`` vocabulary).
SPSC_PRODUCER = "spsc-producer"
SPSC_CONSUMER = "spsc-consumer"
LOCK_ORDER = "lock-order"
UNJOINED_THREAD = "unjoined-thread"
LEASE_LEAK = "lease-leak"
LEASE_USE_AFTER_RELEASE = "lease-use-after-release"
LEASE_DOUBLE_RELEASE = "lease-double-release"
XPMEM_SOURCE_MUTATED = "xpmem-source-mutated"
NET_SLOT_MUTATED = "net-slot-mutated"

#: Prefix of the stderr line every violation also prints.
STDERR_MARK = "FLEXIO-SANITIZER"


@dataclass(frozen=True)
class Violation:
    """One detected concurrency-discipline violation."""

    kind: str
    what: str
    details: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.what} — {self.details}"


class SanitizerError(AssertionError):
    """Raised by :func:`assert_clean` when violations were recorded."""


class Sanitizer:
    """Collects violations; one instance is active process-wide."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._violations: list[Violation] = []
        #: (id(obj), side) -> (thread ident, thread name) of first user.
        self._spsc_owner: dict[tuple[int, str], tuple[int, str]] = {}
        self._spsc_flagged: set[tuple[int, str]] = set()
        #: Per-thread stack of held (tracked) lock names.
        self._held = threading.local()
        #: Observed acquisition-order edges: (held, acquired) name pairs.
        self._edges: set[tuple[str, str]] = set()
        self._flagged_edges: set[tuple[str, str]] = set()
        #: Registered pipeline threads: ident -> (thread, label).
        self._threads: dict[int, tuple[threading.Thread, str]] = {}
        #: Outstanding buffer leases: id(lease) -> label.
        self._leases: dict[int, str] = {}

    # -- reporting ---------------------------------------------------------
    def _add(self, kind: str, what: str, details: str) -> None:
        with self._mu:
            self._violations.append(Violation(kind, what, details))
        # Said out loud as well: nobody can ask a daemon in another process.
        print(f"{STDERR_MARK} {kind}: {what} — {details}", file=sys.stderr, flush=True)
        # Lazy import: the sanitizer is imported by the data plane, the
        # recorder by the sanitizer — only at violation time, so module
        # import order stays acyclic.
        from repro.obs import recorder as flight
        from repro.obs.events import EV_SANITIZER

        flight.record(EV_SANITIZER, kind=kind, what=what)

    def _record(self, found: list[Violation]) -> list[Violation]:
        """Keep what an end-of-run check found; the caller reports it."""
        with self._mu:
            self._violations.extend(found)
        return found

    def violations(self) -> list[Violation]:
        with self._mu:
            return list(self._violations)

    def reset(self) -> None:
        """Drop recorded violations and learned state (fresh run)."""
        with self._mu:
            self._violations.clear()
            self._spsc_owner.clear()
            self._spsc_flagged.clear()
            self._edges.clear()
            self._flagged_edges.clear()
            self._threads.clear()
            self._leases.clear()

    def assert_clean(self) -> None:
        vs = self.violations()
        if vs:
            raise SanitizerError(
                f"{len(vs)} sanitizer violation(s):\n"
                + "\n".join(f"  {v}" for v in vs)
            )

    # -- SPSC discipline ---------------------------------------------------
    def note_spsc(self, queue: object, side: str, label: str = "") -> None:
        """One producer- or consumer-side operation on an SPSC queue.

        ``side`` is ``"producer"`` or ``"consumer"``; the first thread
        seen on each side owns it for the queue's lifetime.
        """
        ident = threading.get_ident()
        key = (id(queue), side)
        with self._mu:
            owner = self._spsc_owner.get(key)
            if owner is None:
                self._spsc_owner[key] = (ident, threading.current_thread().name)
                return
            if owner[0] == ident or key in self._spsc_flagged:
                return
            self._spsc_flagged.add(key)
        kind = SPSC_PRODUCER if side == "producer" else SPSC_CONSUMER
        self._add(
            kind,
            label or f"SPSCQueue@{id(queue):#x}",
            f"{side} side used from thread {threading.current_thread().name!r} "
            f"but owned by thread {owner[1]!r} "
            f"(single-{side} discipline violated)",
        )

    # -- lock ordering -----------------------------------------------------
    def _held_stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquiring(self, name: str) -> None:
        """About to acquire a tracked lock; checks order inversions."""
        stack = self._held_stack()
        for held in stack:
            if held == name:
                continue
            edge = (held, name)
            inverse = (name, held)
            with self._mu:
                self._edges.add(edge)
                if inverse in self._edges and edge not in self._flagged_edges:
                    self._flagged_edges.add(edge)
                    self._flagged_edges.add(inverse)
                    flag = True
                else:
                    flag = False
            if flag:
                self._add(
                    LOCK_ORDER,
                    f"{held} -> {name}",
                    f"lock {name!r} acquired while holding {held!r}, but the "
                    f"opposite order was also observed (potential deadlock)",
                )

    def note_acquired(self, name: str) -> None:
        self._held_stack().append(name)

    def note_released(self, name: str) -> None:
        stack = self._held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    # -- pipeline threads --------------------------------------------------
    def note_thread_started(self, thread: threading.Thread, label: str) -> None:
        with self._mu:
            self._threads[thread.ident or id(thread)] = (thread, label)

    def note_thread_joined(self, thread: threading.Thread) -> None:
        with self._mu:
            self._threads.pop(thread.ident or id(thread), None)

    def check_shutdown(self) -> list[Violation]:
        """Flag registered pipeline threads never joined (and still alive).

        Returns the violations added by this check.
        """
        with self._mu:
            leaked = [
                (t, label) for t, label in self._threads.values() if t.is_alive()
            ]
        return self._record([
            Violation(UNJOINED_THREAD, label, f"thread {thread.name!r} still alive "
                      f"at shutdown (drainer never joined)")
            for thread, label in leaked
        ])

    # -- buffer leases -----------------------------------------------------
    def note_lease_acquired(self, lease: object, label: str) -> None:
        """A :class:`~repro.transport.buffers.BufferLease` was taken."""
        with self._mu:
            self._leases[id(lease)] = label

    def note_lease_released(self, lease: object) -> None:
        with self._mu:
            self._leases.pop(id(lease), None)

    def note_lease_use_after_release(self, label: str, what: str) -> None:
        """An access hit a lease (or wire span) after its release."""
        self._add(
            LEASE_USE_AFTER_RELEASE, label,
            f"{what} after release (the buffer may already be reused)",
        )

    def note_lease_double_release(self, label: str) -> None:
        self._add(
            LEASE_DOUBLE_RELEASE, label,
            "released twice (the second release could free a buffer "
            "another lease now owns)",
        )

    def check_leases(self) -> list[Violation]:
        """Flag leases acquired but never released (leaked pool buffers
        or registered memory).  Returns the violations added."""
        with self._mu:
            leaked = sorted(self._leases.values())
        return self._record([
            Violation(LEASE_LEAK, label,
                      "lease never released (pool buffer / registration pinned)")
            for label in leaked
        ])

    # -- mapped buffers ---------------------------------------------------
    @staticmethod
    def lend(*views) -> int:
        """A buffer (``views``: its parts) is handed to readers that must
        see it unchanged — an xpmem mapping, a daemon pool slot, a slot a
        reader holds: its digest, one ``zlib.crc32`` over every part."""
        digest = 0
        for view in views:
            digest = zlib.crc32(view, digest)
        return digest

    def check_lent(self, kind: str, label: str, digest: int, *views) -> None:
        """The lent buffer comes back (or is looked at again): it must
        still hold what :meth:`lend` digested, else a ``kind`` violation."""
        if self.lend(*views) != digest:
            self._add(kind, label, "written while lent out (a reader may see other "
                                   "bytes than were handed over)")


class TrackedLock:
    """A :class:`threading.Lock` that reports acquisition order.

    API-compatible with ``Lock`` for the ``acquire``/``release``/context
    manager surface the transports use.
    """

    __slots__ = ("_lock", "name")

    def __init__(self, name: str) -> None:
        self._lock = threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        san = get()
        if san is not None:
            san.note_acquiring(self.name)
        got = self._lock.acquire(blocking, timeout)
        if got and san is not None:
            san.note_acquired(self.name)
        return got

    def release(self) -> None:
        self._lock.release()
        san = get()
        if san is not None:
            san.note_released(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

_active: Optional[Sanitizer] = None
_env_checked = False
_TRUTHY = ("1", "true", "yes", "on")


def _refresh_from_env(environ=None) -> None:
    global _active, _env_checked
    _env_checked = True
    env = os.environ if environ is None else environ
    if str(env.get("FLEXIO_SANITIZE", "")).strip().lower() in _TRUTHY:
        if _active is None:
            _active = Sanitizer()


def get() -> Optional[Sanitizer]:
    """The active sanitizer, or None when disabled (the common case)."""
    if not _env_checked:
        _refresh_from_env()
    return _active


def enabled() -> bool:
    return get() is not None


def enable(fresh: bool = True) -> Sanitizer:
    """Activate the sanitizer programmatically; returns the instance."""
    global _active, _env_checked
    _env_checked = True
    if _active is None or fresh:
        _active = Sanitizer()
    return _active


def disable() -> None:
    """Deactivate (instrumented objects constructed earlier keep their
    captured reference but stop reporting through ``get()`` consumers)."""
    global _active, _env_checked
    _env_checked = True
    _active = None


def make_lock(name: str):
    """A lock for ``name``: tracked when the sanitizer is active at
    construction time, a plain :class:`threading.Lock` otherwise."""
    return TrackedLock(name) if get() is not None else threading.Lock()
