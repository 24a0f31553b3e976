"""The ADIOS-style step-oriented open/write/close API with pluggable methods.

The central property FlexIO inherits (paper Section II.B): application
code is written once against this API, and the *method* bound to a group
in the XML config decides whether data lands in a BP file (file mode) or
streams memory-to-memory to online analytics (stream mode, registered by
:mod:`repro.core.stream` under the name ``FLEXPATH``).  Read code is
likewise mode-agnostic: stream readers see ``EndOfStream`` when the writer
closes, file readers when steps run out.

Writes are one path on every method: each rank writes through a
:class:`WriteHandle` over the :class:`Run` all ranks of a program share
— the stream's ``StreamState``, a :class:`FileRun` of BP-lite files,
the daemon's ``HostedStream`` — whose :class:`StepBarrier` ends its
steps and whose writer-side chain conditions them.
"""

from __future__ import annotations

import abc
import importlib
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from repro.adios.config import AdiosConfig, MethodSpec
from repro.adios.model import Group, WrittenVar
from repro.adios.selection import BoundingBox, Selection

if TYPE_CHECKING:
    from repro.adios.bp import BpWriter


class AdiosError(RuntimeError):
    """API misuse or method failure."""


class EndOfStream(Exception):
    """The writer closed the stream / no steps remain."""


class StreamFailure(EndOfStream):
    """The stream ended abnormally (writer died, lease expired).

    Still an :class:`EndOfStream` — the stream *is* over — but carries
    the failure reason, and ``begin_step`` reports it as
    :attr:`StepStatus.OtherError` rather than a clean end.
    """


class StepNotReady(Exception):
    """The next step has not been published yet (transient)."""


class StepLost(AdiosError):
    """A step's payload was lost or aborted in movement.

    Raised by reads/advance addressing a step the writer published but
    the data plane could not deliver (retries exhausted, or its
    transaction aborted).  ``begin_step`` maps it to
    :attr:`StepStatus.OtherError` and skips past the lost step, so
    readers see a typed gap — never torn data, never a silent drop.
    """


class VariableNotFound(AdiosError, KeyError):
    """A read named a variable absent from the current step.

    Raised identically by the BP-file and Flexpath methods.  Inherits
    :class:`KeyError` so pre-existing ``except KeyError`` callers keep
    working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return RuntimeError.__str__(self)


class StepStatus(Enum):
    """Result of ``begin_step`` — mirrors ADIOS2's ``adios2::StepStatus``."""

    OK = "ok"
    NotReady = "not_ready"
    EndOfStream = "end_of_stream"
    OtherError = "other_error"


@dataclass(frozen=True)
class RankContext:
    """The caller's identity within its parallel program."""

    rank: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0 or not (0 <= self.rank < self.size):
            raise ValueError(f"invalid rank {self.rank} of {self.size}")


class WriteHandle:
    """One rank's write side of the :class:`Run` all ranks of a program
    share (through a rank's data connection on the daemon), showing its
    ``plugins`` and ``monitor``.  ``begin_step() … write() … end_step()``;
    every method refuses alike a handle used after ``close()`` and a
    block that does not fit its box.
    """

    _step_open = False
    _closed = False

    def __init__(self, run: Any, ctx: RankContext) -> None:
        self._run = run
        self._ctx = ctx
        self.plugins = run.plugins
        self.monitor = run.monitor
        run.join(ctx.rank)

    def write(
        self,
        name: str,
        data: np.ndarray,
        box: Optional[BoundingBox] = None,
        global_shape: Optional[Sequence[int]] = None,
    ) -> None:
        """Add a block of ``name`` to this rank's open step.  On every
        method ``data`` is kept, not copied: it is the run's, and must not
        be modified, until its step ends — on a stream, while the stream
        retains the step.  A rank may write a name more than once in a
        step: each write is a block of its own, reads assemble them by
        box, and ``read_block`` serves the rank's first."""
        if self._closed:
            raise AdiosError("write after close")
        if box is not None and tuple(np.shape(data)) != tuple(box.count):
            raise ValueError(f"data shape {np.shape(data)} != box count {box.count}")
        gshape = tuple(global_shape) if global_shape is not None else None
        self._run.write(self._ctx.rank, WrittenVar(name, np.asarray(data), box, gshape))

    def begin_step(self) -> StepStatus:
        """Open a new output step (ADIOS2-style)."""
        if self._step_open:
            raise AdiosError("begin_step while a step is open; call end_step first")
        self._step_open = True
        return StepStatus.OK

    def end_step(self, **kwargs: Any) -> StepStatus:
        """Seal this rank's current output step."""
        if self._closed:
            raise AdiosError("end_step after close")
        self._step_open = False
        self._run.end_rank_step(self._ctx.rank, **kwargs)
        return StepStatus.OK

    def close(self) -> None:
        """End this rank's part in the run; idempotent."""
        if not self._closed:
            self._closed = True
            self._run.writer_close(self._ctx.rank)

    def __enter__(self) -> "WriteHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def resolve_read_args(
    selection: Optional[Any],
    start: Optional[Sequence[int]],
    count: Optional[Sequence[int]],
) -> tuple[Optional[Any], Optional[Sequence[int]]]:
    """Normalize the keyword-only read arguments.

    Exactly one addressing style per call: either ``selection=`` (a
    :class:`~repro.adios.selection.Selection` /
    :class:`~repro.adios.selection.BoundingBox`) or ``start=``/``count=``
    index tuples.  Returns the ``(start_or_selection, count)`` pair that
    :func:`~repro.adios.selection.resolve_selection` consumes.
    """
    if selection is not None:
        if start is not None or count is not None:
            raise AdiosError(
                "pass either selection= or start=/count=, not both"
            )
        return selection, None
    if isinstance(start, (Selection, BoundingBox)):
        raise AdiosError(
            "selection objects go through the selection= keyword "
            "(start= takes an index tuple)"
        )
    return start, count


class ReadHandle(abc.ABC):
    """Per-rank read side of one opened file/stream.

    The step-oriented API is ``begin_step() → StepStatus`` followed by
    reads and ``end_step()``; ``begin_step`` returns
    :attr:`StepStatus.NotReady` instead of raising when the writer has
    not yet published the next step.  Reads address data with the
    keyword-only ``start=``/``count=`` tuples or ``selection=``.  (The
    pre-redesign ``advance()`` alias is gone; methods implement the
    private :meth:`_advance` instead.)
    """

    _step_active = False
    _step_consumed = False
    #: ``time.monotonic()`` deadline of the timed ``begin_step`` in
    #: progress, for methods whose probe can block; ``None`` otherwise.
    _deadline: Optional[float] = None

    @abc.abstractmethod
    def available_vars(self) -> list[str]: ...

    @abc.abstractmethod
    def read(
        self,
        name: str,
        *,
        start: Optional[Sequence[int]] = None,
        count: Optional[Sequence[int]] = None,
        selection: Optional[Any] = None,
    ) -> np.ndarray:
        """Global-array read at the current step.

        Addressing is keyword-only: ``start=``/``count=`` index tuples,
        or ``selection=`` with a
        :class:`~repro.adios.selection.Selection` /
        :class:`~repro.adios.selection.BoundingBox`.
        """

    @abc.abstractmethod
    def read_into(
        self,
        name: str,
        out: np.ndarray,
        *,
        start: Optional[Sequence[int]] = None,
        count: Optional[Sequence[int]] = None,
        selection: Optional[Any] = None,
    ) -> np.ndarray:
        """Read into a caller-provided array (same addressing as
        :meth:`read`): the selection scatters straight into ``out``."""

    @abc.abstractmethod
    def read_block(self, name: str, writer_rank: int) -> np.ndarray:
        """Process-group-oriented read of one writer's block."""

    @abc.abstractmethod
    def _advance(self) -> None:
        """Move to the next step; raises :class:`EndOfStream` when done
        (method-internal — callers drive :meth:`begin_step`)."""

    @abc.abstractmethod
    def _probe_step(self) -> None:
        """Verify the handle's *current* step is consumable; raises
        :class:`StepNotReady` / :class:`EndOfStream` / :class:`StepLost`."""

    def _wait_ready(self) -> None:
        """Wait, between two probes of a timed ``begin_step``, for
        whatever tells this method a step landed.  Nothing here: a probe
        that itself waits (the net plane's held FETCH) needs no idle,
        and no ``begin_step`` sleeps."""

    def begin_step(self, timeout: Optional[float] = None) -> StepStatus:
        """Position on the next unconsumed step (ADIOS2-style).

        Non-blocking by default: returns :attr:`StepStatus.NotReady`
        when the writer is behind.  With ``timeout`` (seconds), waits
        until ready or the deadline passes.
        """
        if self._step_active:
            raise AdiosError("begin_step while a step is active; call end_step first")
        deadline = None if timeout is None else time.monotonic() + timeout
        self._deadline = deadline
        try:
            while True:
                try:
                    if self._step_consumed:
                        self._advance()
                    else:
                        self._probe_step()
                except StepLost:
                    # The step is permanently gone: report the typed gap
                    # and consume it, so the next begin_step moves past it.
                    self._step_consumed = True
                    return StepStatus.OtherError
                except StreamFailure:
                    return StepStatus.OtherError
                except EndOfStream:
                    return StepStatus.EndOfStream
                except StepNotReady:
                    if deadline is not None and time.monotonic() < deadline:
                        self._wait_ready()
                        continue
                    return StepStatus.NotReady
                self._step_active = True
                self._step_consumed = True
                return StepStatus.OK
        finally:
            self._deadline = None

    def end_step(self) -> StepStatus:
        """Release the current step."""
        if not self._step_active:
            raise AdiosError("end_step without begin_step")
        self._step_active = False
        return StepStatus.OK

    @abc.abstractmethod
    def close(self) -> None: ...

    def __enter__(self) -> "ReadHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class IoMethod(abc.ABC):
    """One transport/format implementation (BP file, FLEXPATH stream, ...)."""

    @abc.abstractmethod
    def open_write(
        self, name: str, group: Group, ctx: RankContext, spec: MethodSpec
    ) -> WriteHandle: ...

    @abc.abstractmethod
    def open_read(
        self, name: str, group: Group, ctx: RankContext, spec: MethodSpec
    ) -> ReadHandle: ...


_METHODS: dict[str, Callable[[], IoMethod]] = {}

#: The module implementing each ``<method>`` name: it is imported on the
#: name's first lookup, and registers the name.  Every method lives a
#: layer above this one, so this table is the one place ``adios`` names
#: ``core`` and ``net`` (DESIGN.md §6).
_METHOD_MODULES = {
    "FLEXPATH": "repro.core.stream",
    "FLEXIO": "repro.core.stream",
    **dict.fromkeys(
        ("BP", "POSIX", "MPI", "HDF5", "NETCDF", "MPI_AGGREGATE", "AGGREGATE"),
        "repro.core.filereader",
    ),
    "STAGING": "repro.net.client",
}


def register_method(name: str, factory: Callable[[], IoMethod]) -> None:
    """Register an I/O method under its config-file name."""
    _METHODS[name.upper()] = factory


def _resolve_method(name: str) -> IoMethod:
    key = name.upper()
    if key not in _METHODS and key in _METHOD_MODULES:
        importlib.import_module(_METHOD_MODULES[key])
    factory = _METHODS.get(key)
    if factory is None:
        raise AdiosError(
            f"unknown I/O method {name!r}; registered: "
            f"{sorted({*_METHODS, *_METHOD_MODULES})}"
        )
    return factory()


# ---------------------------------------------------------------------------
# A run's step barrier, the run, and the file methods' runs
# ---------------------------------------------------------------------------

class StepBarrier:
    """The writer ranks of one run, and the one rule that ends a step.

    A step ends when every joined rank that has not closed has ended it;
    a close that leaves only ranks which already ended the step ends it
    too — with no rank left, that is the last one out, and it ends the
    step only when writes are still waiting for one.  Both calls return
    whether the step ends now, and forget who ended it when it does.
    This class alone writes its three sets.
    """

    def __init__(self) -> None:
        self.joined: set[int] = set()
        self.closed: set[int] = set()
        self.ended: set[int] = set()

    @property
    def live(self) -> set[int]:
        """Joined ranks that have not closed."""
        return self.joined - self.closed

    def join(self, rank: int) -> None:
        self.joined.add(rank)

    def end(self, rank: int) -> bool:
        self.ended.add(rank)
        return self._over()

    def close(self, rank: int, pending: bool) -> bool:
        """``rank`` leaves the run; ``pending``: the open step holds writes."""
        self.closed.add(rank)
        self.ended.discard(rank)
        return self._over() and (pending or bool(self.live))

    def fail(self) -> None:
        """The run failed: forget who ended its open step."""
        self.ended.clear()

    def _over(self) -> bool:
        if self.ended >= self.live:
            self.ended.clear()
            return True
        return False

    def snapshot(self) -> dict:
        """The three sets as sorted lists, for a checkpoint."""
        return {k: sorted(getattr(self, k)) for k in ("joined", "closed", "ended")}

    @classmethod
    def restore(cls, snap: dict) -> "StepBarrier":
        barrier = cls()
        barrier.joined, barrier.closed, barrier.ended = (
            set(map(int, snap[k])) for k in ("joined", "closed", "ended"))
        return barrier


class Run:
    """What all writer ranks of a program share, on every method: the
    stream's ``StreamState``, a :class:`FileRun`, the daemon's
    ``HostedStream``.  A rank's writes wait in ``open_step`` (rank ->
    entries, in landing order) until the :class:`StepBarrier` ends the
    step; the host's :meth:`_seal` takes it, ranks in order, and the last
    rank out calls :meth:`_finish`, even when that seal raised.
    ``plugins`` (its monitor is the run's) conditions a rank's blocks
    through :func:`condition`.

    A run may hold a liveness lease (:meth:`hold_lease`): every
    :meth:`beat` moves its ``deadline`` a whole ``lease`` period on, and
    a run :meth:`lapsed` past it is the stream's reaper's to fail.  This
    class alone writes the deadline.
    """

    def __init__(self, plugins: Any) -> None:
        self.plugins = plugins
        self.monitor = plugins.monitor
        self.barrier = StepBarrier()
        self.open_step: dict[int, list] = {}
        #: Lease period in seconds (None: the run never lapses), and its
        #: deadline on ``clock``.
        self.lease: Optional[float] = None
        self.deadline: Optional[float] = None
        self.clock: Callable[[], float] = time.monotonic

    def hold_lease(self, period: Optional[float], clock: Callable[[], float],
                   remaining: Optional[float] = None) -> None:
        """Hold the run under a lease of ``period`` seconds on ``clock``
        (None: no lease).  Its first deadline is a whole period away, or
        ``remaining`` seconds: a restored lease goes on where it was.  The
        period comes from a hint or the wire, so a non-positive one is
        refused."""
        if period is not None and period <= 0:
            raise ValueError("lease must be positive (or None for no lease)")
        self.lease, self.clock = period, clock
        if period is not None:
            self.deadline = clock() + (period if remaining is None else remaining)

    def beat(self) -> None:
        """The writer is alive: its lease runs a whole period from now."""
        if self.lease is not None:
            self.deadline = self.clock() + self.lease

    def lapsed(self) -> bool:
        """The lease is strictly past its deadline."""
        return self.deadline is not None and self.clock() > self.deadline

    def join(self, rank: int) -> None:
        self.barrier.join(rank)

    def write(self, rank: int, entry: Any) -> None:
        self.open_step.setdefault(rank, []).append(entry)

    def end_rank_step(self, rank: int, **seal: Any) -> None:
        if self.barrier.end(rank):
            self._seal_open(**seal)

    def writer_close(self, rank: int) -> None:
        try:
            if self.barrier.close(rank, pending=bool(self.open_step)):
                self._seal_open()
        finally:
            if not self.barrier.live:
                self._finish()

    def fail(self, reason: str) -> None:
        """The run failed: its open step is dropped, and who ended it too."""
        self.open_step = {}
        self.barrier.fail()

    def _seal_open(self, **seal: Any) -> None:
        step, self.open_step = self.open_step, {}
        self._seal(sorted(step.items()), **seal)

    def _seal(self, step: list[tuple[int, list]], **seal: Any) -> None:
        raise NotImplementedError  # where an ended step, (rank, entries) pairs, goes

    def _finish(self) -> None:
        raise NotImplementedError  # what ending the run means


def condition(plugins: Any, blocks: list[WrittenVar]) -> list[WrittenVar]:
    """One rank's blocks of a step through the writer-side chain (none:
    the blocks), for every run's seal and the net writer's publish."""
    return plugins.condition(blocks) if plugins.conditions else blocks


class FileRun(Run):
    """One run of a file method: the BP-lite files every rank writes.

    ``writers`` is one file, or one subfile per aggregator;
    ``writer_of(rank)`` indexes the one a rank's blocks go to, and
    ``on_finish(run)`` runs once the last rank has closed and every file
    is complete (the aggregated method writes its manifest there).
    """

    def __init__(
        self,
        plugins: Any,
        writers: Sequence[BpWriter],
        writer_of: Callable[[int], int] = lambda rank: 0,
        on_finish: Callable[["FileRun"], None] = lambda run: None,
    ) -> None:
        super().__init__(plugins)
        self.writers = list(writers)
        self.writer_of = writer_of
        self.on_finish = on_finish
        for w in self.writers:
            w.begin_step()

    def _seal(self, step: list[tuple[int, list]]) -> None:
        for rank, blocks in step:
            bp = self.writers[self.writer_of(rank)]
            for wv in condition(self.plugins, blocks):
                bp.write(rank, wv.name, wv.data, wv.box, wv.global_shape)
        for w in self.writers:
            w.end_step()
            w.begin_step()

    def _finish(self) -> None:
        for w in self.writers:  # closing a file ends its open step
            w.close()
        self.on_finish(self)


#: Live file runs by the path they write: every rank opening one path
#: joins the same run until its last rank closes.
_FILE_RUNS: dict[str, FileRun] = {}


def file_run(path: str, make: Callable[[], FileRun]) -> FileRun:
    """The run writing ``path`` while one of its ranks is open, else ``make()``."""
    run = _FILE_RUNS.get(path)
    if run is None or not run.barrier.live:
        run = _FILE_RUNS[path] = make()
    return run


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------

class Adios:
    """Entry point bound to one configuration document."""

    def __init__(self, config: AdiosConfig) -> None:
        self.config = config

    @classmethod
    def from_xml(cls, text: str) -> "Adios":
        return cls(AdiosConfig.from_xml(text))

    def open_write(self, group_name: str, name: str, ctx: RankContext) -> WriteHandle:
        """Open ``name`` (a path in file mode, a stream name otherwise)."""
        group = self.config.group(group_name)
        spec = self.config.method_for(group_name)
        return _resolve_method(spec.method).open_write(name, group, ctx, spec)

    def open_read(self, group_name: str, name: str, ctx: RankContext) -> ReadHandle:
        group = self.config.group(group_name)
        spec = self.config.method_for(group_name)
        return _resolve_method(spec.method).open_read(name, group, ctx, spec)
