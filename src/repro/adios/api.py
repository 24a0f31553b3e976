"""The ADIOS-style step-oriented open/write/close API with pluggable methods.

The central property FlexIO inherits (paper Section II.B): application
code is written once against this API, and the *method* bound to a group
in the XML config decides whether data lands in a BP file (file mode) or
streams memory-to-memory to online analytics (stream mode, registered by
:mod:`repro.core.stream` under the name ``FLEXPATH``).  Read code is
likewise mode-agnostic: stream readers see ``EndOfStream`` when the writer
closes, file readers when steps run out.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.adios.bp import BpReader, BpWriter
from repro.adios.config import AdiosConfig, MethodSpec
from repro.adios.model import Group
from repro.adios.selection import BoundingBox, Selection


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


class WriteHandle(abc.ABC):
    """Per-rank write side of one opened file/stream.

    The step-oriented API is ``begin_step() … write() … end_step()``.
    (The pre-redesign ``advance()`` alias is gone; methods implement the
    private :meth:`_advance` step seal instead — FlexLint FXL008 flags
    any caller still spelling the legacy name.)
    """

    _step_open = False

    @abc.abstractmethod
    def write(
        self,
        name: str,
        data: np.ndarray,
        box: Optional[BoundingBox] = None,
        global_shape: Optional[Sequence[int]] = None,
    ) -> None: ...

    @abc.abstractmethod
    def _advance(self) -> None:
        """Seal this rank's current output step (method-internal)."""

    def begin_step(self) -> StepStatus:
        """Open a new output step (ADIOS2-style)."""
        if self._step_open:
            raise AdiosError("begin_step while a step is open; call end_step first")
        self._step_open = True
        return StepStatus.OK

    def end_step(self, **kwargs: Any) -> StepStatus:
        """Seal the current output step."""
        self._step_open = False
        self._advance(**kwargs)
        return StepStatus.OK

    @abc.abstractmethod
    def close(self) -> None: ...

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


def register_method(name: str, factory: Callable[[], IoMethod]) -> None:
    """Register an I/O method under its config-file name."""
    _METHODS[name.upper()] = factory


def _resolve_method(name: str) -> IoMethod:
    factory = _METHODS.get(name.upper())
    if factory is None:
        raise AdiosError(
            f"unknown I/O method {name!r}; registered: {sorted(_METHODS)}"
        )
    return factory()


# ---------------------------------------------------------------------------
# BP file method
# ---------------------------------------------------------------------------

class _SharedBpState:
    """All ranks of one program share one BP-lite writer per path."""

    def __init__(self, path: str) -> None:
        self.writer = BpWriter(path)
        self.writer.begin_step()
        self.open_ranks: set[int] = set()
        self.advanced: set[int] = set()
        self.closed_ranks: set[int] = set()


class _BpWriteHandle(WriteHandle):
    def __init__(self, state: _SharedBpState, ctx: RankContext) -> None:
        self._state = state
        self._ctx = ctx
        self._closed = False
        state.open_ranks.add(ctx.rank)

    def write(self, name, data, box=None, global_shape=None):
        if self._closed:
            raise AdiosError("write after close")
        self._state.writer.write(self._ctx.rank, name, data, box, global_shape)

    def _advance(self):
        if self._closed:
            raise AdiosError("end_step after close")
        st = self._state
        st.advanced.add(self._ctx.rank)
        # Step boundary once every open rank has advanced (implicit barrier).
        if st.advanced >= (st.open_ranks - st.closed_ranks):
            st.writer.end_step()
            st.writer.begin_step()
            st.advanced.clear()

    def close(self):
        if self._closed:
            return
        self._closed = True
        st = self._state
        st.closed_ranks.add(self._ctx.rank)
        st.advanced.discard(self._ctx.rank)
        if st.closed_ranks >= st.open_ranks:
            st.writer.close()


class BpFileMethod(IoMethod):
    """ADIOS file mode: variables land in an indexed BP-lite file."""

    _shared: dict[str, _SharedBpState] = {}

    def open_write(self, name, group, ctx, spec):
        state = self._shared.get(name)
        if state is None or state.writer._closed:
            state = _SharedBpState(name)
            self._shared[name] = state
        return _BpWriteHandle(state, ctx)

    def open_read(self, name, group, ctx, spec):
        # Function-local import: the reader is repro.core's, a layer above.
        from repro.core.filereader import FileReadHandle

        return FileReadHandle([BpReader(name)])


register_method("BP", BpFileMethod)
register_method("POSIX", BpFileMethod)
register_method("MPI", BpFileMethod)  # paper: MPI-IO/HDF5/NetCDF methods all
register_method("HDF5", BpFileMethod)  # funnel into the same file substrate
register_method("NETCDF", BpFileMethod)


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
