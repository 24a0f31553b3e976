"""The FlexIO façade: one object tying configuration, streams, and runtime.

Typical use (see ``examples/quickstart.py``)::

    flexio = FlexIO.from_xml(CONFIG_XML, machine=smoky(4))
    w = flexio.open_write("particles", "gts.stream", RankContext(0, 4))
    r = flexio.open_read("particles", "gts.stream", RankContext(0, 1))

Whether ``gts.stream`` is a memory-to-memory stream or a BP file on disk
is decided by the ``<method>`` line of the configuration — application
code is identical either way.  :class:`LocalClient` is the same façade
behind ``repro.connect("local://")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.adios.api import Adios, RankContext, ReadHandle, WriteHandle
from repro.adios.config import AdiosConfig
from repro.core.hints import STREAM_METHODS, validate_config
from repro.core.monitoring import PerfMonitor
from repro.core.runtime import FlexIORuntime, NumaBufferPolicy

if TYPE_CHECKING:
    from repro.machine.topology import Machine


class FlexIO:
    """Entry point for applications coupling through FlexIO."""

    def __init__(
        self,
        config: AdiosConfig,
        machine: Optional[Machine] = None,
        numa_policy: NumaBufferPolicy = NumaBufferPolicy.WRITER_LOCAL,
    ) -> None:
        # Fail fast on misspelled <method> hints (registry-validated)
        # instead of silently ignoring them at stream-open time.
        validate_config(config)
        self.config = config
        self.adios = Adios(config)
        self.monitor = PerfMonitor()
        self.runtime = (
            FlexIORuntime(machine, numa_policy) if machine is not None else None
        )

    @classmethod
    def from_xml(cls, text: str, machine: Optional[Machine] = None, **kw) -> "FlexIO":
        return cls(AdiosConfig.from_xml(text), machine=machine, **kw)

    @classmethod
    def from_file(cls, path: str, machine: Optional[Machine] = None, **kw) -> "FlexIO":
        return cls(AdiosConfig.from_file(path), machine=machine, **kw)

    # ------------------------------------------------------------------
    def open_write(self, group: str, name: str, ctx: RankContext) -> WriteHandle:
        """Open ``name`` for writing under ``group``'s configured method."""
        return self.adios.open_write(group, name, ctx)

    def open_read(self, group: str, name: str, ctx: RankContext) -> ReadHandle:
        """Open ``name`` for reading under ``group``'s configured method."""
        return self.adios.open_read(group, name, ctx)

    # ------------------------------------------------------------------
    def method_name(self, group: str) -> str:
        return self.config.method_for(group).method

    def is_stream(self, group: str) -> bool:
        return self.method_name(group) in STREAM_METHODS


# ---------------------------------------------------------------------------
# The in-process client
# ---------------------------------------------------------------------------

#: Group the local client binds stream opens to; variables are declared
#: at write time (the stream method needs no static var list).
LOCAL_GROUP = "flexio"

_LOCAL_CONFIG = """
<adios-config>
  <adios-group name="flexio"/>
  <method group="flexio" method="FLEXPATH">{params}</method>
</adios-config>
"""


class Client:
    """Common context-manager surface of both client kinds."""

    def open(self, name: str, mode: str, **kwargs: Any):
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden
        pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class LocalClient(Client):
    """``local://``: the in-process service, same ``open()`` surface as
    :class:`repro.net.client.RemoteClient`.

    ``config`` overrides the generated single-group stream
    configuration (an :class:`~repro.adios.config.AdiosConfig` or XML
    text); ``params`` sets the stream method's hint string when the
    default configuration is used.
    """

    def __init__(self, config=None, machine=None, params: str = "") -> None:
        if config is None:
            config = _LOCAL_CONFIG.format(params=params)
        if isinstance(config, str):
            config = AdiosConfig.from_xml(config)
        self.flexio = FlexIO(config, machine=machine)
        self._group_default = next(iter(config.groups), LOCAL_GROUP)

    def open(
        self,
        name: str,
        mode: str,
        *,
        group: Optional[str] = None,
        rank: int = 0,
        num_ranks: int = 1,
        **_ignored: Any,
    ):
        ctx = RankContext(rank, num_ranks)
        group = group or self._group_default
        if mode == "w":
            return self.flexio.open_write(group, name, ctx)
        if mode == "r":
            return self.flexio.open_read(group, name, ctx)
        raise ValueError(f"bad open mode {mode!r} (expected 'w' or 'r')")
