"""The claims FlexLint's table-driven rule checks, as data.

Three tables, one row per claim, read by one walk over each file
(:func:`repro.analysis.flexlint.lint_paths`):

* :data:`OWNERS` — "X is done only in Y": a call or an attribute write,
  and the scopes allowed to make it;
* :data:`REGISTRIES` — "the name a call passes is registered in R";
* :data:`LAYERS` — "package P imports only these packages", drawn in
  DESIGN.md §6 (``tests/test_docs.py`` holds the drawing to the table).

Nothing here imports the program: a vocabulary is named as
``module:attribute`` and loaded when a file is linted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Owner:
    """Calls or attribute writes only ``scopes`` may make.

    A pattern is the dotted text of a callee (it ends in ``()``:
    ``*.commit()``) or of a written attribute (``*barrier.joined``), in
    :mod:`fnmatch` syntax; a write is an assignment, an augmented
    assignment, a ``del``, or a mutating call (``.add()``, ``.clear()``,
    ...) on the attribute.  A scope is ``module[:qualname]``: a path
    suffix under ``repro/`` (a directory ends in ``/``), narrowed to what
    a class or function of that name encloses; no scope is nowhere.
    """

    rule: str
    patterns: tuple[str, ...]
    scopes: tuple[str, ...]
    #: What the finding says after the offending text.
    why: str


OWNERS: tuple[Owner, ...] = (
    Owner("FXL004", ("*.commit()", "*._commit()"), ("core/drain.py:_drain_one",),
          "is called outside the retry/2PC path; route step visibility "
          "through the drain pipeline"),
    Owner("FXL008", ("*.advance()",), (),
          "was removed; writers call end_step(), readers drive "
          "begin_step()/end_step()"),
    Owner("FXL014", ("*.fn()", "*.mask_fn()", "*._func()"),
          ("core/plugins.py", "core/redistribution.py"),
          "invokes a plug-in kernel outside the executor; go through "
          "apply()/apply_side() or a chain cursor so accounting and fusion "
          "equivalence hold"),
    Owner("FXL015", ("*barrier.joined", "*barrier.closed", "*barrier.ended"),
          ("adios/api.py:StepBarrier",),
          "writes a run's rank sets; StepBarrier's join/end/close/fail/"
          "restore are their one writer"),
    Owner("FXL015", ("*barrier.join()", "*barrier.end()", "*barrier.close()",
                     "*barrier.fail()"), ("adios/api.py:Run",),
          "drives a step barrier outside Run: every run ends its steps by one rule"),
    Owner("FXL015", ("*.deadline",), ("adios/api.py:Run",),
          "writes a run's lease deadline; Run's hold_lease/beat are its one "
          "writer, so both planes' leases lapse by one rule"),
    Owner("FXL015", ("*.condition()",), ("adios/api.py:condition",),
          "runs a writer-side chain outside adios.api.condition"),
    # A run's chain is made by whatever owns the run on its plane — in
    # process, on the daemon, for the file methods — and mirrored, once per
    # session, by the net client: never per handle.
    Owner("FXL015", ("PluginManager()", "*.PluginManager()"),
          ("core/stream.py:StreamState", "net/server.py:HostedStream",
           "core/filereader.py", "net/client.py:_RunChain"),
          "builds a DC chain outside a run's owner; the chain is the run's "
          "on every plane, so every handle shows that one"),
    Owner("FXL015", ("os.memfd_create()", "mmap.mmap()"), ("transport/shm.py",),
          "maps shared memory outside the shm rung's arena"),
    # Reference counts judge reuse: a buffer is free when nothing else
    # holds it.  One reader of them, beside the buffers it reuses.
    Owner("FXL015", ("getrefcount()", "*.getrefcount()"), ("core/reader.py",),
          "reads a reference count outside the read path's result buffers"),
    # Test doubles stand in for the socket the frame assembler reads.
    Owner("FXL015", ("*.recv_into()",), ("transport/tcp.py", "tests/"),
          "reads a socket outside TcpChannel's frame assembly"),
    # Tests read frames by hand to check what went over the wire.
    Owner("FXL015", ("decode_frame()", "*.decode_frame()"),
          ("net/client.py:_exchange", "net/server.py:_handler", "tests/"),
          "decodes a frame outside the client's one exchange and the "
          "daemon's connection states: every request is sent, answered and "
          "typed one way"),
)


@dataclass(frozen=True)
class Registry:
    """Calls whose name argument must be registered.

    The name is the argument at ``position`` or passed as one of
    ``keywords`` (``**``: the name of every keyword argument not starting
    with ``_``); each branch of a conditional is checked on its own.  A
    name is registered when it is in ``vocab`` or equals or extends
    (``root.anything``) one of ``families``; both are ``module:attribute``
    loaders (a callable attribute is called), or a fixture's own set.
    With ``dynamic``, a string built on the spot (an f-string, a
    concatenation) is a finding too; a reference — a name, an attribute,
    a call such as ``metric_name()`` — is checked at run time.
    """

    rule: str
    what: str
    callees: tuple[str, ...]
    position: Optional[int]
    keywords: tuple[str, ...]
    vocab: Union[str, frozenset]
    families: Union[str, tuple] = ()
    dynamic: bool = False


REGISTRIES: tuple[Registry, ...] = (
    Registry("FXL002", "hint key", ("param", "param_bool", "param_int", "param_float"),
             0, ("key",), "repro.core.hints:known_keys"),
    Registry("FXL002", "hint key", ("stream_params",),
             None, ("**",), "repro.core.hints:known_keys"),
    Registry("FXL007", "event code", ("record",),
             0, ("code", "category"), "repro.obs.events:EVENT_CODES", dynamic=True),
    Registry("FXL013", "metric name", ("counter", "gauge", "histogram"),
             0, ("name",), "repro.obs.names:METRIC_NAMES",
             "repro.obs.names:FAMILY_ROOTS", dynamic=True),
)


#: Package → the packages it may import: module-level, function-local and
#: ``TYPE_CHECKING`` imports alike.  Every package may import ``util``;
#: ``*`` is any package; ``repro`` is the façade (``repro/__init__.py``).
#: Top layer first.  The one upward reference is a name table, not an
#: import: ``adios/api.py:_METHOD_MODULES`` names each ``<method>``'s module.
LAYERS: dict[str, tuple[str, ...]] = {
    "tools": ("*",),
    "repro": ("core", "net"),
    "figures": ("coupled", "core", "adios", "machine", "transport"),
    "analysis": ("core", "obs"),
    "net": ("core", "adios", "transport", "marshal", "obs"),
    "coupled": ("apps", "core", "adios", "machine", "placement", "transport", "simcore"),
    "apps": ("adios", "placement"),
    "core": ("adios", "transport", "obs", "machine"),
    "adios": ("marshal",),
    "transport": ("obs", "machine"),
    "placement": ("machine",),
    "obs": (),
    "machine": (),
    "marshal": (),
    "simcore": (),
    "util": (),
}
