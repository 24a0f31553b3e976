"""Central registry of stream-hint keys (paper Section IV.B.1 knobs).

Every ``<method>`` parameter the FLEXPATH stream method understands is
declared here exactly once: its key, its value type, its default, and —
for enumerated hints — the admissible values.  Consumers
(:mod:`repro.core.stream`, :mod:`repro.core.api`, the examples, the
chaos harness) reference the module-level key constants instead of
scattering string literals, and :func:`validate_keys` turns a typo like
``cachign=ALL`` into a hard error with a suggestion instead of a
silently-ignored hint.  :class:`StreamHints` is the registry read off
one ``<method>`` element: a field per key, every default the registry's.

The registry is also the ground truth for the FlexLint FXL002 rule
(:mod:`repro.analysis.flexlint`): any hint-key literal used at a call
site that is not declared here fails the lint.

Use :func:`stream_params` to build the ``key=value;key=value`` parameter
string of a ``<method>`` element programmatically::

    from repro.core.hints import CACHING_ALL, stream_params

    params = stream_params(caching=CACHING_ALL, batching=True)
    # -> "caching=all;batching=true"
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from repro.adios.api import AdiosError
from repro.adios.config import AGGREGATORS, MethodSpec
from repro.core.redistribution import CachingOption


class StreamError(AdiosError):
    """Misuse of a stream: of its protocol, or of its ``<method>`` line."""


class UnknownHintError(ValueError):
    """A hint key that no registered method parameter declares."""

    def __init__(self, key: str, suggestion: Optional[str] = None,
                 context: str = "") -> None:
        msg = f"unknown stream hint {key!r}"
        if context:
            msg += f" ({context})"
        if suggestion:
            msg += f"; did you mean {suggestion!r}?"
        super().__init__(msg)
        self.key = key
        self.suggestion = suggestion


class HintValueError(StreamError, ValueError):
    """A hint value outside the registered choices for its key."""


@dataclass(frozen=True)
class HintSpec:
    """Declaration of one ``<method>`` hint parameter."""

    key: str
    #: Value type: ``str`` / ``bool`` / ``int`` / ``float`` / ``enum``.
    kind: str
    default: Any
    description: str
    #: Admissible (lower-cased) values when ``kind == "enum"``.
    choices: Optional[tuple[str, ...]] = None


# ---------------------------------------------------------------------------
# Key constants — the only place hint-key strings are spelled out.
# ---------------------------------------------------------------------------

CACHING = "caching"
BATCHING = "batching"
SYNC = "sync"
XPMEM = "xpmem"
TRACE = "trace"
QUEUE_DEPTH = "queue_depth"
TRANSPORT = "transport"
TRANSACTIONAL = "transactional"
MAX_RETRIES = "max_retries"
RETRY_TIMEOUT = "retry_timeout"
RETRY_JITTER = "retry_jitter"
FAULTS = "faults"
LEASE = "lease"
FUSED = "fused"
# AGGREGATORS (the MPI_AGGREGATE parameter) is imported above from
# repro.adios.config, the layer of the file method that reads it.
#: ``STAGING`` method parameters: the daemon's ``host:port`` and the tenant.
DAEMON = "daemon"
TENANT = "tenant"
#: Environment variable a ``STAGING`` method reads its bearer token from.
TOKEN_ENV = "FLEXIO_TOKEN"

#: Values of the ``caching`` hint (handshake-protocol levels).
CACHING_NONE = "none"
CACHING_LOCAL = "local"
CACHING_ALL = "all"

#: The one value of the ``transport`` hint: in process a sealed step is
#: delivered by reference, on the shm rung.
TRANSPORT_SHM = "shm"

#: Method names that select the FLEXPATH stream engine.
STREAM_METHODS = ("FLEXPATH", "FLEXIO")


_STREAM_SPECS = (
    HintSpec(CACHING, "enum", CACHING_NONE,
             "Handshake plan caching: none / local / all.",
             choices=(CACHING_NONE, CACHING_LOCAL, CACHING_ALL)),
    HintSpec(BATCHING, "bool", False,
             "Aggregate every variable of a step into one handshake round."),
    HintSpec(SYNC, "bool", False,
             "Block the writer until its step is committed or lost; "
             "without it a step that waits for a retry is queued and "
             "end_step returns."),
    HintSpec(XPMEM, "bool", False,
             "Accepted for existing <method> lines; nothing reads it: the "
             "in-process drain always delivers a sealed step's arrays by "
             "reference, so an array handed to write() is the run's while "
             "the stream retains the step (WriteHandle.write)."),
    HintSpec(TRACE, "bool", False,
             "Enable span tracing on the stream's monitor."),
    HintSpec(QUEUE_DEPTH, "int", 2,
             "Bounded depth of the queue of steps waiting for a retry "
             "(a step whose first attempt faulted, and those sealed "
             "behind it); a full queue blocks the writer."),
    HintSpec(TRANSPORT, "enum", TRANSPORT_SHM,
             "Accepted for existing <method> lines, with the one choice "
             "shm: the in-process drain delivers a sealed step by reference.",
             choices=(TRANSPORT_SHM,)),
    HintSpec(TRANSACTIONAL, "bool", False,
             "All-or-nothing step visibility via 2PC across ranks."),
    HintSpec(MAX_RETRIES, "int", 3,
             "Bounded retries per step drain."),
    HintSpec(RETRY_TIMEOUT, "float", 0.25,
             "Backoff base delay (seconds) of the drain's retries."),
    HintSpec(RETRY_JITTER, "float", 0.1,
             "Jitter fraction added to backoff delays."),
    HintSpec(FAULTS, "str", "",
             "Fault-injection schedule, e.g. rate=0.1,seed=7,kinds=timeout."),
    HintSpec(LEASE, "float", 0.0,
             "Directory lease in seconds (0 = no lease)."),
    HintSpec(FUSED, "bool", True,
             "Fuse compilable plug-in chains into the redistribution "
             "plan (single-pass reads); false keeps the interpreted pass."),
)

#: The FLEXPATH stream method's hints, keyed by hint name.
STREAM_HINTS: dict[str, HintSpec] = {s.key: s for s in _STREAM_SPECS}

#: Per-method hint registries (methods not listed accept free-form params).
METHOD_HINTS: dict[str, dict[str, HintSpec]] = {
    **{m: STREAM_HINTS for m in STREAM_METHODS},
    "MPI_AGGREGATE": {
        AGGREGATORS: HintSpec(
            AGGREGATORS, "int", 0,
            "Aggregator processes for the MPI_AGGREGATE file method."),
    },
    "STAGING": {
        DAEMON: HintSpec(DAEMON, "str", "",
                         "host:port of the staging daemon's control port."),
        TENANT: HintSpec(TENANT, "str", "public",
                         f"Tenant of the daemon to stage through (token: ${TOKEN_ENV})."),
    },
}


def known_keys(method: Optional[str] = None) -> frozenset[str]:
    """Hint keys registered for ``method`` (or for every method)."""
    if method is not None:
        return frozenset(METHOD_HINTS.get(method, {}))
    keys: set[str] = set()
    for registry in METHOD_HINTS.values():
        keys.update(registry)
    return frozenset(keys)


def suggest(key: str, method: Optional[str] = None) -> Optional[str]:
    """The closest registered key to a misspelled one, if any."""
    matches = difflib.get_close_matches(key, sorted(known_keys(method)), n=1)
    return matches[0] if matches else None


def validate_keys(
    keys: Iterable[str], method: str = "FLEXPATH", context: str = ""
) -> None:
    """Raise :class:`UnknownHintError` for any key the method ignores."""
    registry = METHOD_HINTS.get(method)
    if registry is None:
        return  # free-form method (e.g. BP): nothing to check against
    for key in keys:
        if key not in registry:
            raise UnknownHintError(key, suggest(key, method), context=context)


def validate_spec(spec) -> None:
    """Validate a :class:`~repro.adios.config.MethodSpec` (duck-typed:
    only ``.method`` and ``.parameters`` are read) against the registry."""
    validate_keys(
        spec.parameters, method=spec.method,
        context=f"method {spec.method} for group {getattr(spec, 'group', '?')!r}",
    )


def validate_config(config) -> None:
    """Validate every method binding of an
    :class:`~repro.adios.config.AdiosConfig` (duck-typed: ``.methods``)."""
    for spec in getattr(config, "methods", {}).values():
        validate_spec(spec)


def _choice(spec: HintSpec, text: str) -> str:
    """An ``enum`` hint's value as the registry spells it — the one check
    of a value against :attr:`HintSpec.choices`."""
    value = text.strip().lower()
    if value not in spec.choices:
        raise HintValueError(
            f"hint {spec.key}={text!r}: expected one of {'/'.join(spec.choices)}"
        )
    return value


def _format_value(spec: HintSpec, value: Any) -> str:
    if spec.kind == "bool":
        if isinstance(value, str):
            return value
        return "true" if value else "false"
    text = str(value)
    if spec.kind == "enum":
        _choice(spec, text)
    return text


def stream_params(_method: str = "FLEXPATH", **hints: Any) -> str:
    """Build the ``key=value;key=value`` parameter string of a
    ``<method>`` element from registered hint keys.

    Keys are validated against the method's registry (a typo raises
    :class:`UnknownHintError` at build time, not silently at run time);
    booleans serialize as ``true``/``false``; enum values are checked
    against their registered choices.
    """
    pieces = []
    registry = METHOD_HINTS.get(_method, STREAM_HINTS)
    for key, value in hints.items():
        spec = registry.get(key)
        if spec is None:
            raise UnknownHintError(key, suggest(key, _method),
                                   context=f"stream_params for {_method}")
        pieces.append(f"{key}={_format_value(spec, value)}")
    return ";".join(pieces)


def defaults(method: str = "FLEXPATH") -> Mapping[str, Any]:
    """The registered default value of every hint of ``method``."""
    return {k: s.default for k, s in METHOD_HINTS.get(method, {}).items()}


#: The registry's defaults: :class:`StreamHints` restates none of them.
_DEFAULTS = defaults()

#: How each registered hint kind is read off a ``<method>`` element.
_HINT_READERS = {
    "bool": MethodSpec.param_bool,
    "int": MethodSpec.param_int,
    "float": MethodSpec.param_float,
    "str": lambda spec, key, default: spec.param(key, default) or default,
    "enum": lambda spec, key, default: _choice(
        STREAM_HINTS[key], spec.param(key, default) or default
    ),
}


@dataclass(frozen=True)
class StreamHints:
    """Transport tuning hints parsed from the XML ``<method>`` parameters.

    The paper's Section IV.B.1 knobs: handshake caching, variable
    batching, synchronous vs asynchronous writes, and the buffering
    depth — ``queue_depth``, the drainer thread's queue of steps
    waiting for a retry (the back-pressure point: a step that commits
    at its seal never enters it).
    One field per key of :data:`STREAM_HINTS`, which owns every default
    and every ``enum`` hint's admissible values.  ``xpmem`` and
    ``transport`` are parsed and read by nothing: the in-process drain
    always delivers a sealed step by reference.
    """

    caching: CachingOption = CachingOption(_DEFAULTS[CACHING])
    batching: bool = _DEFAULTS[BATCHING]
    sync: bool = _DEFAULTS[SYNC]
    xpmem: bool = _DEFAULTS[XPMEM]
    #: Enable span tracing on the stream's monitor (``trace=true``).
    trace: bool = _DEFAULTS[TRACE]
    #: Bounded depth of the queue of steps waiting for a retry
    #: (back-pressure point).
    queue_depth: int = _DEFAULTS[QUEUE_DEPTH]
    #: Always ``shm``: the in-process drain delivers by reference.
    transport: str = _DEFAULTS[TRANSPORT]
    #: All-or-nothing step visibility via two-phase commit across ranks.
    transactional: bool = _DEFAULTS[TRANSACTIONAL]
    #: Bounded retries per step drain (paper's timeout-and-retry).
    max_retries: int = _DEFAULTS[MAX_RETRIES]
    #: Backoff base delay (seconds) of the drain's retries.
    retry_timeout: float = _DEFAULTS[RETRY_TIMEOUT]
    #: Jitter fraction added to backoff delays (decorrelates ranks).
    retry_jitter: float = _DEFAULTS[RETRY_JITTER]
    #: Fault-injection schedule the drain consults once per delivery
    #: attempt (chaos testing), e.g. ``rate=0.1,seed=7,kinds=timeout|torn``.
    faults: str = _DEFAULTS[FAULTS]
    #: Directory lease in seconds; the writer must heartbeat within it or
    #: the failure detector ends the stream for readers (0 = no lease).
    lease: float = _DEFAULTS[LEASE]
    #: Fuse compilable plug-in chains into the redistribution plan so
    #: reads run the chain while scattering (single pass); ``false``
    #: keeps the classic interpreted pass over materialized arrays.
    fused: bool = _DEFAULTS[FUSED]

    @classmethod
    def from_spec(cls, spec: MethodSpec) -> "StreamHints":
        # Unknown keys are a hard error with a suggestion (the registry
        # is the single source of hint truth), not a silently-ignored
        # parameter as in the old scattered-literal days.
        validate_spec(spec)
        values = {
            key: _HINT_READERS[hint.kind](spec, key, hint.default)
            for key, hint in STREAM_HINTS.items()
        }
        values[CACHING] = CachingOption(values[CACHING])
        return cls(**values)
