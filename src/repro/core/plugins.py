"""Data Conditioning (DC) plug-ins (paper Section II.F).

DC plug-ins are *stateless mobile codelets* created on the reader side to
customize writer-side outputs on the fly: data markup, annotation,
sampling, bounding box, unit conversion, selection.  In FlexIO they are
C-on-demand (CoD) source strings compiled by dynamic binary code
generation and installed into either the simulation's or the analytics'
address space — and migrated between the two at runtime.

Here the codelet language is a *restricted Python subset*, validated by an
AST whitelist before compilation (the analogue of CoD's restricted-C
subset): no imports, no attribute access on dunders, no I/O, no access to
anything beyond the record passed in and a numeric toolbox (`np`, `len`,
`min`, ...).  The codelet must define::

    def condition(vars):
        ...
        return vars

where ``vars`` maps variable names to numpy arrays.

Shipped plug-ins additionally carry a **compilable form** — a
:class:`PluginKernel` describing the codelet's per-block effect on a
single variable.  A chain of kernels lowers to a
:class:`CompiledChain`, which the redistribution layer fuses into the
compiled plan (:class:`repro.core.redistribution.FusedPlan`): the chain
runs *while* wire spans scatter, instead of as a second interpreted pass
over a fully materialized array.  Value-level filters also expose a
:class:`BlockPredicate` (the ``might_match`` index-pruning idiom of
:mod:`repro.adios.query`) that the writer side uses to skip sending
blocks the chain provably drops.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.hints import STAGE_DC_PLUGIN
from repro.core.monitoring import PerfMonitor
from repro.obs.names import (
    F_PLUGIN,
    M_PLUGIN_FUSED_READS,
    M_PLUGIN_INTERPRETED_READS,
    metric_name,
)

# Optional accelerator: kernels JIT-compile when the ``numba`` extra is
# installed; the baseline environment falls back to pure numpy silently.
try:
    from numba import njit as _njit  # type: ignore
except Exception:  # pragma: no cover - numba absent in the baseline env
    _njit = None


def _jit(fn: Callable) -> Callable:
    """numba-compile ``fn`` when importable; silent numpy fallback."""
    if _njit is None:
        return fn
    try:  # pragma: no cover - exercised only with the numba extra
        return _njit(cache=False)(fn)
    # flexlint: ok(FXL001) numba failure must never break the numpy path
    except Exception:
        return fn


def _range_mask(col: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (col >= lo) & (col <= hi)


_range_mask_jit = _jit(_range_mask)


class CodeletError(RuntimeError):
    """Codelet failed validation, compilation, or execution."""


class PluginSide(Enum):
    """Which address space the codelet executes in."""

    WRITER = "writer"
    READER = "reader"


class Capability(Enum):
    """Declared effect class of a kernel — what fusion may assume."""

    #: Drops rows of the targeted variables (sampling, range selection).
    FILTER = "filter"
    #: Elementwise, shape-preserving map (unit conversion).
    TRANSFORM = "transform"
    #: Adds *other* variables; the targeted variable passes unchanged.
    ANNOTATE = "annotate"


_ALLOWED_NODES = {
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Return,
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Pass,
    ast.Name, ast.Load, ast.Store, ast.Del, ast.Delete,
    ast.Subscript, ast.Slice, ast.Index if hasattr(ast, "Index") else ast.Slice,
    ast.Tuple, ast.List, ast.Dict, ast.Set, ast.Constant,
    ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.MatMult, ast.LShift, ast.RShift, ast.BitOr, ast.BitAnd, ast.BitXor,
    ast.USub, ast.UAdd, ast.Invert, ast.Not, ast.And, ast.Or,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Is, ast.IsNot,
    ast.In, ast.NotIn,
    ast.If, ast.For, ast.While, ast.Break, ast.Continue,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.comprehension, ast.Call, ast.keyword, ast.Attribute, ast.Starred,
    ast.JoinedStr, ast.FormattedValue,
}

#: Names the codelet namespace provides (nothing else resolves).
_SAFE_GLOBALS: dict = {
    "np": np,
    "len": len,
    "min": min,
    "max": max,
    "abs": abs,
    "sum": sum,
    "range": range,
    "enumerate": enumerate,
    "zip": zip,
    "float": float,
    "int": int,
    "bool": bool,
    "round": round,
    "sorted": sorted,
    "dict": dict,
    "list": list,
    "tuple": tuple,
}


def _validate(tree: ast.AST, source: str) -> None:
    for node in ast.walk(tree):
        if type(node) not in _ALLOWED_NODES:
            raise CodeletError(
                f"codelet uses forbidden construct {type(node).__name__}"
            )
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            raise CodeletError(f"codelet accesses private attribute {node.attr!r}")
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise CodeletError(f"codelet references dunder name {node.id!r}")
    # Exactly one top-level function named `condition`.
    assert isinstance(tree, ast.Module)
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(funcs) != 1 or funcs[0].name != "condition":
        raise CodeletError("codelet must define exactly one function: condition(vars)")
    if len(funcs[0].args.args) != 1:
        raise CodeletError("condition() must take exactly one argument")
    extra = [n for n in tree.body if not isinstance(n, ast.FunctionDef)]
    if extra:
        raise CodeletError("codelet body must contain only the condition() function")


def _metric_label(name: str) -> str:
    """Plug-in names (``sample/4:zion``) flattened to metric-safe parts."""
    return re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")


@dataclass
class PluginStats:
    """One plug-in's lifetime cost counters.

    The same numbers are mirrored into the stream monitor's metrics
    registry under the ``plugin.*`` family (``plugin.invocations.<name>``
    etc. via :func:`repro.obs.names.metric_name`), which is what
    ``trace``/``monitor`` report; this object remains the in-process
    view used by the adaptive layer's :attr:`DCPlugin.reduction_ratio`.
    """

    invocations: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    exec_time: float = 0.0


# ---------------------------------------------------------------------------
# Compilable kernels and chains
# ---------------------------------------------------------------------------


class PluginKernel:
    """The compilable per-block form of one shipped plug-in.

    A kernel expresses the codelet's effect on a *single block* of a
    single variable — which is what lets the compiled plan run the chain
    while scattering wire spans:

    * ``FILTER`` kernels drop rows, either index-level (``stride``: keep
      every s-th row of the stream flowing into the kernel) or
      value-level (``mask_fn``: boolean row mask);
    * ``TRANSFORM`` kernels map rows elementwise (``fn(arr, out=None)``);
    * ``ANNOTATE`` kernels add *other* variables and are an identity on
      the fused path (``fuse_safe=False`` opts a kernel out of fusion —
      e.g. ``bbox``, whose reduction over an empty selection raises).

    ``might_match(lo, hi)`` answers whether a block whose values lie
    entirely in ``[lo, hi]`` could contribute any row after the filter
    (the :mod:`repro.adios.query` index-pruning idiom, conservatively
    using whole-block bounds); ``map_bounds`` lets transforms ahead of
    the filter keep that predicate sound.  ``pushdown_term`` is the
    kernel's serializable predicate contribution carried to the writer
    side and the net broker.
    """

    __slots__ = (
        "capability", "targets", "requires_target", "fuse_safe",
        "stride", "mask_fn", "might_match", "fn", "map_bounds",
        "fingerprint", "pushdown_term",
    )

    def __init__(
        self,
        capability: Capability,
        *,
        fingerprint: str,
        targets: Sequence[str] = (),
        requires_target: bool = False,
        fuse_safe: bool = True,
        stride: Optional[int] = None,
        mask_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        might_match: Optional[Callable[[float, float], bool]] = None,
        fn: Optional[Callable] = None,
        map_bounds: Optional[Callable[[float, float], tuple]] = None,
        pushdown_term: Optional[dict] = None,
    ) -> None:
        if capability is Capability.FILTER and stride is None and mask_fn is None:
            raise CodeletError("FILTER kernel needs a stride or a mask_fn")
        if capability is Capability.TRANSFORM and fn is None:
            raise CodeletError("TRANSFORM kernel needs fn")
        self.capability = capability
        self.targets = tuple(targets)
        self.requires_target = requires_target
        self.fuse_safe = fuse_safe
        self.stride = int(stride) if stride is not None else None
        self.mask_fn = mask_fn
        self.might_match = might_match
        self.fn = fn
        self.map_bounds = map_bounds
        self.fingerprint = fingerprint
        self.pushdown_term = pushdown_term

    def applies_to(self, name: str) -> bool:
        return not self.targets or name in self.targets


class BlockPredicate:
    """Conservatively-sound, serializable block predicate of a chain.

    Built from the chain's value-level terms in deployment order:
    ``scale`` terms map the block's value bounds through the transform,
    ``range`` terms prune.  :meth:`might_match` returns ``False`` only
    when a block with the given whole-block bounds **provably**
    contributes no row for ``var`` — the pushdown contract.
    """

    _KINDS = ("range", "scale")

    def __init__(self, terms: Sequence[dict]) -> None:
        self.terms = [dict(t) for t in terms]

    def might_match(self, var: str, lo: float, hi: float) -> bool:
        blo, bhi = float(lo), float(hi)
        for t in self.terms:
            if t["var"] != var:
                continue
            if t["kind"] == "scale":
                a, b = blo * t["factor"], bhi * t["factor"]
                blo, bhi = (a, b) if a <= b else (b, a)
            elif bhi < t["lo"] or blo > t["hi"]:
                return False
        return True

    def spec(self) -> str:
        return json.dumps(self.terms, sort_keys=True)

    @classmethod
    def parse(cls, text: str) -> "BlockPredicate":
        try:
            terms = json.loads(text)
        except ValueError as exc:
            raise CodeletError(f"bad predicate spec: {exc}") from exc
        if not isinstance(terms, list):
            raise CodeletError("predicate spec must be a JSON list")
        clean = []
        for t in terms:
            if not isinstance(t, dict) or t.get("kind") not in cls._KINDS:
                raise CodeletError(f"bad predicate term: {t!r}")
            if not isinstance(t.get("var"), str):
                raise CodeletError(f"predicate term needs a var: {t!r}")
            keys = ("factor",) if t["kind"] == "scale" else ("lo", "hi")
            term = {"kind": t["kind"], "var": t["var"]}
            for k in keys:
                term[k] = float(t[k])
            clean.append(term)
        return cls(clean)


def parse_predicate(text: str) -> Optional[BlockPredicate]:
    """Parse a serialized predicate spec; empty text means no predicate."""
    if not text or not text.strip():
        return None
    return BlockPredicate.parse(text)


def combine_predicates(preds: Sequence[BlockPredicate]):
    """A block is needed if *any* registered reader might match it."""
    preds = [p for p in preds if p is not None]
    if not preds:
        return None

    class _Any:
        def might_match(self, var: str, lo: float, hi: float) -> bool:
            return any(p.might_match(var, lo, hi) for p in preds)

    return _Any()


class _ChainCursor:
    """Sequential per-block applier for one variable's fused read.

    Carries, per kernel, the number of rows that already flowed into it
    from earlier blocks, so index-level filters (sampling) keep their
    global phase across the block sequence.  Blocks must arrive in
    ascending row order — the fused plan guarantees it.
    """

    __slots__ = ("chain", "name", "_entered", "_in_bytes", "_out_bytes",
                 "_elapsed")

    def __init__(self, chain: "CompiledChain", name: str) -> None:
        self.chain = chain
        self.name = name
        n = len(chain.pairs)
        self._entered = [0] * n
        self._in_bytes = [0] * n
        self._out_bytes = [0] * n
        self._elapsed = [0.0] * n

    def apply_block(self, arr: np.ndarray) -> np.ndarray:
        for i, (_, k) in enumerate(self.chain.pairs):
            if k.capability is Capability.ANNOTATE or not k.applies_to(self.name):
                continue
            t0 = time.perf_counter()
            nbytes_in = arr.nbytes
            if k.capability is Capability.FILTER:
                if k.stride is not None:
                    phase = (-self._entered[i]) % k.stride
                    self._entered[i] += int(arr.shape[0])
                    arr = arr[phase::k.stride]
                else:
                    arr = arr[k.mask_fn(arr)]
            else:  # TRANSFORM
                arr = k.fn(arr)
            self._elapsed[i] += time.perf_counter() - t0
            self._in_bytes[i] += nbytes_in
            self._out_bytes[i] += arr.nbytes
        return arr

    def apply_block_into(self, arr: np.ndarray, dst: np.ndarray) -> None:
        """Shape-preserving variant: transforms land in ``dst`` directly
        (first with ``out=``, the rest in place) — the ``execute_into``
        half of the fused plan.  Only legal for filter-free chains."""
        wrote = False
        for i, (_, k) in enumerate(self.chain.pairs):
            if k.capability is not Capability.TRANSFORM or not k.applies_to(self.name):
                continue
            t0 = time.perf_counter()
            if wrote:
                k.fn(dst, out=dst)
            else:
                k.fn(arr, out=dst)
                wrote = True
            self._elapsed[i] += time.perf_counter() - t0
            self._in_bytes[i] += arr.nbytes
            self._out_bytes[i] += dst.nbytes
        if not wrote:
            dst[...] = arr

    def finish(self, monitor: Optional[PerfMonitor] = None) -> None:
        """Account one fused read: per-kernel stats + monitor records."""
        for i, (plugin, _) in enumerate(self.chain.pairs):
            plugin._account(
                monitor,
                nbytes_in=self._in_bytes[i],
                nbytes_out=self._out_bytes[i],
                elapsed=self._elapsed[i],
                fused=True,
            )


class CompiledChain:
    """One side's plug-in chain lowered to kernels, in deployment order.

    Exists only when *every* plug-in on the side carries a kernel —
    free-form codelets keep the interpreted path.  ``chain_hash`` is a
    stable digest of the kernel fingerprints; the plan cache appends it
    to its keys so plans fused against different chains never collide.
    """

    __slots__ = ("pairs", "chain_hash")

    def __init__(self, pairs: Sequence[tuple]) -> None:
        self.pairs = list(pairs)
        digest = hashlib.sha1(
            "|".join(k.fingerprint for _, k in self.pairs).encode("utf-8")
        ).hexdigest()
        self.chain_hash = digest[:16]

    def supports(self, name: str) -> bool:
        """Can the chain run fused for reads of variable ``name``?

        A kernel that *requires* its target (range select, unit
        conversion) would raise on the interpreted path when reading any
        other variable, so fusion refuses too; ``fuse_safe=False``
        kernels (bbox) always keep the interpreted path.
        """
        for _, k in self.pairs:
            if not k.fuse_safe:
                return False
            if k.requires_target and name not in k.targets:
                return False
        return True

    def has_filter(self, name: str) -> bool:
        return any(
            k.capability is Capability.FILTER and k.applies_to(name)
            for _, k in self.pairs
        )

    def cursor(self, name: str) -> _ChainCursor:
        return _ChainCursor(self, name)

    def transforms(self, name: str) -> list:
        return [
            (p, k) for p, k in self.pairs
            if k.capability is Capability.TRANSFORM and k.applies_to(name)
        ]

    def block_predicate(self) -> Optional[BlockPredicate]:
        """The chain's writer-side pushdown predicate, if it has one.

        Terms accumulate in deployment order; a transform without a
        bounds map ends accumulation (later filters would be unsound),
        and so does a stride filter: sampling keeps cross-block row
        phase, so a block pruned for a *later* range term would still
        have advanced the sampler's cursor — dropping it before the
        reader ever sees it changes which rows later blocks contribute.
        A stateless per-row mask filter without a term is skipped
        (pruning rows other terms prove dead cannot change its output).
        A chain with no value-level filter has no predicate.
        """
        terms: list[dict] = []
        for _, k in self.pairs:
            if k.capability is Capability.TRANSFORM:
                if k.pushdown_term is None:
                    break
                terms.append(k.pushdown_term)
            elif k.capability is Capability.FILTER:
                if k.stride is not None:
                    break
                if k.pushdown_term is not None:
                    terms.append(k.pushdown_term)
        if not any(t["kind"] == "range" for t in terms):
            return None
        return BlockPredicate(terms)


class DCPlugin:
    """One compiled codelet, deployable on either side of a stream."""

    def __init__(
        self,
        name: str,
        source: str,
        kernel: Optional[PluginKernel] = None,
    ) -> None:
        if not name:
            raise CodeletError("plug-in needs a name")
        self.name = name
        self.source = source
        self.side = PluginSide.READER  # created reader-side by default
        self.stats = PluginStats()
        self.kernel = kernel
        self._metric_label = _metric_label(name)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise CodeletError(f"codelet syntax error: {exc}") from exc
        _validate(tree, source)
        namespace: dict = {"__builtins__": {}}
        namespace.update(_SAFE_GLOBALS)
        try:
            exec(compile(tree, f"<dcplugin:{name}>", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - validation catches most
            raise CodeletError(f"codelet failed to compile: {exc}") from exc
        self._func: Callable[[dict], dict] = namespace["condition"]

    @property
    def capability(self) -> Optional[Capability]:
        return self.kernel.capability if self.kernel is not None else None

    @staticmethod
    def _record_bytes(record: dict) -> int:
        total = 0
        for v in record.values():
            if isinstance(v, np.ndarray):
                total += v.nbytes
        return total

    def _account(
        self,
        monitor: Optional[PerfMonitor],
        *,
        nbytes_in: int,
        nbytes_out: int,
        elapsed: float,
        fused: bool,
    ) -> None:
        """Fold one execution into the stats and the metrics registry."""
        self.stats.invocations += 1
        self.stats.bytes_in += nbytes_in
        self.stats.bytes_out += nbytes_out
        self.stats.exec_time += elapsed
        if monitor is None:
            return
        mm = monitor.metrics
        label = self._metric_label
        mm.counter(metric_name(F_PLUGIN, "invocations", label)).inc()
        mm.counter(metric_name(F_PLUGIN, "bytes_in", label)).inc(nbytes_in)
        mm.counter(metric_name(F_PLUGIN, "bytes_out", label)).inc(nbytes_out)
        mm.counter(metric_name(F_PLUGIN, "exec_ns", label)).inc(
            int(elapsed * 1e9)
        )
        if fused:
            monitor.record(
                STAGE_DC_PLUGIN, self.name, start=0.0, duration=elapsed,
                nbytes=nbytes_in, side=self.side.value, fused=True,
            )

    def apply(self, record: dict, monitor: Optional[PerfMonitor] = None) -> dict:
        """Run the codelet on one record (dict of variable name → array).

        The execution is one measured region: a span nesting under the
        active write/read span of the timestep when that trace is kept,
        the flat measurement point otherwise (tracing off or sampled
        out) — timed and aggregated either way.
        """
        nbytes_in = self._record_bytes(record)
        if monitor:
            cm = monitor.measure("dc_plugin", self.name, nbytes=nbytes_in, side=self.side.value)
            cm.__enter__()
        t0 = time.perf_counter()
        try:
            out = self._func(dict(record))
        except Exception as exc:
            raise CodeletError(f"codelet {self.name!r} raised: {exc!r}") from exc
        finally:
            elapsed = time.perf_counter() - t0
            if monitor:
                cm.__exit__(None, None, None)
        if not isinstance(out, dict):
            raise CodeletError(
                f"codelet {self.name!r} returned {type(out).__name__}, expected dict"
            )
        self._account(
            monitor,
            nbytes_in=nbytes_in,
            nbytes_out=self._record_bytes(out),
            elapsed=elapsed,
            fused=False,
        )
        return out

    @property
    def reduction_ratio(self) -> float:
        """Output bytes / input bytes over the plug-in's lifetime."""
        if self.stats.bytes_in == 0:
            return 1.0
        return self.stats.bytes_out / self.stats.bytes_in


class PluginManager:
    """The per-stream plug-in chain with runtime deployment and migration.

    Deployment of a reader-created plug-in to the writer side travels "a
    communication channel separate from the ones used for data movement"
    (Section II.F) — modelled by the deploy/migrate calls happening outside
    the stream's step flow.
    """

    def __init__(self, monitor: Optional[PerfMonitor] = None) -> None:
        self.monitor = monitor
        self._chain: list[DCPlugin] = []
        self._version = 0
        self._compiled: dict[PluginSide, tuple[int, Optional[CompiledChain]]] = {}

    # ------------------------------------------------------------------
    def deploy(self, plugin: DCPlugin, side: PluginSide = PluginSide.READER) -> DCPlugin:
        if any(p.name == plugin.name for p in self._chain):
            raise CodeletError(f"plug-in {plugin.name!r} already deployed")
        plugin.side = side
        self._chain.append(plugin)
        self._version += 1
        return plugin

    def undeploy(self, name: str) -> DCPlugin:
        for i, p in enumerate(self._chain):
            if p.name == name:
                self._version += 1
                return self._chain.pop(i)
        raise CodeletError(f"no plug-in {name!r} deployed")

    def migrate(self, name: str, to_side: PluginSide) -> DCPlugin:
        """Move a codelet across address spaces at runtime."""
        for p in self._chain:
            if p.name == name:
                p.side = to_side
                self._version += 1
                return p
        raise CodeletError(f"no plug-in {name!r} deployed")

    def plugins(self, side: Optional[PluginSide] = None) -> list[DCPlugin]:
        if side is None:
            return list(self._chain)
        return [p for p in self._chain if p.side == side]

    def has_side(self, side: PluginSide) -> bool:
        """True when at least one plug-in is installed on ``side`` —
        the no-plugin fast path check (skips the dict round-trip)."""
        return any(p.side == side for p in self._chain)

    # -- compiled form --------------------------------------------------
    def compiled_chain(self, side: PluginSide) -> Optional[CompiledChain]:
        """The side's chain lowered to kernels, or ``None`` when empty or
        when any plug-in on the side is a free-form codelet (no kernel).
        Memoized per deploy/undeploy/migrate generation."""
        cached = self._compiled.get(side)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        pairs = [(p, p.kernel) for p in self._chain if p.side == side]
        chain: Optional[CompiledChain] = None
        if pairs and all(k is not None for _, k in pairs):
            chain = CompiledChain(pairs)
        self._compiled[side] = (self._version, chain)
        return chain

    def chain_hash(self, side: PluginSide) -> str:
        chain = self.compiled_chain(side)
        return chain.chain_hash if chain is not None else ""

    def block_predicate(self, side: PluginSide) -> Optional[BlockPredicate]:
        chain = self.compiled_chain(side)
        return chain.block_predicate() if chain is not None else None

    # ------------------------------------------------------------------
    def apply_side(self, side: PluginSide, record: dict) -> dict:
        """Run every codelet installed on ``side``, in deployment order."""
        out = record
        for p in self._chain:
            if p.side == side:
                out = p.apply(out, self.monitor)
        return out

    def count_fused_read(self) -> None:
        if self.monitor is not None:
            self.monitor.metrics.counter(M_PLUGIN_FUSED_READS).inc()

    def count_interpreted_read(self) -> None:
        if self.monitor is not None:
            self.monitor.metrics.counter(M_PLUGIN_INTERPRETED_READS).inc()


# ---------------------------------------------------------------------------
# A library of useful codelets (paper's examples)
# ---------------------------------------------------------------------------

SAMPLING_SRC = """
def condition(vars):
    out = dict(vars)
    only = {only}
    for name in list(out):
        if only and name not in only:
            continue
        v = out[name]
        out[name] = v[::{stride}]
    return out
"""

RANGE_SELECT_SRC = """
def condition(vars):
    v = vars['{var}']
    mask = (v[:, {column}] >= {lo}) & (v[:, {column}] <= {hi})
    out = dict(vars)
    out['{var}'] = v[mask]
    return out
"""

BOUNDING_BOX_SRC = """
def condition(vars):
    out = dict(vars)
    for name in list(out):
        v = out[name]
        out[name + '_bbox_min'] = np.min(v, axis=0)
        out[name + '_bbox_max'] = np.max(v, axis=0)
    return out
"""

UNIT_CONVERSION_SRC = """
def condition(vars):
    out = dict(vars)
    out['{var}'] = vars['{var}'] * {factor}
    return out
"""

ANNOTATION_SRC = """
def condition(vars):
    out = dict(vars)
    out['{key}'] = np.array([{value}])
    return out
"""


def sampling_plugin(stride: int = 2, only: Optional[Sequence[str]] = None) -> DCPlugin:
    """Keep every ``stride``-th element of each variable.

    ``only`` restricts sampling to the named variables, leaving the rest
    untouched — e.g. sample particle arrays but preserve a field grid
    whose block distribution must stay intact for global-array reads.
    """
    names = tuple(only) if only else ()
    label = f"sample/{stride}" if not names else f"sample/{stride}:{','.join(names)}"
    stride = int(stride)
    kernel = PluginKernel(
        Capability.FILTER,
        fingerprint=f"sample:{stride}:{','.join(names)}",
        targets=names,
        stride=stride,
    )
    return DCPlugin(
        label, SAMPLING_SRC.format(stride=stride, only=repr(names)), kernel=kernel
    )


def range_select_plugin(var: str, column: int, lo: float, hi: float) -> DCPlugin:
    """Select rows of 2-D ``var`` whose ``column`` lies in [lo, hi]."""
    column, lo, hi = int(column), float(lo), float(hi)

    def _mask(arr: np.ndarray, _c=column, _lo=lo, _hi=hi) -> np.ndarray:
        return _range_mask_jit(arr[:, _c], _lo, _hi)

    kernel = PluginKernel(
        Capability.FILTER,
        fingerprint=f"range:{var}:{column}:{lo!r}:{hi!r}",
        targets=(var,),
        requires_target=True,
        mask_fn=_mask,
        might_match=lambda blo, bhi, _lo=lo, _hi=hi: not (bhi < _lo or blo > _hi),
        pushdown_term={"kind": "range", "var": var, "lo": lo, "hi": hi},
    )
    return DCPlugin(
        f"range/{var}[{column}]",
        RANGE_SELECT_SRC.format(var=var, column=column, lo=lo, hi=hi),
        kernel=kernel,
    )


def bounding_box_plugin() -> DCPlugin:
    """Attach per-variable bounding-box metadata."""
    kernel = PluginKernel(
        Capability.ANNOTATE,
        fingerprint="bbox",
        # np.min over an emptied selection raises, exactly as the codelet
        # does — bbox chains therefore keep the interpreted path.
        fuse_safe=False,
    )
    return DCPlugin("bbox", BOUNDING_BOX_SRC, kernel=kernel)


def unit_conversion_plugin(var: str, factor: float) -> DCPlugin:
    """Scale ``var`` by ``factor`` (e.g. unit conversion)."""
    factor = float(factor)

    def _scale(arr: np.ndarray, out: Optional[np.ndarray] = None, _f=factor):
        return np.multiply(arr, _f, out=out)

    def _bounds(blo: float, bhi: float, _f=factor) -> tuple:
        a, b = blo * _f, bhi * _f
        return (a, b) if a <= b else (b, a)

    kernel = PluginKernel(
        Capability.TRANSFORM,
        fingerprint=f"units:{var}:{factor!r}",
        targets=(var,),
        requires_target=True,
        fn=_scale,
        map_bounds=_bounds,
        pushdown_term={"kind": "scale", "var": var, "factor": factor},
    )
    return DCPlugin(
        f"units/{var}",
        UNIT_CONVERSION_SRC.format(var=var, factor=factor),
        kernel=kernel,
    )


def annotation_plugin(key: str, value: float) -> DCPlugin:
    """Add a scalar markup variable to every record."""
    value = float(value)
    kernel = PluginKernel(
        Capability.ANNOTATE,
        fingerprint=f"annotate:{key}:{value!r}",
    )
    return DCPlugin(
        f"annotate/{key}", ANNOTATION_SRC.format(key=key, value=value), kernel=kernel
    )
