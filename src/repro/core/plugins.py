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

The chain is the run's on every plane: one :class:`PluginManager` every
handle of a stream shares in process; on the daemon, ``HostedStream.plugins``,
which each client session mirrors.  A codelet crosses to the daemon as
data, :meth:`DCPlugin.spec`, rebuilt by :meth:`DCPlugin.from_spec`: a
fingerprinted one by its factory in :data:`KERNELS`, whose source it
must carry; a free-form one from its source, through the same sandbox.
"""

from __future__ import annotations

import ast
import hashlib
import math
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.adios.model import WrittenVar
from repro.core.monitoring import PerfMonitor
from repro.obs.names import (
    F_PLUGIN,
    M_PLUGIN_FUSED_READS,
    M_PLUGIN_INTERPRETED_READS,
    M_PLUGIN_MIGRATIONS,
    metric_name,
)

#: Trace-stage name (span category) of DC plug-in execution.
STAGE_DC_PLUGIN = "dc_plugin"

def _range_mask(col: np.ndarray, lo: float, hi: float) -> np.ndarray:
    col = np.ascontiguousarray(col)  # a strided column is read once
    mask = col >= lo
    return np.logical_and(mask, col <= hi, out=mask)


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
    args = funcs[0].args
    if len(args.args) != 1:
        raise CodeletError("condition() must take exactly one argument")
    # Nothing is evaluated when the ``def`` runs: a codelet computes only
    # when it is applied, in the process that applies it.
    if (funcs[0].decorator_list or funcs[0].returns or args.args[0].annotation
            or args.defaults or args.kw_defaults or args.posonlyargs
            or args.kwonlyargs or args.vararg or args.kwarg):
        raise CodeletError(
            "condition(vars) takes no decorator, default, annotation or other argument")
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
      value-level (``mask_fn``: boolean row mask of the rows it is
      given);
    * ``TRANSFORM`` kernels map rows elementwise (``fn(arr, out=None)``;
      without ``out`` the result is a new array);
    * ``ANNOTATE`` kernels add *other* variables and are an identity on
      the fused path (``fuse_safe=False`` opts a kernel out of fusion —
      e.g. ``bbox``, whose reduction over an empty selection raises).

    ``pushdown_term`` is the kernel's contribution to the chain's
    :class:`BlockPredicate`, what the run prunes under.
    """

    __slots__ = (
        "capability", "targets", "requires_target", "fuse_safe",
        "stride", "mask_fn", "fn", "fingerprint", "pushdown_term",
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
        fn: Optional[Callable] = None,
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
        self.fn = fn
        self.fingerprint = fingerprint
        self.pushdown_term = pushdown_term

    def applies_to(self, name: str) -> bool:
        return not self.targets or name in self.targets


class BlockPredicate:
    """Conservatively-sound block predicate of a chain.

    Built from the chain's value-level terms in deployment order:
    ``scale`` terms map the block's value bounds through the transform,
    ``range`` terms prune.  :meth:`might_match` returns ``False`` only
    when a block with the given whole-block bounds **provably**
    contributes no row for ``var`` — the pushdown contract.
    """

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


class _ChainCursor:
    """Sequential per-block applier for one variable's fused read.

    Carries, per kernel, the number of rows that already flowed into it
    from earlier blocks, so index-level filters (sampling) keep their
    global phase across the block sequence.  Blocks must arrive in
    ascending row order — the fused plan guarantees it.  The kernels acting
    on ``name`` resolve once, into ``kernels`` as ``(index, stride,
    mask_fn, fn)``; an empty list means no kernel touches ``name``.
    """

    __slots__ = ("chain", "kernels", "_entered", "_in_bytes", "_out_bytes",
                 "_elapsed")

    def __init__(self, chain: "CompiledChain", name: str) -> None:
        self.chain = chain
        self.kernels = [
            (i, None, None, k.fn) if k.capability is Capability.TRANSFORM
            else (i, k.stride, k.mask_fn, None)
            for i, (_, k) in enumerate(chain.pairs)
            if k.capability is not Capability.ANNOTATE and k.applies_to(name)
        ]
        n = len(chain.pairs)
        self._entered = [0] * n
        self._in_bytes = [0] * n
        self._out_bytes = [0] * n
        self._elapsed = [0.0] * n

    def select_block(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the kernels over one block; return the array its survivors
        lie in and their row indices, for :meth:`take` to gather.

        The selection is the slice ``start::step`` of ``count`` rows while
        only strides have run, row indices ``rows`` from the first mask on.
        A mask sees the selection as a view while it is a slice, gathered
        after; one that is not a boolean mask of its length raises
        ``IndexError``, as ``arr[mask]`` does.  A transform maps the
        selection, which restarts as all rows of its result.
        """
        start, step, count, rows = 0, 1, arr.shape[0], None
        row_bytes = arr.itemsize * math.prod(arr.shape[1:])
        t0 = time.perf_counter()
        for i, stride, mask_fn, fn in self.kernels:
            self._in_bytes[i] += count * row_bytes
            if stride is not None:
                phase = (-self._entered[i]) % stride
                self._entered[i] += count
                count = len(range(phase, count, stride))
                if rows is None:
                    start, step = start + phase * step, step * stride
                else:
                    rows = rows[phase::stride]
            else:
                sel = (arr[start:start + step * count:step] if rows is None
                       else arr.take(rows, axis=0))
                if fn is not None:
                    arr = fn(sel)  # a new array: the selection restarts over it
                    start, step, count, rows = 0, 1, arr.shape[0], None
                    row_bytes = arr.itemsize * math.prod(arr.shape[1:])
                else:
                    mask = np.asarray(mask_fn(sel))
                    if mask.dtype != np.bool_ or mask.shape != (count,):
                        raise IndexError(
                            f"row mask {mask.dtype} {mask.shape} over {count} rows"
                        )
                    if rows is None:
                        rows = mask.nonzero()[0]
                        rows *= step
                        rows += start
                    else:
                        rows = rows[mask]
                    count = rows.shape[0]
            self._out_bytes[i] += count * row_bytes
            t1 = time.perf_counter()
            self._elapsed[i] += t1 - t0
            t0 = t1
        if rows is None:
            rows = np.arange(start, start + step * count, step)
        return arr, rows

    def take(self, arr: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
        """Gather a :meth:`select_block` result, into ``out`` if given: one
        contiguous copy per kept row, timed as the last kernel's work."""
        t0 = time.perf_counter()
        arr = arr.take(rows, axis=0, out=out, mode="clip")  # rows are in range
        if self.kernels:
            self._elapsed[self.kernels[-1][0]] += time.perf_counter() - t0
        return arr

    def apply_block(self, arr: np.ndarray, picks: Optional[list] = None) -> np.ndarray:
        """The block's surviving rows, fresh; with ``picks`` the gather
        waits: the selection is appended there, its row indices returned."""
        arr, rows = self.select_block(arr)
        if picks is None:
            return self.take(arr, rows)
        picks.append((arr, rows))
        return rows

    def result_dtype(self, dtype: np.dtype, shape: tuple) -> np.dtype:
        """What a filter-free chain's transforms make of rows of ``dtype``
        (a scale makes integers float): they run over no rows."""
        arr = np.empty((0, *shape[1:]), dtype=dtype)
        for *_, fn in self.kernels:
            arr = fn(arr)
        return arr.dtype

    def apply_block_into(self, arr: np.ndarray, dst: np.ndarray) -> None:
        """Shape-preserving variant: transforms land in ``dst`` directly
        (first with ``out=``, the rest in place) — the ``execute_into``
        half of the fused plan.  Only legal for filter-free chains, whose
        every resolved kernel is a transform."""
        wrote = False
        for i, _, _, fn in self.kernels:
            t0 = time.perf_counter()
            if wrote:
                fn(dst, out=dst)
            else:
                fn(arr, out=dst)
                wrote = True
            self._elapsed[i] += time.perf_counter() - t0
            self._in_bytes[i] += arr.nbytes
            self._out_bytes[i] += dst.nbytes
        if not wrote:
            dst[...] = arr

    def finish(self, monitor: Optional[PerfMonitor] = None) -> None:
        """Account one fused read: per-kernel stats + monitor records —
        none for a read no kernel acted on."""
        if not self.kernels:
            return
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
        self._tree = tree
        self._fn: Optional[Callable[[dict], dict]] = None

    @property
    def _func(self) -> Callable[[dict], dict]:
        """The ``condition`` function, compiled on the first apply: a
        process that only holds the chain (the daemon) runs none of it."""
        if self._fn is None:
            namespace: dict = {"__builtins__": {}}
            namespace.update(_SAFE_GLOBALS)
            try:
                exec(compile(self._tree, f"<dcplugin:{self.name}>", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - validation catches most
                raise CodeletError(f"codelet failed to compile: {exc}") from exc
            self._fn = namespace["condition"]
        return self._fn

    @property
    def capability(self) -> Optional[Capability]:
        return self.kernel.capability if self.kernel is not None else None

    def spec(self) -> dict:
        """The codelet as data: name, side, source and kernel fingerprint
        ("" for a free-form codelet) — what :meth:`from_spec` rebuilds."""
        return {"name": self.name, "side": self.side.value, "source": self.source,
                "fingerprint": self.kernel.fingerprint if self.kernel is not None else ""}

    @classmethod
    def from_spec(cls, spec: dict) -> "DCPlugin":
        """Rebuild a codelet from :meth:`spec`: a fingerprinted one is its
        kind's factory's in :data:`KERNELS` (:func:`plugin_of`), under the
        spec's name, and its source must be that factory's — else a fused
        read would run the kernel and an interpreted one another function;
        a free-form one is its source through the ``_validate`` sandbox,
        interpreted.  An unknown side or kind, a malformed fingerprint, a
        source that is not the fingerprint's or a refused source raises
        :class:`CodeletError`."""
        try:
            side = PluginSide(spec["side"])
        except ValueError:
            raise CodeletError(f"unknown plug-in side {spec['side']!r}") from None
        fingerprint, kernel = spec["fingerprint"], None
        if fingerprint:
            made = plugin_of(fingerprint)
            if spec["source"] != made.source:
                raise CodeletError(
                    f"codelet {spec['name']!r}: its source is not the one its "
                    f"fingerprint {fingerprint!r} names")
            kernel = made.kernel
        plugin = cls(spec["name"], spec["source"], kernel)
        plugin.side = side
        return plugin

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
    """A run's plug-in chain with runtime deployment and migration.

    Deployment of a reader-created plug-in to the writer side travels "a
    communication channel separate from the ones used for data movement"
    (Section II.F) — modelled by the deploy/migrate calls happening outside
    the stream's step flow; on the daemon plane each one is a control
    request to the daemon, which holds the run's chain.
    """

    def __init__(self, monitor: Optional[PerfMonitor] = None) -> None:
        self.monitor = monitor
        self._chain: list[DCPlugin] = []
        #: Bumped by every deploy, undeploy and actual migration.
        self.generation = 0
        #: A codelet runs writer-side: :meth:`condition` is not a no-op.
        self.conditions = False
        self._compiled: dict[PluginSide, tuple[int, Optional[CompiledChain]]] = {}

    # ------------------------------------------------------------------
    def deploy(self, plugin: DCPlugin, side: PluginSide = PluginSide.READER) -> DCPlugin:
        if any(p.name == plugin.name for p in self._chain):
            raise CodeletError(f"plug-in {plugin.name!r} already deployed")
        plugin.side = side
        self._chain.append(plugin)
        self._changed()
        return plugin

    def undeploy(self, name: str) -> DCPlugin:
        for i, p in enumerate(self._chain):
            if p.name == name:
                plugin = self._chain.pop(i)
                self._changed()
                return plugin
        raise CodeletError(f"no plug-in {name!r} deployed")

    def migrate(self, name: str, to_side: PluginSide) -> DCPlugin:
        """Move a codelet across address spaces at runtime.  Moving it
        to the side it already runs on is a no-op: nothing is counted
        and the compiled chains stay valid."""
        for p in self._chain:
            if p.name == name:
                if p.side != to_side:
                    p.side = to_side
                    self._changed()
                    if self.monitor is not None:
                        self.monitor.metrics.counter(M_PLUGIN_MIGRATIONS).inc()
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

    def _changed(self) -> None:
        """The chain changed: a new generation, and is it writer-side?"""
        self.generation += 1
        self.conditions = self.has_side(PluginSide.WRITER)

    # -- compiled form --------------------------------------------------
    def compiled_chain(self, side: PluginSide) -> Optional[CompiledChain]:
        """The side's chain lowered to kernels, or ``None`` when empty or
        when any plug-in on the side is a free-form codelet (no kernel).
        Memoized per deploy/undeploy/migrate generation."""
        cached = self._compiled.get(side)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        pairs = [(p, p.kernel) for p in self._chain if p.side == side]
        chain: Optional[CompiledChain] = None
        if pairs and all(k is not None for _, k in pairs):
            chain = CompiledChain(pairs)
        self._compiled[side] = (self.generation, chain)
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

    def condition(self, written: Iterable[WrittenVar]) -> list[WrittenVar]:
        """The writer-side chain over one writer's step; every run calls
        it through :func:`repro.adios.api.condition`.

        The chain sees one record per block of a name: a writer's k-th
        block of each name goes into record k, as k in-process ranks
        would each send their own.  An output keeps its input's box while
        its shape is unchanged; a reshaped one keeps only the global
        shape, and a new one is local data.
        """
        records: list[dict[str, WrittenVar]] = []
        for wv in written:
            k = sum(wv.name in record for record in records)
            if k == len(records):
                records.append({})
            records[k][wv.name] = wv
        out = []
        for record in records:
            conditioned = self.apply_side(
                PluginSide.WRITER, {name: wv.data for name, wv in record.items()}
            )
            for name, data in conditioned.items():
                data = np.asarray(data)
                # A new output is measured against itself: local data.
                orig = record.get(name) or WrittenVar(name, data)
                box = orig.box if data.shape == orig.data.shape else None
                out.append(WrittenVar(name, data, box, orig.global_shape))
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


def _names(text: str) -> tuple:
    return tuple(text.split(",")) if text else ()


def plugin_of(fingerprint: str) -> DCPlugin:
    """The codelet a fingerprint names, built by its kind's factory in
    :data:`KERNELS`.  An unknown kind, or arguments that do not parse or
    do not print back as the same fingerprint, raise :class:`CodeletError`."""
    kind, *args = fingerprint.split(":")
    if kind not in KERNELS:
        raise CodeletError(f"unknown codelet kind {kind!r}")
    parsers, make = KERNELS[kind]
    try:
        if len(args) != len(parsers):
            raise ValueError(f"{kind} takes {len(parsers)} arguments")
        plugin = make(*(parse(arg) for parse, arg in zip(parsers, args)))
    except ValueError as exc:
        raise CodeletError(f"malformed fingerprint {fingerprint!r}: {exc}") from None
    if plugin.kernel.fingerprint != fingerprint:
        raise CodeletError(f"malformed fingerprint {fingerprint!r}: not canonical")
    return plugin


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
        return _range_mask(arr[:, _c], _lo, _hi)

    kernel = PluginKernel(
        Capability.FILTER,
        fingerprint=f"range:{var}:{column}:{lo!r}:{hi!r}",
        targets=(var,),
        requires_target=True,
        mask_fn=_mask,
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

    kernel = PluginKernel(
        Capability.TRANSFORM,
        fingerprint=f"units:{var}:{factor!r}",
        targets=(var,),
        requires_target=True,
        fn=_scale,
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


#: The shipped codelets, by the kind their kernel's fingerprint starts
#: with: the parsers of its ``:``-separated arguments, and the factory.
KERNELS: dict[str, tuple[tuple, Callable[..., DCPlugin]]] = {
    "sample": ((int, _names), sampling_plugin),
    "range": ((str, int, float, float), range_select_plugin),
    "units": ((str, float), unit_conversion_plugin),
    "annotate": ((str, float), annotation_plugin),
    "bbox": ((), bounding_box_plugin),
}
