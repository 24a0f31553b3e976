"""Index-assisted queries over BP-lite files.

The GTS analysis chain runs range queries over particle attributes; run
offline, such queries benefit from the BP index's per-block min/max
characteristics: blocks whose range cannot intersect the predicate are
*pruned* without touching their data (the approach of ADIOS's query
interface and FastBit-style indexes).

Predicates compose::

    q = (Range("energy", 1.0, 2.5) & Range("weight", 0.5, None)) | Range("flag", 1, 1)
    result = run_query(reader, q, step=0)

All variables referenced by one query must be written block-aligned
(same ranks, same shapes) — true of ADIOS process groups by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.adios.bp import BpReader, IndexEntry


class QueryError(RuntimeError):
    """Ill-formed query or misaligned variables."""


class Predicate:
    """Base: supports ``&`` and ``|`` composition."""

    def variables(self) -> set[str]:
        raise NotImplementedError

    def might_match(self, stats: dict[str, tuple[float, float]]) -> bool:
        """Can any point in a block with these per-var (min, max) match?"""
        raise NotImplementedError

    def mask(self, data: dict[str, np.ndarray]) -> np.ndarray:
        """Exact elementwise evaluation over block data."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)


@dataclass(frozen=True)
class Range(Predicate):
    """``lo <= var <= hi`` (either bound may be None for open ranges)."""

    var: str
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise QueryError(f"Range on {self.var!r} needs at least one bound")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise QueryError(f"empty range [{self.lo}, {self.hi}]")

    def variables(self) -> set[str]:
        return {self.var}

    def might_match(self, stats) -> bool:
        vmin, vmax = stats[self.var]
        if self.lo is not None and vmax < self.lo:
            return False
        if self.hi is not None and vmin > self.hi:
            return False
        return True

    def mask(self, data) -> np.ndarray:
        v = data[self.var]
        out = np.ones(v.shape, dtype=bool)
        if self.lo is not None:
            out &= v >= self.lo
        if self.hi is not None:
            out &= v <= self.hi
        return out


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def variables(self):
        return self.left.variables() | self.right.variables()

    def might_match(self, stats) -> bool:
        return self.left.might_match(stats) and self.right.might_match(stats)

    def mask(self, data) -> np.ndarray:
        return self.left.mask(data) & self.right.mask(data)


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def variables(self):
        return self.left.variables() | self.right.variables()

    def might_match(self, stats) -> bool:
        return self.left.might_match(stats) or self.right.might_match(stats)

    def mask(self, data) -> np.ndarray:
        return self.left.mask(data) | self.right.mask(data)


@dataclass
class QueryResult:
    """Outcome of one query evaluation."""

    #: Blocks the index pruned without reading data.
    blocks_pruned: int
    #: Blocks whose data was read and scanned.
    blocks_scanned: int
    #: Selected values per variable, concatenated over blocks.
    values: dict[str, np.ndarray]
    #: Global coordinates (for boxed blocks) or (rank, local-index) pairs.
    coordinates: np.ndarray

    @property
    def count(self) -> int:
        return int(self.coordinates.shape[0])

    @property
    def pruning_ratio(self) -> float:
        total = self.blocks_pruned + self.blocks_scanned
        return self.blocks_pruned / total if total else 0.0


def _aligned_entries(
    reader: BpReader, variables: Sequence[str], step: int
) -> list[dict[str, IndexEntry]]:
    """Per-rank entry groups for all the query's variables."""
    by_rank: dict[int, dict[str, IndexEntry]] = {}
    for var in variables:
        for entry in reader.blocks(var, step):
            by_rank.setdefault(entry.rank, {})[var] = entry
    groups = []
    for rank, entries in sorted(by_rank.items()):
        missing = set(variables) - set(entries)
        if missing:
            raise QueryError(
                f"rank {rank} wrote {sorted(entries)} but not {sorted(missing)}"
            )
        shapes = {entries[v].shape for v in variables}
        if len(shapes) > 1:
            raise QueryError(f"rank {rank}: query variables have shapes {shapes}")
        groups.append(entries)
    if not groups:
        raise QueryError(f"no data for {sorted(variables)} at step {step}")
    return groups


def run_query(reader: BpReader, predicate: Predicate, step: int = 0) -> QueryResult:
    """Evaluate a predicate over one step, pruning blocks by the index."""
    variables = sorted(predicate.variables())
    groups = _aligned_entries(reader, variables, step)
    pruned = scanned = 0
    values: dict[str, list[np.ndarray]] = {v: [] for v in variables}
    coords: list[np.ndarray] = []
    for entries in groups:
        stats = {v: (entries[v].vmin, entries[v].vmax) for v in variables}
        if not predicate.might_match(stats):
            pruned += 1
            continue
        scanned += 1
        data = {v: reader.fetch(entries[v]) for v in variables}
        mask = predicate.mask(data)
        if not mask.any():
            continue
        idx = np.argwhere(mask)
        some = entries[variables[0]]
        if some.box is not None:
            idx = idx + np.asarray(some.box.start)
        else:
            rank_col = np.full((idx.shape[0], 1), some.rank)
            idx = np.hstack([rank_col, idx])
        coords.append(idx)
        for v in variables:
            values[v].append(data[v][mask])
    ncols = coords[0].shape[1] if coords else 0
    return QueryResult(
        blocks_pruned=pruned,
        blocks_scanned=scanned,
        values={
            v: (np.concatenate(parts) if parts else np.empty(0))
            for v, parts in values.items()
        },
        coordinates=(
            np.concatenate(coords) if coords else np.empty((0, ncols), dtype=int)
        ),
    )
