"""Weighted communication graphs over coupled-program processes.

Vertices are processes (simulation ranks followed by analytics ranks);
vertex weights are the cores each occupies (OpenMP threads); edge weights
are bytes exchanged per I/O interval.  Data-aware mapping sees only the
inter-program edges; holistic placement adds the programs' *internal* MPI
traffic (halo exchanges, collectives), which is what flips the best
placement from helper-core (GTS: inter-program dominant) to staging
(S3D: intra-program dominant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np


class CommGraph:
    """An undirected weighted graph with integer vertex weights (slots)."""

    def __init__(self, num_vertices: int, labels: Optional[Sequence[str]] = None) -> None:
        if num_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        self.n = int(num_vertices)
        self.vertex_weights = [1] * self.n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.n)]
        if len(self.labels) != self.n:
            raise ValueError("one label per vertex required")
        self._adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        self.total_edge_weight = 0.0

    # ------------------------------------------------------------------
    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range [0, {self.n})")

    def set_vertex_weight(self, v: int, weight: int) -> None:
        self._check(v)
        if weight < 1:
            raise ValueError("vertex weight must be >= 1")
        self.vertex_weights[v] = int(weight)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Accumulate ``weight`` bytes on edge (u, v); self-loops ignored."""
        self._check(u)
        self._check(v)
        if weight < 0:
            raise ValueError("edge weight must be >= 0")
        if u == v or weight == 0:
            return
        self._adj[u][v] = self._adj[u].get(v, 0.0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0.0) + weight
        self.total_edge_weight += weight

    def edge(self, u: int, v: int) -> float:
        self._check(u)
        self._check(v)
        return self._adj[u].get(v, 0.0)

    def neighbors(self, v: int) -> dict[int, float]:
        self._check(v)
        return self._adj[v]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for u in range(self.n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def total_vertex_weight(self) -> int:
        return sum(self.vertex_weights)

    # ------------------------------------------------------------------
    @classmethod
    def coupled(
        cls,
        num_sim: int,
        num_ana: int,
        sim_threads: int = 1,
        ana_threads: int = 1,
    ) -> "CommGraph":
        """A graph with sim ranks [0, num_sim) and analytics ranks after."""
        if num_sim <= 0 or num_ana < 0:
            raise ValueError("need at least one simulation rank")
        labels = [f"sim:{i}" for i in range(num_sim)] + [
            f"ana:{j}" for j in range(num_ana)
        ]
        g = cls(num_sim + num_ana, labels)
        for i in range(num_sim):
            g.set_vertex_weight(i, sim_threads)
        for j in range(num_ana):
            g.set_vertex_weight(num_sim + j, ana_threads)
        return g

    def sim_vertices(self) -> list[int]:
        return [i for i, lb in enumerate(self.labels) if lb.startswith("sim:")]

    def ana_vertices(self) -> list[int]:
        return [i for i, lb in enumerate(self.labels) if lb.startswith("ana:")]

    def add_interprogram_matrix(self, matrix: np.ndarray) -> None:
        """Edges from an (num_sim × num_ana) byte-volume matrix."""
        sims, anas = self.sim_vertices(), self.ana_vertices()
        if matrix.shape != (len(sims), len(anas)):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({len(sims)}, {len(anas)})"
            )
        for i, u in enumerate(sims):
            for j, v in enumerate(anas):
                if matrix[i, j]:
                    self.add_edge(u, v, float(matrix[i, j]))

    def interprogram_bytes(self) -> float:
        anas = set(self.ana_vertices())
        total = 0.0
        for u, v, w in self.edges():
            if (u in anas) != (v in anas):
                total += w
        return total

    def intraprogram_bytes(self) -> float:
        return self.total_edge_weight - self.interprogram_bytes()


# ---------------------------------------------------------------------------
# Intra-program communication patterns
# ---------------------------------------------------------------------------

def grid_edges(dims: Sequence[int], halo_bytes: float) -> Iterator[tuple[int, int, float]]:
    """Nearest-neighbour halo exchange on a Cartesian process grid.

    ``dims`` is the process-grid shape; ranks are row-major.  Yields one
    edge per adjacent pair with ``halo_bytes`` per interval.  GTS uses a 2D
    grid, S3D a 3D one.
    """
    if any(d <= 0 for d in dims):
        raise ValueError(f"grid dims must be positive, got {dims}")
    if halo_bytes < 0:
        raise ValueError("halo_bytes must be >= 0")
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    total = acc

    def rank_of(coords):
        return sum(c * s for c, s in zip(coords, strides))

    def coords_of(rank):
        out = []
        for s in strides:
            out.append(rank // s)
            rank %= s
        return out

    for r in range(total):
        coords = coords_of(r)
        for axis in range(len(dims)):
            if coords[axis] + 1 < dims[axis]:
                nb = list(coords)
                nb[axis] += 1
                yield (r, rank_of(nb), halo_bytes)


def ring_edges(n: int, bytes_per_link: float, offset: int = 0) -> Iterator[tuple[int, int, float]]:
    """A ring (e.g. an allreduce's steady-state traffic) over ``n`` ranks."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return
    if n == 2:
        yield (offset, offset + 1, bytes_per_link)
        return
    for i in range(n):
        yield (offset + i, offset + (i + 1) % n, bytes_per_link)
