"""The ADIOS data model: groups, variables, process groups.

Simulation output is logically time-indexed; each timestep is a *group* of
variables of scalar or array type.  Each writing process contributes one
*process group* per step — the unit the process-group-oriented exchange
pattern reads by writer rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.adios.selection import BoundingBox


@dataclass(frozen=True)
class VarDecl:
    """Declaration of one variable within a group.

    ``global_shape`` is None for scalars and purely-local arrays; for
    global arrays it fixes the dimensionality (entries may be -1 when a
    dimension is only known at write time, e.g. a particle count).
    """

    name: str
    dtype: str = "float64"
    global_shape: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        np.dtype(self.dtype)  # raises on an invalid dtype string


@dataclass
class Group:
    """A named set of variable declarations (one adios-group)."""

    name: str
    variables: dict[str, VarDecl] = field(default_factory=dict)

    def declare(
        self,
        name: str,
        dtype: str = "float64",
        global_shape: Optional[Sequence[int]] = None,
    ) -> VarDecl:
        if name in self.variables:
            raise ValueError(f"variable {name!r} already declared in group {self.name!r}")
        decl = VarDecl(
            name,
            dtype,
            tuple(global_shape) if global_shape is not None else None,
        )
        self.variables[name] = decl
        return decl

    def var(self, name: str) -> VarDecl:
        try:
            return self.variables[name]
        except KeyError:
            raise KeyError(f"group {self.name!r} has no variable {name!r}") from None


@dataclass
class WrittenVar:
    """One variable instance written by one rank at one step."""

    name: str
    data: np.ndarray
    #: Placement of this block within the global array (None for local data).
    box: Optional[BoundingBox] = None
    #: Declared global shape at write time (resolves -1 dims).
    global_shape: Optional[tuple[int, ...]] = None

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


@dataclass
class ProcessGroupData:
    """Everything one rank wrote during one I/O timestep: its blocks, in
    write order (a name may have several)."""

    rank: int
    step: int
    blocks: list[WrittenVar] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.blocks)


@dataclass(frozen=True)
class VarMeta:
    """Reader-visible metadata for one variable (aggregated over blocks)."""

    name: str
    dtype: str
    global_shape: Optional[tuple[int, ...]]
    steps: int
    min_value: float
    max_value: float
