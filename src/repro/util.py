"""Small shared helpers: byte units, cache-line math, deterministic RNG,
and the lazy re-export table of the package ``__init__`` modules."""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

import numpy as np

#: Byte-size unit constants used throughout the cost models.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Canonical x86 cache line size (bytes) — the FastForward queue layout and
#: the false-sharing math in the shm transport are expressed in these.
CACHE_LINE = 64

#: Virtual-memory page size assumed by the RDMA registration cost model.
PAGE_SIZE = 4096


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if b <= 0:
        raise ValueError(f"ceil_div by non-positive {b}")
    return -(-a // b)


def align_up(n: int, alignment: int) -> int:
    """Round ``n`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return ceil_div(n, alignment) * alignment


def pages_of(nbytes: int) -> int:
    """Number of VM pages spanned by a buffer of ``nbytes``."""
    return ceil_div(max(nbytes, 1), PAGE_SIZE)


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``110.0 MiB``."""
    n = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")


def rng(seed: int | None) -> np.random.Generator:
    """A deterministic NumPy generator; ``None`` maps to a fixed seed.

    Every stochastic element of the reproduction flows through this so that
    repeated runs (and the test suite) are bit-stable.
    """
    return np.random.default_rng(0xF1E710 if seed is None else seed)


def lazy_exports(package: str, table: dict[str, str]) -> tuple[list[str], Callable]:
    """A package's public names, imported from their submodules on first use.

    ``table`` maps each submodule of ``package`` to the names it exports,
    space-separated.  Returns ``(__all__, __getattr__)`` for the package
    ``__init__`` (PEP 562): ``import package`` loads no submodule, and
    ``from package import Name`` loads only the one defining ``Name``.
    """
    where = {
        name: f"{package}.{module}"
        for module, names in table.items() for name in names.split()
    }

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(where), __getattr__
