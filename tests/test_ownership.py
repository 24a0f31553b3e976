"""One owner each: state with a single writer in the tree stays that way.

* A run's writer ranks — a ``StepBarrier``'s ``joined`` / ``closed`` /
  ``ended`` sets — are written by ``StepBarrier`` alone
  (``adios/api.py``); every run calls its ``join`` / ``end`` / ``close``
  / ``fail`` / ``restore``.
* A DC chain is built only by a run's owner on its plane — the
  in-process ``StreamState``, the daemon's ``HostedStream``, the file
  methods' module — and mirrored by the net client's ``_RunChain``, so
  every handle of a run shows its one chain.

Each claim is an FXL015 row of :data:`repro.analysis.tables.OWNERS`;
these tests pin the row's owner and run FlexLint over ``src/``, counting
a waived finding as a breach too.  The planted spellings are
``test_flexlint``'s FXL015 fixtures.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.analysis.flexlint import lint_paths
from repro.analysis.tables import OWNERS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@functools.lru_cache(maxsize=1)
def _fxl015_findings():
    return tuple(f for f in lint_paths([str(SRC)]) if f.rule == "FXL015")


def _breaches(pattern: str, *owners: str) -> list[str]:
    (row,) = [r for r in OWNERS if r.rule == "FXL015" and pattern in r.patterns]
    assert row.scopes == owners
    return [f.format() for f in _fxl015_findings() if row.why in f.message]


def test_only_step_barrier_writes_its_rank_sets():
    bad = [
        where for attr in ("joined", "closed", "ended")
        for where in _breaches(f"*barrier.{attr}", "adios/api.py:StepBarrier")
    ]
    assert bad == [], f"rank sets written outside StepBarrier: {bad}"


def test_only_a_runs_owner_builds_its_chain():
    bad = _breaches("PluginManager()", "core/stream.py:StreamState",
                    "net/server.py:HostedStream", "core/filereader.py",
                    "net/client.py:_RunChain")
    assert bad == [], f"a DC chain built outside a run's owner: {bad}"
