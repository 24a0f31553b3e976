"""Correctness tooling for the FlexIO tree.

Two complementary halves (DESIGN.md §10):

* :mod:`repro.analysis.flexlint` — an AST-based static linter enforcing
  project invariants (typed exception handling on fault-critical paths,
  hint keys drawn from the central registry, closed tracer spans, commit
  confined to the retry/2PC path, declared drainer-thread shared state).
  Run it with ``python -m repro.tools.flexlint src/``.
* :mod:`repro.analysis.sanitize` — a runtime concurrency sanitizer
  ("tsan-lite") enabled via ``FLEXIO_SANITIZE=1``: SPSC queue
  producer/consumer discipline, lock-order inversion detection, and
  un-joined drainer threads at shutdown.

Its names load lazily (:func:`repro.util.lazy_exports`):
:mod:`repro.transport.shm` and :mod:`repro.core.stream` import the
sanitizer from their module scope, and the linter reads the hint and
shared-state registries of :mod:`repro.core`.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "sanitize": "SanitizerError TrackedLock Violation make_lock",
})
