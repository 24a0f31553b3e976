"""FlexLint, the static half of the correctness tooling (DESIGN.md §10, §15).

* :mod:`repro.analysis.flexlint` — the rules, waivers and the one run
  path, :func:`~repro.analysis.flexlint.lint_paths`; run it with
  ``python -m repro.tools.flexlint src/``.
* :mod:`repro.analysis.tables` — the owner, registry and layer tables
  one table-driven rule checks.
* :mod:`repro.analysis.flowrules`, :mod:`repro.analysis.cfg`,
  :mod:`repro.analysis.project` — the flow-aware and cross-file rules,
  the control-flow graphs and the whole-program index they read.

Nothing at run time imports this package: the runtime sanitizer, the
dynamic half, is :mod:`repro.obs.sanitize`.
"""
