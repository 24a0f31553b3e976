"""Regeneration of every figure and table in the paper's evaluation.

Each ``fig*``/``table*`` function returns the rows/series the paper
reports (as lists of dicts), computed entirely from this reproduction's
models and implementations.  The benchmark harness under ``benchmarks/``
wraps these with pytest-benchmark and writes the rendered tables to
``results/``; ``EXPERIMENTS.md`` records paper-vs-measured values.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "costs": "gts_cost_metrics s3d_cost_metrics s3d_movement_tuning",
    "fig4": "fig4_rdma_registration",
    "fig6": "fig6_gts_total_execution_time",
    "fig7": "fig7_gts_detailed_timing",
    "fig8": "fig8_cache_miss_rates",
    "fig9": "fig9_s3d_total_execution_time",
    "tables": "format_table write_table",
})
