"""Application models (paper Section IV).

The evaluation couples FlexIO to two leadership applications; we rebuild
their observable behaviour:

* :mod:`repro.apps.gts` — the GTS gyrokinetic fusion simulation: each rank
  outputs two 2-D particle arrays (zions, electrons) with seven attributes
  per particle, ~110 MB per process every two simulation cycles, run in
  OpenMP/MPI hybrid mode with a serial region limiting thread scaling.
* :mod:`repro.apps.analytics` — GTS's online analysis chain, really
  implemented: particle distribution function, a ~20 %-selective range
  query on velocity, and 1-D/2-D histograms for parallel-coordinates
  visualization.
* :mod:`repro.apps.s3d` — S3D_Box direct numerical combustion simulation:
  22 3-D double-precision species arrays totalling 1.7 MB per process
  every ten cycles, on a 3-D block decomposition.
* :mod:`repro.apps.viz` — a real (small) parallel volume renderer over the
  redistributed species fields, emission–absorption ray casting with
  depth-ordered compositing, writing PPM images as the paper's pipeline
  does.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "analytics": "GtsAnalytics histogram1d histogram2d particle_distribution "
                 "range_query",
    "gts": "GtsConfig GtsRank gts_analytics_profile gts_sim_profile",
    "pixie3d": "MhdDiagnostics Pixie3dAnalysis Pixie3dConfig Pixie3dRank curl "
               "divergence pixie3d_analysis_profile pixie3d_sim_profile",
    "s3d": "S3dConfig S3dRank s3d_sim_profile s3d_viz_profile",
    "viz": "composite_over read_ppm volume_render write_ppm",
})
