"""ADIOS-like parallel I/O substrate (paper reference [28]).

FlexIO extends ADIOS: simulations and analytics exchange data through the
ADIOS read/write API, the data model is time-indexed groups of scalar and
array variables, and I/O *methods* (file formats, staging transports) are
selected through an external XML configuration file without touching
application code.

This package supplies the substrate FlexIO inherits:

* :mod:`repro.adios.selection` — bounding boxes and block-decomposition
  math (shared with the MxN redistribution engine);
* :mod:`repro.adios.model` — groups, variables, per-rank process groups;
* :mod:`repro.adios.bp` — "BP-lite": a real indexed binary file format
  with per-block offsets and min/max statistics, written and read back
  from disk;
* :mod:`repro.adios.config` — the XML configuration file (group → method
  mapping plus transport hint parameters);
* :mod:`repro.adios.api` — the step-oriented open / ``begin_step`` /
  write or read / ``end_step`` / close API with a method registry that
  FlexIO's stream transport plugs into.  The file methods' read handle
  is :mod:`repro.core`'s one reader over BP-lite blocks
  (:mod:`repro.core.filereader`), imported when a file is opened.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "aggregate": "AggregatedBpMethod",
    "api": "Adios AdiosError EndOfStream IoMethod RankContext ReadHandle "
           "StepLost StepNotReady StepStatus StreamFailure VariableNotFound "
           "WriteHandle register_method",
    "bp": "BpFormatError BpReader BpWriter",
    "config": "AdiosConfig ConfigError MethodSpec",
    "model": "Group ProcessGroupData VarDecl VarMeta",
    "query": "And Or Predicate QueryError QueryResult Range run_query",
    "selection": "BoundingBox BoxSelection FullSelection Selection "
                 "block_decompose intersect",
})
