"""FlexIO reproduction.

A from-scratch Python implementation of the system described in

    Fang Zheng et al., *FlexIO: I/O Middleware for Location-Flexible
    Scientific Data Analytics*, IEEE IPDPS 2013.

Layers (bottom-up):

- :mod:`repro.simcore` -- discrete-event simulation kernel.
- :mod:`repro.machine` -- HPC machine models (Titan/Smoky presets: nodes,
  NUMA domains, caches, Gemini/InfiniBand interconnects, Lustre-like FS).
- :mod:`repro.marshal` -- self-describing binary marshaling (FFS/PBIO-like).
- :mod:`repro.transport` -- the ``Channel`` messaging interface and its
  shared-memory (FastForward SPSC queues, buffer pools, XPMEM path),
  RDMA (NNTI-like, registration cache, scheduled receiver-directed Get)
  and TCP transports.
- :mod:`repro.adios` -- ADIOS-like I/O substrate: data model, BP-lite file
  format, XML configuration, file & stream methods.
- :mod:`repro.core` -- the FlexIO middleware: high-level API, directory
  service, MxN redistribution, Data Conditioning plug-ins, monitoring.
- :mod:`repro.placement` -- metrics, graph partitioning/mapping, and the
  data-aware / holistic / node-topology-aware placement algorithms.
- :mod:`repro.apps` -- GTS- and S3D-like workload models plus real analytics
  (distribution function, range query, histograms, volume renderer).
- :mod:`repro.coupled` -- end-to-end coupled-run simulator producing the
  paper's metrics (Total Execution Time, CPU hours, movement volume).
"""

__version__ = "1.0.0"

__all__ = ["__version__", "connect"]


def connect(uri: str, **kwargs):
    """Open a FlexIO client session (see :func:`repro.net.client.connect`).

    ``connect("local://")`` runs in-process;
    ``connect("flexio://host:port/tenant", token=...)`` dials a
    directory daemon.  Imported lazily so ``import repro`` stays cheap
    and cycle-free.
    """
    from repro.net.client import connect as _connect

    return _connect(uri, **kwargs)
