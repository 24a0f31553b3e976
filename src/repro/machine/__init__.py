"""HPC machine models for the FlexIO reproduction.

The paper evaluates on two ORNL machines:

* **Titan** (Cray XK6): 18,688 nodes, one 16-core 2.2 GHz AMD Opteron 6274
  (Interlagos) per node organized as 2 NUMA domains of 8 cores each sharing
  an 8 MiB L3, 32 GiB RAM, Gemini interconnect.
* **Smoky**: 80 nodes, four quad-core 2.0 GHz AMD Opteron (Barcelona)
  processors per node — 4 NUMA domains of 4 cores each sharing a 2 MiB L3
  (the paper's Figure 5), 32 GiB RAM, DDR InfiniBand.

Both mount a center-wide Lustre file system.

This package reproduces those machines as *models*: a topology tree (machine
→ node → NUMA domain → core) that the placement algorithms map communication
graphs onto, plus interconnect / cache / file-system cost models that the
coupled-run simulator charges time against.
"""

from repro.util import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "cache": "CacheContentionModel CacheProfile",
    "filesystem": "LustreModel",
    "interconnect": "GeminiInterconnect InfinibandInterconnect Interconnect "
                    "RdmaCostParams SeaStarInterconnect",
    "presets": "generic_cluster jaguar_xt5 smoky titan",
    "topology": "Core Machine Node NodeType TopologyLevel TreeNode",
})
