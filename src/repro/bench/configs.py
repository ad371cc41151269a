"""The figure shapes: which engine specs the paper's figures sweep.

=====  ==========================================================
MS     sequential MonetDB — single-core baseline
MP     parallel MonetDB — Mitosis + Dataflow hand-tuned parallelism
CPU    Ocelot on the (simulated) Intel Xeon through the Intel SDK
GPU    Ocelot on the (simulated) NVIDIA GTX 460
HET    heterogeneous scheduler owning CPU *and* GPU (§7 extension)
=====  ==========================================================

The engines themselves are registered in the engine registry
(:mod:`repro.engines`; the sharded multi-node engine by
:mod:`repro.shard`) — nothing outside the figure benchmarks depends on
this package.
"""

from __future__ import annotations

from ..engines import EngineConfig

__all__ = [
    "ALL_LABELS",
    "EngineConfig",
    "HET_LABELS",
]


#: the paper's figures sweep exactly the four §5.1 configurations; the
#: HET extension opts in per benchmark (fig. 8) via an explicit labels
#: tuple so the reproduced tables keep the paper's shape
ALL_LABELS = ("MS", "MP", "CPU", "GPU")
HET_LABELS = ALL_LABELS + ("HET",)

#: fig. 10c sweeps the sharded engine's join strategies on one engine
#: shape — only the join plan differs between the three specs
SHARD_JOIN_SPECS = (
    ("broadcast", "SHARD:4xMS,join=broadcast"),
    ("shuffle", "SHARD:4xMS"),
    ("co-located",
     "SHARD:4xMS,key=lineitem.l_orderkey,key=orders.o_orderkey"),
)
