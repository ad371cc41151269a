"""The paper's four configurations (§5.1) plus the HET extension.

=====  ==========================================================
MS     sequential MonetDB — single-core baseline
MP     parallel MonetDB — Mitosis + Dataflow hand-tuned parallelism
CPU    Ocelot on the (simulated) Intel Xeon through the Intel SDK
GPU    Ocelot on the (simulated) NVIDIA GTX 460
HET    heterogeneous scheduler owning CPU *and* GPU (§7 extension)
=====  ==========================================================

Each is registered as a family in the engine registry
(:mod:`repro.engines`).  Composable engines — the sharded multi-node
engine (:mod:`repro.shard`) — register alongside them and are addressed
by spec strings like ``"SHARD:4xHET"``.
"""

from __future__ import annotations

from ..engines import (
    EngineConfig,
    EngineFamily,
    EngineSpec,
    register_engine,
)
from ..monetdb.backends import MonetDBParallel, MonetDBSequential
from ..ocelot.engine import OcelotBackend
from ..sched.backend import HeterogeneousBackend

__all__ = [
    "ALL_LABELS",
    "EngineConfig",
    "HET_LABELS",
]


def _simple_family(name: str, description: str, make, *,
                   is_ocelot: bool) -> EngineFamily:
    """A family resolving to one fixed configuration (plus the
    engine knobs every family accepts, :data:`repro.engines.KNOBS`)."""

    def configure(spec: EngineSpec, registry) -> EngineConfig:
        return EngineConfig(
            label=name,
            make=make,
            is_ocelot=is_ocelot,
            description=description,
        )

    return EngineFamily(name=name, configure=configure,
                        description=description, syntax=name)


register_engine(_simple_family(
    "MS", "sequential MonetDB baseline (single core)",
    lambda cat, scale: MonetDBSequential(cat, data_scale=scale),
    is_ocelot=False,
))
register_engine(_simple_family(
    "MP", "parallel MonetDB (Mitosis + Dataflow, hand-tuned)",
    lambda cat, scale: MonetDBParallel(cat, data_scale=scale),
    is_ocelot=False,
))
register_engine(_simple_family(
    "CPU", "Ocelot on the simulated Intel Xeon (Intel SDK)",
    lambda cat, scale: OcelotBackend(cat, "cpu", data_scale=scale),
    is_ocelot=True,
))
register_engine(_simple_family(
    "GPU", "Ocelot on the simulated NVIDIA GTX 460",
    lambda cat, scale: OcelotBackend(cat, "gpu", data_scale=scale),
    is_ocelot=True,
))
register_engine(_simple_family(
    "HET", "heterogeneous scheduler owning CPU and GPU at once",
    lambda cat, scale: HeterogeneousBackend(cat, data_scale=scale),
    is_ocelot=True,
))


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
