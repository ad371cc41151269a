"""``repro.fuse`` — the operator-fusion subsystem.

Per-operator execution pays a fixed kernel-launch plus an intermediate
result buffer for every MAL instruction, which dominates element-wise
``batcalc`` chains (Q1's ``1-d``, ``ep*(1-d)``, ``ep*(1-d)*(1+t)``).
This package removes that tax at **rewrite time** in three layers:

1. the **pass** (:mod:`repro.fuse.passes`) finds maximal DAG regions of
   fusable instructions whose intermediates have no external consumers
   and replaces each with one ``fuse.pipe`` instruction carrying the
   region's expression tree,
2. the **kernel generator** (:mod:`repro.fuse.codegen`) compiles a tree
   into one single-pass generated kernel, memoised by structural hash,
3. **dispatch** (:mod:`repro.fuse.dispatch`) executes ``fuse.pipe`` on
   every engine family: the scalar baselines, single-device Ocelot, the
   heterogeneous scheduler (which costs the fused op as one
   transfer-in/one-out with summed compute — fusion changes *placement
   decisions*, not just launch counts) and the sharded engine (fused
   instructions fan out unchanged; they stay element-wise per row).

Gated by the ``fusion`` engine knob (:data:`repro.engines.KNOBS`).  See
ARCHITECTURE.md §"Fusion" for the pass -> codegen -> dispatch diagram.
"""

from .codegen import KERNEL_CACHE, KernelCache, build_kernel
from .expr import (
    FConst,
    FIn,
    FOp,
    FSelect,
    FusedOutput,
    FusedPipe,
    evaluate,
    node_dtype,
)
from .passes import (
    MIN_REGION,
    count_pipes,
    fuse_program,
)

__all__ = [
    "FConst",
    "FIn",
    "FOp",
    "FSelect",
    "FusedOutput",
    "FusedPipe",
    "KERNEL_CACHE",
    "KernelCache",
    "MIN_REGION",
    "build_kernel",
    "count_pipes",
    "evaluate",
    "fuse_program",
    "node_dtype",
]
