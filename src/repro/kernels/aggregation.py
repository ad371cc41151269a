"""Grouped aggregation kernels (paper §4.1.7).

Ungrouped aggregation is the binary reduction in
:mod:`repro.kernels.primitives`.  Grouped aggregation uses the paper's
hierarchical scheme: work-groups build intermediate aggregation tables
over disjoint partitions using atomic operations in local memory, then one
thread per group folds the partials into the final aggregate.

The synchronisation-overhead mitigation the paper describes is modelled
through the work profile: values for each group are spread across
``accumulators`` addresses (chosen inversely proportional to the group
count by the host), so the contention the device model charges falls as
the accumulator count rises.  When the table does not fit into local
memory the host launches the same kernel flagged for global memory, which
doubles the charged atomic traffic (the local-memory discount is gone).

Floating-point atomics are emulated via compare-and-swap on integers, as
required by OpenCL 1.x (paper footnote 7) — the work profile charges
float atomics at twice the integer rate for that reason.
"""

from __future__ import annotations

import numpy as np

from ..cl import KernelDef, KernelWork, params
from .primitives import chunk_bounds, fold_identity

AGG_OPS = ("sum", "min", "max", "count")


def segmented_reduce(
    gids: np.ndarray, vals: np.ndarray | None, ngroups: int, op: str, dtype
) -> np.ndarray:
    """Per-group reduction of ``vals`` (host-side mirror, used by both the
    vectorised driver and the MonetDB substrate)."""
    ngroups = int(ngroups)
    if op == "count":
        return np.bincount(gids, minlength=ngroups).astype(dtype)
    if op == "sum" and (np.dtype(dtype).kind == "f" or _float64_exact(vals)):
        return np.bincount(gids, weights=vals, minlength=ngroups).astype(dtype)
    # one unbuffered scatter-reduce, in row order, into the identity; a
    # NaN propagates as it does through a reduction, without the warning
    out = np.full(ngroups, fold_identity(op, dtype), dtype=dtype)
    reducer = {"sum": np.add, "min": np.minimum, "max": np.maximum}[op]
    with np.errstate(invalid="ignore"):
        reducer.at(out, gids, vals.astype(dtype, copy=False))
    return out


def _float64_exact(vals: np.ndarray) -> bool:
    """Whether float64 adds any subset of the integers ``vals`` exactly
    (``bincount``'s weights are float64; otherwise the integer sum folds
    sorted runs): four-byte values always do below 2**22 rows,
    eight-byte ones while ``n * max|v|`` < 2**53."""
    n = vals.size
    if n == 0 or vals.dtype.itemsize <= 4 and n < 2 ** 22:
        return True
    return max(-int(vals.min()), int(vals.max())) * n < 2 ** 53


def _grouped_partial_vec(ctx, partials, gids, vals, n, ngroups, op, accums, in_local):
    n = int(n)
    parts, table_width = partials.shape  # host-sized (>= max(ngroups, 1))
    bounds = chunk_bounds(n, parts)
    for part in range(parts):
        lo, hi = bounds[part], bounds[part + 1]
        chunk_vals = None if op == "count" else vals[lo:hi]
        partials[part, :] = segmented_reduce(
            gids[lo:hi], chunk_vals, table_width, op, partials.dtype
        )


def _grouped_partial_work(ctx, partials, gids, vals, n, ngroups, op, accums, in_local):
    n, ngroups, accums = int(n), int(ngroups), int(accums)
    value_bytes = 0 if op == "count" else n * vals.dtype.itemsize
    atomic_ops = n
    if op != "count" and vals.dtype.kind == "f":
        atomic_ops *= 2  # float atomics emulated via integer CAS
    if bool(in_local):
        atomic_ops //= 2  # local-memory atomics run at L1/shared speed
    else:
        atomic_ops *= 2  # global-memory fallback
    # Every work-group accumulates into its own table, so the contended
    # address space is (groups x accumulators) per work-group.
    work_groups = partials.shape[0]
    return KernelWork(
        elements=n,
        bytes_read=n * gids.dtype.itemsize + value_bytes,
        bytes_written=partials.nbytes,
        ops=2 * n,
        atomic_ops=atomic_ops,
        atomic_addresses=max(1, ngroups * accums * work_groups),
    )


def _grouped_partial_ref(wi, partials, gids, vals, n, ngroups, op, accums, in_local):
    """Turn-taking emulation of local-memory atomic accumulation.

    Work-items accumulate privately over their partition, then merge into
    the work-group's partial table one item per turn (barrier-separated),
    which is race-free and order-insensitive for sum/min/max/count.
    """
    n, ngroups = int(n), int(ngroups)
    private: dict[int, object] = {}
    for i in wi.partition(n):
        g = int(gids[i])
        v = 1 if op == "count" else vals[i]
        if g not in private:
            private[g] = v
        elif op in ("sum", "count"):
            private[g] += v
        elif op == "min":
            private[g] = min(private[g], v)
        else:
            private[g] = max(private[g], v)
    row = partials[wi.group_id()]
    for turn in range(wi.local_size()):
        if wi.local_id() == turn:
            for g, v in private.items():
                current = row[g]
                if op in ("sum", "count"):
                    row[g] = current + v
                elif op == "min":
                    row[g] = min(current, v)
                else:
                    row[g] = max(current, v)
        yield
    return


GROUPED_AGG_PARTIAL = KernelDef(
    name="grouped_agg_partial",
    params=params(
        "inout:partials in:gids in:vals scalar:n scalar:ngroups scalar:op "
        "scalar:accums scalar:in_local"
    ),
    vec_fn=_grouped_partial_vec,
    work_fn=_grouped_partial_work,
    ref_fn=_grouped_partial_ref,
    source="""
__kernel void grouped_agg_partial(__global ACC* partials,
                                  __global const uint* gids,
                                  __global const T* vals, uint n,
                                  uint ngroups) {
    __local ACC table[NGROUPS * ACCUMS];     /* or __global fallback */
    for (uint i = FIRST(n); i < LAST(n); i += STEP)
        ATOMIC_OP(&table[gids[i] * ACCUMS + lid % ACCUMS], vals[i]);
    barrier(CLK_LOCAL_MEM_FENCE);
    /* fold the ACCUMS accumulators, write the group partials */
}
""",
)


def _grouped_final_vec(ctx, result, partials, ngroups, op):
    ngroups = int(ngroups)
    if op in ("sum", "count"):
        result[:ngroups] = partials[:, :ngroups].sum(axis=0)
    elif op == "min":
        result[:ngroups] = partials[:, :ngroups].min(axis=0)
    else:
        result[:ngroups] = partials[:, :ngroups].max(axis=0)


def _grouped_final_work(ctx, result, partials, ngroups, op):
    return KernelWork(
        elements=int(ngroups),
        bytes_read=partials.nbytes,
        bytes_written=result.nbytes,
        ops=partials.size,
    )


def _grouped_final_ref(wi, result, partials, ngroups, op):
    parts = partials.shape[0]
    for g in wi.partition(int(ngroups)):
        acc = partials[0][g]
        for p in range(1, parts):
            v = partials[p][g]
            if op in ("sum", "count"):
                acc = acc + v
            elif op == "min":
                acc = min(acc, v)
            else:
                acc = max(acc, v)
        result[g] = acc
    return
    yield  # pragma: no cover


GROUPED_AGG_FINAL = KernelDef(
    name="grouped_agg_final",
    params=params("out:result in:partials scalar:ngroups scalar:op"),
    vec_fn=_grouped_final_vec,
    work_fn=_grouped_final_work,
    ref_fn=_grouped_final_ref,
    source="""
__kernel void grouped_agg_final(__global ACC* result,
                                __global const ACC* partials, uint ngroups) {
    /* one thread per group folds the per-work-group partials */
    uint g = global_id();
    ACC acc = IDENTITY;     /* 0; min/max: +-INFINITY, or the int limit */
    for (uint p = 0; p < PARTS; ++p) acc = OP(acc, partials[p * ngroups + g]);
    result[g] = acc;
}
""",
)


def accumulators_for(ngroups: int, local_mem_bytes: int, acc_itemsize: int = 8):
    """Host policy: accumulators per group, inversely proportional to the
    group count (paper §4.1.7), capped so the table fits local memory.

    Returns ``(accums, fits_local)``.
    """
    ngroups = max(1, int(ngroups))
    accums = max(1, min(512, 2048 // ngroups))
    while accums > 1 and ngroups * accums * acc_itemsize > local_mem_bytes:
        accums //= 2
    fits_local = ngroups * accums * acc_itemsize <= local_mem_bytes
    return accums, fits_local


LIBRARY = {
    k.name: k for k in (GROUPED_AGG_PARTIAL, GROUPED_AGG_FINAL)
}
