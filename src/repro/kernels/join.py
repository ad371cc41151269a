"""Join kernels (paper §4.1.5, after He et al. [20]).

Equi-joins are hash joins over the multi-stage lookup table of [19]: the
build side is radix-sorted into key runs, a hash table maps each distinct
key to its run, and probes expand the runs.  Theta-joins use a
block-nested-loop kernel pair.

Both follow the paper's two-step output scheme when the result size is
unknown: a *count* kernel determines each thread's result cardinality, a
prefix sum turns the counts into unique write offsets, and a *write*
kernel stores the pairs without synchronisation.  (When a tight upper
bound is known — e.g. joining against a key column — the host skips the
count pass, as §4.1.5 describes.)
"""

from __future__ import annotations

import numpy as np

from ..cl import KernelDef, KernelWork, params

THETA_OPS = ("<", "<=", ">", ">=", "==", "!=")

_NLJ_BLOCK = 8192


def _theta_mask(left_block: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    lhs = left_block[:, None]
    if op == "<":
        return lhs < right
    if op == "<=":
        return lhs <= right
    if op == ">":
        return lhs > right
    if op == ">=":
        return lhs >= right
    if op == "==":
        return lhs == right
    if op == "!=":
        return lhs != right
    raise ValueError(f"unknown theta op {op!r}")


# ---------------------------------------------------------------------------
# hash-join count / expand
# ---------------------------------------------------------------------------

def _join_counts_vec(ctx, counts, run_counts, run_idx, found_bitmap, n):
    n = int(n)
    found = np.unpackbits(found_bitmap, bitorder="little", count=n).astype(bool)
    result = np.zeros(n, dtype=counts.dtype)
    hit_rows = np.nonzero(found)[0]
    result[hit_rows] = run_counts[run_idx[hit_rows].astype(np.int64)]
    counts[:n] = result


def _join_counts_work(ctx, counts, run_counts, run_idx, found_bitmap, n):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=4 * n + (n + 7) // 8,
        random_bytes=4 * n,
        bytes_written=counts.dtype.itemsize * n,
        ops=2 * n,
    )


def _join_counts_ref(wi, counts, run_counts, run_idx, found_bitmap, n):
    for i in wi.partition(int(n)):
        byte, bit = divmod(i, 8)
        hit = bool(found_bitmap[byte] & (1 << bit))
        counts[i] = run_counts[run_idx[i]] if hit else 0
    return
    yield  # pragma: no cover


JOIN_GATHER_COUNTS = KernelDef(
    name="join_gather_counts",
    params=params(
        "out:counts in:run_counts in:run_idx in:found_bitmap scalar:n"
    ),
    vec_fn=_join_counts_vec,
    work_fn=_join_counts_work,
    ref_fn=_join_counts_ref,
    source="""
__kernel void join_gather_counts(__global uint* counts,
                                 __global const uint* run_counts,
                                 __global const uint* run_idx,
                                 __global const uchar* found, uint n) {
    counts[i] = TESTBIT(found, i) ? run_counts[run_idx[i]] : 0;
}
""",
)


def _join_expand_vec(
    ctx, left_out, right_out, offsets, run_idx, run_starts, run_counts,
    build_oids, found_bitmap, n,
):
    n = int(n)
    found = np.unpackbits(found_bitmap, bitorder="little", count=n).astype(bool)
    rows = np.nonzero(found)[0]
    if rows.size == 0:
        return
    runs = run_idx[rows].astype(np.int64)
    cnts = run_counts[runs].astype(np.int64)
    keep = cnts > 0
    rows, runs, cnts = rows[keep], runs[keep], cnts[keep]
    if rows.size == 0:
        return
    offs = offsets[rows].astype(np.int64)
    total = int(cnts.sum())
    left_out[:total] = np.repeat(rows, cnts)
    intra = np.arange(total, dtype=np.int64) - np.repeat(offs, cnts)
    right_positions = np.repeat(run_starts[runs].astype(np.int64), cnts) + intra
    right_out[:total] = build_oids[right_positions]


def _join_expand_work(
    ctx, left_out, right_out, offsets, run_idx, run_starts, run_counts,
    build_oids, found_bitmap, n,
):
    n = int(n)
    total = left_out.size
    return KernelWork(
        elements=n,
        bytes_read=8 * n + (n + 7) // 8,
        random_bytes=4 * total,
        bytes_written=8 * total,
        ops=n + 2 * total,
    )


def _join_expand_ref(
    wi, left_out, right_out, offsets, run_idx, run_starts, run_counts,
    build_oids, found_bitmap, n,
):
    for i in wi.partition(int(n)):
        byte, bit = divmod(i, 8)
        if not (found_bitmap[byte] & (1 << bit)):
            continue
        run = int(run_idx[i])
        cursor = int(offsets[i])
        start = int(run_starts[run])
        for k in range(int(run_counts[run])):
            left_out[cursor + k] = i
            right_out[cursor + k] = build_oids[start + k]
    return
    yield  # pragma: no cover


JOIN_EXPAND = KernelDef(
    name="join_expand",
    params=params(
        "out:left_out out:right_out in:offsets in:run_idx in:run_starts "
        "in:run_counts in:build_oids in:found_bitmap scalar:n"
    ),
    vec_fn=_join_expand_vec,
    work_fn=_join_expand_work,
    ref_fn=_join_expand_ref,
    source="""
__kernel void join_expand(__global uint* lo, __global uint* ro, ...) {
    /* second stage: write matches at the thread's prefix-sum offset */
}
""",
)


# ---------------------------------------------------------------------------
# nested-loop (theta) join
# ---------------------------------------------------------------------------

def _nlj_count_vec(ctx, counts, left, right, nl, nr, op):
    nl, nr = int(nl), int(nr)
    rhs = right[:nr]
    for lo in range(0, nl, _NLJ_BLOCK):
        hi = min(lo + _NLJ_BLOCK, nl)
        mask = _theta_mask(left[lo:hi], rhs, op)
        counts[lo:hi] = mask.sum(axis=1).astype(counts.dtype)


def _nlj_count_work(ctx, counts, left, right, nl, nr, op):
    nl, nr = int(nl), int(nr)
    return KernelWork(
        elements=nl,
        bytes_read=4 * nl + 4 * nl * nr,  # right side rescanned per element
        bytes_written=counts.dtype.itemsize * nl,
        ops=nl * nr,
    )


def _nlj_count_ref(wi, counts, left, right, nl, nr, op):
    nr = int(nr)
    for i in wi.partition(int(nl)):
        counts[i] = int(_theta_mask(left[i : i + 1], right[:nr], op).sum())
    return
    yield  # pragma: no cover


NLJ_COUNT = KernelDef(
    name="nlj_count",
    params=params("out:counts in:left in:right scalar:nl scalar:nr scalar:op"),
    vec_fn=_nlj_count_vec,
    work_fn=_nlj_count_work,
    ref_fn=_nlj_count_ref,
    source="""
__kernel void nlj_count(__global uint* counts, __global const T* left,
                        __global const T* right, uint nl, uint nr) {
    uint c = 0;
    for (uint j = 0; j < nr; ++j) c += PREDICATE(left[i], right[j]);
    counts[i] = c;
}
""",
)


def _nlj_write_vec(
    ctx, left_out, right_out, offsets, left, right, nl, nr, op
):
    nl, nr = int(nl), int(nr)
    rhs = right[:nr]
    for lo in range(0, nl, _NLJ_BLOCK):
        hi = min(lo + _NLJ_BLOCK, nl)
        mask = _theta_mask(left[lo:hi], rhs, op)
        li, ri = np.nonzero(mask)
        if li.size == 0:
            continue
        rows = lo + li
        cnts = mask.sum(axis=1).astype(np.int64)
        offs = offsets[lo:hi].astype(np.int64)
        positions = np.repeat(offs, cnts) + (
            np.arange(li.size, dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(cnts)[:-1])), cnts)
        )
        left_out[positions] = rows
        right_out[positions] = ri


def _nlj_write_work(
    ctx, left_out, right_out, offsets, left, right, nl, nr, op
):
    nl, nr = int(nl), int(nr)
    total = left_out.size
    return KernelWork(
        elements=nl,
        bytes_read=8 * nl + 4 * nl * nr,
        random_bytes=8 * total,
        ops=nl * nr,
    )


def _nlj_write_ref(
    wi, left_out, right_out, offsets, left, right, nl, nr, op
):
    nr = int(nr)
    for i in wi.partition(int(nl)):
        cursor = int(offsets[i])
        hits = np.nonzero(_theta_mask(left[i : i + 1], right[:nr], op)[0])[0]
        for j in hits:
            left_out[cursor] = i
            right_out[cursor] = j
            cursor += 1
    return
    yield  # pragma: no cover


NLJ_WRITE = KernelDef(
    name="nlj_write",
    params=params(
        "out:left_out out:right_out in:offsets in:left in:right "
        "scalar:nl scalar:nr scalar:op"
    ),
    vec_fn=_nlj_write_vec,
    work_fn=_nlj_write_work,
    ref_fn=_nlj_write_ref,
    source="""
__kernel void nlj_write(__global uint* lo, __global uint* ro,
                        __global const uint* offsets, ...) {
    uint cursor = offsets[i];
    for (uint j = 0; j < nr; ++j)
        if (PREDICATE(left[i], right[j])) {
            lo[cursor] = i; ro[cursor++] = j;
        }
}
""",
)


LIBRARY = {
    k.name: k
    for k in (JOIN_GATHER_COUNTS, JOIN_EXPAND, NLJ_COUNT, NLJ_WRITE)
}
