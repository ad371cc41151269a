"""Parallel primitives: scan, gather, reduce, element-wise maps.

These are the building blocks the paper's operators are composed from
(prefix sums for write-offset computation [33], gather/scatter [18],
binary reduction [24]).  Every kernel follows the package conventions:

* ``vec_fn`` — vectorised numpy execution ("compiled" code),
* ``work_fn`` — cost-model :class:`~repro.cl.profile.KernelWork`,
* ``ref_fn`` — work-item-level reference semantics (where instructive),
* ``source`` — the pseudo-OpenCL C the kernel corresponds to.
"""

from __future__ import annotations

import functools

import numpy as np

from ..cl import KernelDef, KernelWork, params


@functools.lru_cache(maxsize=256)
def chunk_bounds(n: int, parts: int) -> np.ndarray:
    """The ``parts + 1`` ascending offsets that cut ``[0, n)`` into
    ``parts`` contiguous chunks, one per thread.

    A pure function of its arguments that every pass of a sort and every
    chunked reduction asks for again, so it is memoised; callers share
    the array, which is therefore read-only.
    """
    bounds = np.linspace(0, n, parts + 1, dtype=np.int64)
    bounds.setflags(write=False)
    return bounds


def fold_identity(fold: str, dtype):
    """What an empty partition contributes to a ``sum`` / ``count`` /
    ``min`` / ``max`` fold — the one definition under every level that
    merges partials (work-groups here, then devices, morsels, shards).

    Zero, or the value every element of ``dtype`` beats: floats start
    from ``±inf`` (a finite extreme would beat a column whose values
    really are ``±inf``), integers from their limits.
    """
    dtype = np.dtype(dtype)
    if fold in ("sum", "count"):
        return dtype.type(0)
    if dtype.kind == "f":
        return dtype.type(np.inf if fold == "min" else -np.inf)
    info = np.iinfo(dtype)
    return dtype.type(info.max if fold == "min" else info.min)


# ---------------------------------------------------------------------------
# the element-wise rule (MonetDB batcalc, fused pipes, the kernels below)
# ---------------------------------------------------------------------------

#: ``batcalc``'s element-wise ops: the one table every executor computes
#: ``a op b`` from
ELEMENTWISE = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "intdiv": np.floor_divide,
    "and": np.logical_and,
    "or": np.logical_or,
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}

#: the comparisons of :data:`ELEMENTWISE`; they and the logical ops
#: answer truth values (``uint8``)
COMPARISONS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))
_TRUTH_OPS = COMPARISONS | {"and", "or"}


def calc_result_dtype(a_dtype, b_dtype, op: str) -> np.dtype:
    """Result tail type of a ``batcalc`` element-wise operation.

    Four-byte types stay four-byte (the paper's scope); integer division
    widens to ``float64`` (standing in for SQL decimal division);
    comparisons and logic answer ``uint8`` truth values.
    """
    a_dtype, b_dtype = np.dtype(a_dtype), np.dtype(b_dtype)
    if op in _TRUTH_OPS:
        return np.dtype(np.uint8)
    if op == "div" and a_dtype.kind in "iu" and b_dtype.kind in "iu":
        return np.dtype(np.float64)
    return np.result_type(a_dtype, b_dtype)


def _dtype_of(operand) -> np.dtype:
    """A column's type; a constant's is the smallest holding its value."""
    if isinstance(operand, np.ndarray):
        return operand.dtype
    return np.min_scalar_type(operand)


def elementwise(op: str, a, b, out=None):
    """``a op b`` over columns and constants, as every executor computes
    it: MonetDB's ``batcalc``, the fused evaluator and the ``ewise`` /
    ``ewise_scalar`` kernels.

    Arithmetic runs in the result's type (:func:`calc_result_dtype`):
    both operands are cast to it first, so ``v + 2147483647`` over an
    int32 ``v`` adds in int64 instead of wrapping, while ``v + 1``
    stays int32 and wraps at 2³¹ - 1.  A comparison or a logical op
    runs in numpy's common type of its operands — a constant compares
    exactly, whatever the column's type — and answers ``uint8``.
    ``out`` (a kernel's result buffer) receives the result."""
    if op not in _TRUTH_OPS:
        dtype = calc_result_dtype(_dtype_of(a), _dtype_of(b), op)
        a, b = (v.astype(dtype, copy=False) if isinstance(v, np.ndarray)
                else dtype.type(v) for v in (a, b))
    result = ELEMENTWISE[op](a, b, out=out)
    if out is None and op in _TRUTH_OPS:
        return result.view(np.uint8)
    return result


#: a kernel's ``op`` argument beyond :data:`ELEMENTWISE`: the operand-
#: order variants a constant on the left launches
_REVERSED = {"rsub": "sub", "rdiv": "div"}


def _kernel_op(op: str, a, b, out=None):
    """``a op b`` for a kernel's ``op``: :func:`elementwise`, or a
    variant — ``rsub`` / ``rdiv`` are ``b - a`` / ``b / a``, ``xor``
    flips the bits of a descending sort's keys."""
    if op == "xor":
        return np.bitwise_xor(a, b, out=out)
    if op in _REVERSED:
        return elementwise(_REVERSED[op], b, a, out)
    return elementwise(op, a, b, out)


_REDUCERS = {"sum": np.sum, "min": np.min, "max": np.max}


# ---------------------------------------------------------------------------
# prefix sum (exclusive scan)
# ---------------------------------------------------------------------------

def _prefix_sum_vec(ctx, out, inp, n):
    n = int(n)
    np.cumsum(inp[:n], out=out[:n])
    if n:
        total = out[n - 1]
        out[1:n] = out[: n - 1]
        out[0] = 0
        if out.size > n:  # optional total slot appended by the host
            out[n] = total
    elif out.size:
        out[0] = 0  # the total slot of an empty scan (buffers are not zeroed)


def _prefix_sum_work(ctx, out, inp, n):
    n = int(n)
    item = inp.dtype.itemsize
    # Work-efficient scan: ~2n reads + 2n writes across up/down sweeps.
    return KernelWork(
        elements=n,
        bytes_read=2 * n * item,
        bytes_written=2 * n * item,
        ops=2 * n,
    )


def _prefix_sum_ref(wi, out, inp, n):
    """Hillis-Steele scan, one work-group over the whole (small) input.

    A faithful local-memory scan: each step reads the neighbour ``stride``
    away and barriers between steps.  Only used by the reference driver on
    work-group-sized inputs; the host composes larger scans from chunks.
    """
    n = int(n)
    gid = wi.global_id()
    # inclusive scan in-place on a copy staged into 'out'
    if gid < n:
        out[gid] = inp[gid]
    yield
    stride = 1
    while stride < wi.global_size():
        val = out[gid - stride] if gid >= stride and gid < n else None
        yield
        if val is not None:
            out[gid] += val
        yield
        stride *= 2
    # shift to exclusive
    prev = out[gid - 1] if 0 < gid < n else None
    yield
    if gid < n:
        out[gid] = prev if gid else 0
    return


PREFIX_SUM = KernelDef(
    name="prefix_sum",
    params=params("out:res in:inp scalar:n"),
    vec_fn=_prefix_sum_vec,
    work_fn=_prefix_sum_work,
    ref_fn=_prefix_sum_ref,
    source="""
__kernel void prefix_sum(__global T* res, __global const T* inp, uint n) {
    /* work-efficient Blelloch scan over local tiles + tile-offset pass */
}
""",
)


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------

def _gather_vec(ctx, out, src, idx, n):
    n = int(n)
    np.take(src, idx[:n].astype(np.int64, copy=False), out=out[:n])


def _gather_work(ctx, out, src, idx, n):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * idx.dtype.itemsize,
        bytes_written=n * out.dtype.itemsize,
        random_bytes=n * src.dtype.itemsize,
        ops=n,
    )


def _gather_ref(wi, out, src, idx, n):
    for i in wi.partition(int(n)):
        out[i] = src[idx[i]]
    return
    yield  # pragma: no cover - marks this as a generator


GATHER = KernelDef(
    name="gather",
    params=params("out:res in:src in:idx scalar:n"),
    vec_fn=_gather_vec,
    work_fn=_gather_work,
    ref_fn=_gather_ref,
    source="""
__kernel void gather(__global T* res, __global const T* src,
                     __global const uint* idx, uint n) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP)
        res[i] = src[idx[i]];
}
""",
)


def _gather_add_vec(ctx, out, src, idx, n, frame):
    """``out[i] = src[idx[i]] + frame``, the sum taken at ``out``'s width
    (frame-of-reference decode: a narrow code plus a frame beyond it)."""
    n = int(n)
    codes = src.take(idx[:n].astype(np.int64, copy=False))
    np.add(codes, out.dtype.type(frame), out=out[:n], casting="unsafe")


def _gather_add_work(ctx, out, src, idx, n, frame):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * idx.dtype.itemsize,
        bytes_written=n * out.dtype.itemsize,
        random_bytes=n * src.dtype.itemsize,
        ops=2 * n,
    )


def _gather_add_ref(wi, out, src, idx, n, frame):
    # exact sum, then C's narrowing cast to T (integer columns only)
    wrap = (1 << (8 * out.dtype.itemsize)) - 1
    for i in wi.partition(int(n)):
        total = (int(src[idx[i]]) + int(frame)) & wrap
        out[i] = np.uint64(total).astype(out.dtype)
    return
    yield  # pragma: no cover


GATHER_ADD = KernelDef(
    name="gather_add",
    params=params("out:res in:src in:idx scalar:n scalar:frame"),
    vec_fn=_gather_add_vec,
    work_fn=_gather_add_work,
    ref_fn=_gather_add_ref,
    source="""
__kernel void gather_add(__global T* res, __global const CODE* src,
                         __global const uint* idx, uint n, T frame) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP)
        res[i] = (T)src[idx[i]] + frame;
}
""",
)


def _gather2_vec(ctx, out, src, mid, idx, n):
    """``out[i] = src[mid[idx[i]]]`` — a gather through two index
    vectors; only the ``n`` addressed entries of ``mid`` are read."""
    n = int(n)
    inner = mid.take(idx[:n].astype(np.int64, copy=False))
    np.take(src, inner.astype(np.int64, copy=False), out=out[:n])


def _gather2_work(ctx, out, src, mid, idx, n):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * idx.dtype.itemsize,
        bytes_written=n * out.dtype.itemsize,
        random_bytes=n * (mid.dtype.itemsize + src.dtype.itemsize),
        ops=2 * n,
    )


def _gather2_ref(wi, out, src, mid, idx, n):
    for i in wi.partition(int(n)):
        out[i] = src[mid[idx[i]]]
    return
    yield  # pragma: no cover


GATHER2 = KernelDef(
    name="gather2",
    params=params("out:res in:src in:mid in:idx scalar:n"),
    vec_fn=_gather2_vec,
    work_fn=_gather2_work,
    ref_fn=_gather2_ref,
    source="""
__kernel void gather2(__global T* res, __global const T* src,
                      __global const MID* mid, __global const uint* idx,
                      uint n) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP)
        res[i] = src[mid[idx[i]]];
}
""",
)


# ---------------------------------------------------------------------------
# binary reduction (ungrouped aggregation, paper §4.1.7 / [18])
# ---------------------------------------------------------------------------

def _reduce_partial_vec(ctx, partials, inp, n, op):
    """Stage 1: each work-group reduces its partition into one slot."""
    n = int(n)
    reducer = _REDUCERS[op]
    groups = partials.shape[0]
    bounds = chunk_bounds(n, groups)
    identity = fold_identity(op, partials.dtype)
    for g in range(groups):
        lo, hi = bounds[g], bounds[g + 1]
        partials[g] = reducer(inp[lo:hi]) if hi > lo else identity


def _reduce_partial_work(ctx, partials, inp, n, op):
    n = int(n)
    # The 2013-beta Intel SDK failed to vectorise the accumulation loop
    # (paper §5.2.3 measured Ocelot ~30 % behind MP on this operator);
    # the scalar loop costs ~12 issue slots per element, which makes the
    # kernel compute-bound on the CPU while GPUs stay bandwidth-bound.
    return KernelWork(
        elements=n,
        bytes_read=n * inp.dtype.itemsize,
        bytes_written=partials.nbytes,
        ops=12 * n,
    )


REDUCE_PARTIAL = KernelDef(
    name="reduce_partial",
    params=params("out:partials in:inp scalar:n scalar:op"),
    vec_fn=_reduce_partial_vec,
    work_fn=_reduce_partial_work,
    source="""
__kernel void reduce_partial(__global ACC* partials, __global const T* inp,
                             uint n) {
    ACC acc = IDENTITY;     /* 0; min/max: +-INFINITY, or the int limit */
    for (uint i = FIRST(n); i < LAST(n); i += STEP) acc = OP(acc, inp[i]);
    __local ACC tile[WG]; tile[lid] = acc; barrier(CLK_LOCAL_MEM_FENCE);
    for (uint s = WG/2; s; s >>= 1) { /* pairwise fold */ }
}
""",
)


def _reduce_final_vec(ctx, out, partials, count, op):
    reducer = _REDUCERS[op]
    out[0] = reducer(partials[: int(count)])


def _reduce_final_work(ctx, out, partials, count, op):
    count = int(count)
    return KernelWork(
        elements=count,
        bytes_read=count * partials.dtype.itemsize,
        bytes_written=out.dtype.itemsize,
        ops=count,
    )


REDUCE_FINAL = KernelDef(
    name="reduce_final",
    params=params("out:res in:partials scalar:count scalar:op"),
    vec_fn=_reduce_final_vec,
    work_fn=_reduce_final_work,
    source="""
__kernel void reduce_final(__global ACC* res, __global const ACC* partials,
                           uint count) { /* single work-group fold */ }
""",
)


# ---------------------------------------------------------------------------
# element-wise maps (MonetDB batcalc equivalents, comparisons included)
# ---------------------------------------------------------------------------

def _ewise_vec(ctx, out, a, b, n, op):
    n = int(n)
    _kernel_op(op, a[:n], b[:n], out[:n])


def _ewise_work(ctx, out, a, b, n, op):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * (a.dtype.itemsize + b.dtype.itemsize),
        bytes_written=n * out.dtype.itemsize,
        ops=n,
    )


def _ewise_ref(wi, out, a, b, n, op):
    for i in wi.partition(int(n)):
        _kernel_op(op, a[i:i + 1], b[i:i + 1], out[i:i + 1])
    return
    yield  # pragma: no cover


EWISE = KernelDef(
    name="ewise",
    params=params("out:res in:a in:b scalar:n scalar:op"),
    vec_fn=_ewise_vec,
    work_fn=_ewise_work,
    ref_fn=_ewise_ref,
    source="""
__kernel void ewise(__global T* res, __global const T* a,
                    __global const T* b, uint n) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP) res[i] = OP(a[i], b[i]);
}
""",
)


def _ewise_scalar_vec(ctx, out, a, n, op, value):
    n = int(n)
    # an arithmetic constant takes the *result's* type (``T cnst``): an
    # int column times 0.5 is a float column, and 0.5 must not become
    # int(0.5); a comparison's constant compares exactly
    _kernel_op(op, a[:n], value, out[:n])


def _ewise_scalar_work(ctx, out, a, n, op, value):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * a.dtype.itemsize,
        bytes_written=n * out.dtype.itemsize,
        ops=n,
    )


def _ewise_scalar_ref(wi, out, a, n, op, value):
    for i in wi.partition(int(n)):
        _kernel_op(op, a[i:i + 1], value, out[i:i + 1])
    return
    yield  # pragma: no cover


EWISE_SCALAR = KernelDef(
    name="ewise_scalar",
    params=params("out:res in:a scalar:n scalar:op scalar:value"),
    vec_fn=_ewise_scalar_vec,
    work_fn=_ewise_scalar_work,
    ref_fn=_ewise_scalar_ref,
    source="""
__kernel void ewise_scalar(__global T* res, __global const T* a, uint n,
                           T cnst) {
    res[global_id()] = OP(a[global_id()], cnst);
}
""",
)


# ---------------------------------------------------------------------------
# fill / iota
# ---------------------------------------------------------------------------

def _fill_vec(ctx, out, n, value):
    out[: int(n)] = value


def _fill_work(ctx, out, n, value):
    n = int(n)
    return KernelWork(elements=n, bytes_written=n * out.dtype.itemsize)


FILL = KernelDef(
    name="fill",
    params=params("out:res scalar:n scalar:value"),
    vec_fn=_fill_vec,
    work_fn=_fill_work,
    source="__kernel void fill(__global T* res, uint n, T v) { ... }",
)


def _iota_vec(ctx, out, n, start):
    n = int(n)
    out[:n] = np.arange(start, start + n, dtype=out.dtype)


def _iota_work(ctx, out, n, start):
    n = int(n)
    return KernelWork(elements=n, bytes_written=n * out.dtype.itemsize, ops=n)


def _iota_ref(wi, out, n, start):
    for i in wi.partition(int(n)):
        out[i] = start + i
    return
    yield  # pragma: no cover


IOTA = KernelDef(
    name="iota",
    params=params("out:res scalar:n scalar:start"),
    vec_fn=_iota_vec,
    work_fn=_iota_work,
    ref_fn=_iota_ref,
    source="__kernel void iota(__global T* res, uint n, T s) { ... }",
)


# ---------------------------------------------------------------------------
# conditional selection (batcalc.ifthenelse)
# ---------------------------------------------------------------------------

def _where_vv_vec(ctx, out, cond, a, b, n):
    n = int(n)
    out[:n] = np.where(cond[:n] != 0, a[:n], b[:n])


def _where_vv_work(ctx, out, cond, a, b, n):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * (1 + a.dtype.itemsize + b.dtype.itemsize),
        bytes_written=n * out.dtype.itemsize,
        ops=n,
    )


def _where_vv_ref(wi, out, cond, a, b, n):
    for i in wi.partition(int(n)):
        out[i] = a[i] if cond[i] else b[i]
    return
    yield  # pragma: no cover


WHERE_VV = KernelDef(
    name="where_vv",
    params=params("out:res in:cond in:a in:b scalar:n"),
    vec_fn=_where_vv_vec,
    work_fn=_where_vv_work,
    ref_fn=_where_vv_ref,
    source="""
__kernel void where_vv(__global T* res, __global const uchar* cond,
                       __global const T* a, __global const T* b, uint n) {
    res[global_id()] = cond[global_id()] ? a[global_id()] : b[global_id()];
}
""",
)


def _where_vs_vec(ctx, out, cond, a, n, other):
    n = int(n)
    out[:n] = np.where(cond[:n] != 0, a[:n], out.dtype.type(other))


def _where_vs_work(ctx, out, cond, a, n, other):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n * (1 + a.dtype.itemsize),
        bytes_written=n * out.dtype.itemsize,
        ops=n,
    )


def _where_vs_ref(wi, out, cond, a, n, other):
    for i in wi.partition(int(n)):
        out[i] = a[i] if cond[i] else other
    return
    yield  # pragma: no cover


WHERE_VS = KernelDef(
    name="where_vs",
    params=params("out:res in:cond in:a scalar:n scalar:other"),
    vec_fn=_where_vs_vec,
    work_fn=_where_vs_work,
    ref_fn=_where_vs_ref,
    source="""
__kernel void where_vs(__global T* res, __global const uchar* cond,
                       __global const T* a, uint n, T other) {
    res[global_id()] = cond[global_id()] ? a[global_id()] : other;
}
""",
)


def _where_ss_vec(ctx, out, cond, n, then_v, else_v):
    n = int(n)
    out[:n] = np.where(
        cond[:n] != 0, out.dtype.type(then_v), out.dtype.type(else_v)
    )


def _where_ss_work(ctx, out, cond, n, then_v, else_v):
    n = int(n)
    return KernelWork(
        elements=n,
        bytes_read=n,
        bytes_written=n * out.dtype.itemsize,
        ops=n,
    )


def _where_ss_ref(wi, out, cond, n, then_v, else_v):
    for i in wi.partition(int(n)):
        out[i] = then_v if cond[i] else else_v
    return
    yield  # pragma: no cover


WHERE_SS = KernelDef(
    name="where_ss",
    params=params("out:res in:cond scalar:n scalar:then_v scalar:else_v"),
    vec_fn=_where_ss_vec,
    work_fn=_where_ss_work,
    ref_fn=_where_ss_ref,
    source="""
__kernel void where_ss(__global T* res, __global const uchar* cond, uint n,
                       T tv, T ev) {
    res[global_id()] = cond[global_id()] ? tv : ev;
}
""",
)


LIBRARY = {
    k.name: k
    for k in (
        PREFIX_SUM,
        GATHER,
        GATHER_ADD,
        GATHER2,
        REDUCE_PARTIAL,
        REDUCE_FINAL,
        EWISE,
        EWISE_SCALAR,
        FILL,
        IOTA,
        WHERE_VV,
        WHERE_VS,
        WHERE_SS,
    )
}
