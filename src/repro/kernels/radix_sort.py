"""Sort kernels: the binary radix ladder (paper §4.1.3, after Helluy [22]
/ Satish [31]) and a one-launch sort for inputs that fit local memory.

Each pass of the ladder processes ``RADIX_BITS`` bits (a pre-processor
constant: the paper uses 8 on the CPU and 4 on the GPU) in three kernels:

1. ``radix_histogram`` — every thread builds a private histogram of the
   current digit over its contiguous chunk of the input,
2. ``radix_offsets`` — the "shuffle": histograms are transposed so all
   buckets of the same digit are consecutive, and an exclusive prefix sum
   yields the global write offset for every (digit, thread) pair,
3. ``radix_reorder`` — every thread scatters its chunk stably to the
   offsets (``radix_reorder_first`` in the first pass, where a key's
   payload is its own position and no payload column exists yet).

A pass over a digit every key shares (the high digits of narrow keys)
moves nothing: its histogram puts each chunk's size under that digit and
its reorder copies keys and payload.

The reorder step requires contiguous per-thread chunks for stability, so
this kernel family always partitions chunk-wise on both device types (the
histogram/scatter locality is what the radix approach buys).  Keys are
bijectively encoded to ``uint32`` so signed integers and IEEE floats sort
correctly (``key_encode``), and the payload permutation — started by the
first pass, from the positions — is carried through every later pass so
the caller can reorder arbitrary columns afterwards.

``local_sort`` is the other end of the size range: when keys and
positions fit one work-group's ``__local`` memory the whole sort is a
bitonic network over *(key, position)* pairs in a single launch.  The
position breaks every tie, so the network's output is unique — exactly
the stable order the LSD ladder produces — and the kernel writes the
permutation itself (no ``iota``, no histogram or offset scratch).  The
host picks between the two from the input's nominal size and the
device's local-memory size (:func:`repro.ocelot.operators.sort_launches`).
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..cl import KernelDef, KernelWork, params
from .primitives import chunk_bounds

KEY_KIND_UINT = 0
KEY_KIND_INT = 1
KEY_KIND_FLOAT = 2

_SIGN = np.uint32(0x80000000)
_SIGN64 = np.uint64(0x8000000000000000)

#: dtype -> (encoding kind, unsigned view dtype, sign mask).  The paper's
#: operator scope is four-byte types; 8-byte keys exist so that aggregate
#: results (``sum`` -> float64/int64) remain sortable (ORDER BY revenue).
_KEY_SPECS = {
    np.dtype(np.uint32): (KEY_KIND_UINT, np.uint32, _SIGN),
    np.dtype(np.int32): (KEY_KIND_INT, np.uint32, _SIGN),
    np.dtype(np.float32): (KEY_KIND_FLOAT, np.uint32, _SIGN),
    np.dtype(np.int64): (KEY_KIND_INT, np.uint64, _SIGN64),
    np.dtype(np.float64): (KEY_KIND_FLOAT, np.uint64, _SIGN64),
    # narrow unsigned payloads (dictionary codes, FOR deltas from
    # repro.compress) zero-extend into uint32 keys — in OpenCL a plain
    # (uint)col[i] widening cast instead of the as_uint reinterpretation
    np.dtype(np.uint8): (KEY_KIND_UINT, np.uint32, _SIGN),
    np.dtype(np.uint16): (KEY_KIND_UINT, np.uint32, _SIGN),
}


def key_kind_for(dtype: np.dtype) -> int:
    """Encoding kind for a column dtype."""
    try:
        return _KEY_SPECS[np.dtype(dtype)][0]
    except KeyError:
        raise TypeError(f"radix sort does not support dtype {dtype}") from None


def key_dtype_for(dtype: np.dtype) -> np.dtype:
    """Unsigned key dtype the column encodes into (uint32 or uint64)."""
    return np.dtype(_KEY_SPECS[np.dtype(dtype)][1])


def encode_keys(col: np.ndarray) -> np.ndarray:
    """Order-preserving bijection into unsigned keys (host-side mirror).

    Floats canonicalise ``-0.0`` to ``+0.0`` first so the key order is
    consistent with comparison-based sorts (where the two are equal).
    """
    kind, udtype, sign = _KEY_SPECS[np.dtype(col.dtype)]
    if kind == KEY_KIND_FLOAT:
        col = col + col.dtype.type(0)  # -0.0 + 0.0 == +0.0
    if col.dtype.itemsize != np.dtype(udtype).itemsize:
        return col.astype(udtype)      # narrow uint: zero-extend
    u = col.view(udtype)
    if kind == KEY_KIND_UINT:
        return u.copy()
    if kind == KEY_KIND_INT:
        return u ^ sign
    negative = (u & sign) != 0
    return np.where(negative, ~u, u ^ sign)


def _key_encode_vec(ctx, out, col, n, kind):
    n, kind = int(n), int(kind)
    sign = _SIGN64 if out.dtype.itemsize == 8 else _SIGN
    if kind == KEY_KIND_FLOAT:
        col = col[:n] + col.dtype.type(0)  # canonicalise -0.0
        u = col.view(out.dtype)
        negative = (u & sign) != 0
        out[:n] = np.where(negative, ~u, u ^ sign)
        return
    if col.dtype.itemsize != out.dtype.itemsize:
        out[:n] = col[:n].astype(out.dtype)    # narrow uint: zero-extend
        return
    u = col[:n].view(out.dtype)
    if kind == KEY_KIND_UINT:
        out[:n] = u
    else:
        np.bitwise_xor(u, sign, out=out[:n])


def _key_encode_work(ctx, out, col, n, kind):
    n = int(n)
    item = out.dtype.itemsize
    return KernelWork(
        elements=n, bytes_read=item * n, bytes_written=item * n, ops=n
    )


def _key_encode_ref(wi, out, col, n, kind):
    kind = int(kind)
    sign = _SIGN64 if out.dtype.itemsize == 8 else _SIGN
    for i in wi.partition(int(n)):
        if kind == KEY_KIND_FLOAT:
            u = np.asarray(col[i] + col.dtype.type(0)).view(out.dtype)[()]
            out[i] = out.dtype.type(~u) if (u & sign) else (u ^ sign)
            continue
        if col.dtype.itemsize != out.dtype.itemsize:
            out[i] = out.dtype.type(col[i])    # narrow uint: zero-extend
            continue
        u = col.view(out.dtype)[i]
        out[i] = u if kind == KEY_KIND_UINT else (u ^ sign)
    return
    yield  # pragma: no cover


KEY_ENCODE = KernelDef(
    name="key_encode",
    params=params("out:ukeys in:col scalar:n scalar:kind"),
    vec_fn=_key_encode_vec,
    work_fn=_key_encode_work,
    ref_fn=_key_encode_ref,
    source="""
__kernel void key_encode(__global uint* ukeys, __global const T* col, uint n) {
    uint u = as_uint(col[i]);
#if KEY_KIND == FLOAT
    ukeys[i] = (u & SIGN) ? ~u : (u ^ SIGN);
#elif KEY_KIND == INT
    ukeys[i] = u ^ SIGN;
#else
    ukeys[i] = u;
#endif
}
""",
)


def _radix_bits(ctx) -> int:
    return int(ctx.defines.get("RADIX_BITS", 8))


def _digits(keys: np.ndarray, shift: int, bits: int) -> np.ndarray:
    """The current digit of every key, in the narrowest unsigned type
    (numpy's stable argsort takes its radix path on those)."""
    digits = np.right_shift(keys, keys.dtype.type(shift))
    np.bitwise_and(digits, keys.dtype.type((1 << bits) - 1), out=digits)
    return digits.astype(np.uint8 if bits <= 8 else np.uint16)


def _constant_digit(digits: np.ndarray) -> "int | None":
    """The digit every key has, if they all have one (narrow keys do in
    their high digits); ``None`` for no keys or several digits."""
    if (digits.size and digits[0] == digits[-1]
            and digits.min() == digits.max()):
        return int(digits[0])
    return None


def _radix_histogram_vec(ctx, hist, keys, n, shift, parts):
    n, shift, parts = int(n), int(shift), int(parts)
    bits = _radix_bits(ctx)
    radix = 1 << bits
    digits = _digits(keys[:n], shift, bits)
    digit = _constant_digit(digits)
    if digit is not None:
        # every chunk counts all its keys under the one digit
        view = hist.reshape(parts, radix)
        view[:, :] = 0
        view[:, digit] = np.diff(chunk_bounds(n, parts))
        return
    # Combined (thread, digit) index -> one bincount for all histograms:
    # every row starts at its thread's first bin and adds its digit.
    first_bin = np.arange(0, parts * radix, radix)
    combined = np.repeat(first_bin, np.diff(chunk_bounds(n, parts)))
    combined += digits
    counts = np.bincount(combined, minlength=parts * radix)
    hist.reshape(parts, radix)[:, :] = counts.reshape(parts, radix)


def _radix_histogram_work(ctx, hist, keys, n, shift, parts):
    n = int(n)
    return KernelWork(
        elements=n, bytes_read=4 * n, bytes_written=hist.nbytes, ops=n
    )


def _radix_histogram_ref(wi, hist, keys, n, shift, parts):
    bits = int(wi.define("RADIX_BITS", 8))
    radix = 1 << bits
    n, shift, parts = int(n), int(shift), int(parts)
    bounds = chunk_bounds(n, parts)
    view = hist.reshape(parts, radix)
    for t in wi.partition(parts):
        counts = np.zeros(radix, dtype=hist.dtype)
        for i in range(bounds[t], bounds[t + 1]):
            counts[(int(keys[i]) >> shift) & (radix - 1)] += 1
        view[t, :] = counts
    return
    yield  # pragma: no cover


RADIX_HISTOGRAM = KernelDef(
    name="radix_histogram",
    params=params("out:hist in:keys scalar:n scalar:shift scalar:parts"),
    vec_fn=_radix_histogram_vec,
    work_fn=_radix_histogram_work,
    ref_fn=_radix_histogram_ref,
    source="""
__kernel void radix_histogram(__global uint* hist, __global const uint* keys,
                              uint n, uint shift) {
    uint counts[RADIX] = {0};
    for (uint i = CHUNK_LO; i < CHUNK_HI; ++i)
        counts[(keys[i] >> shift) & (RADIX - 1)]++;
    for (uint d = 0; d < RADIX; ++d) hist[tid * RADIX + d] = counts[d];
}
""",
)


def _radix_offsets_vec(ctx, offsets, hist, parts):
    parts = int(parts)
    radix = hist.size // parts
    digit_major = hist.reshape(parts, radix).T.ravel()
    # exclusive prefix sum, accumulated straight into the output
    flat = offsets.reshape(-1)
    flat[0] = 0
    np.cumsum(digit_major[:-1], dtype=flat.dtype, out=flat[1:])


def _radix_offsets_work(ctx, offsets, hist, parts):
    return KernelWork(
        elements=hist.size,
        bytes_read=hist.nbytes,
        bytes_written=offsets.nbytes,
        ops=2 * hist.size,
    )


def _radix_offsets_ref(wi, offsets, hist, parts):
    parts = int(parts)
    radix = hist.size // parts
    if wi.global_id() == 0:
        hist_view = hist.reshape(parts, radix)
        out = offsets.reshape(radix, parts)
        running = 0
        for d in range(radix):
            for t in range(parts):
                out[d, t] = running
                running += int(hist_view[t, d])
    return
    yield  # pragma: no cover


RADIX_OFFSETS = KernelDef(
    name="radix_offsets",
    params=params("out:offsets in:hist scalar:parts"),
    vec_fn=_radix_offsets_vec,
    work_fn=_radix_offsets_work,
    ref_fn=_radix_offsets_ref,
    source="""
__kernel void radix_offsets(__global uint* offsets, __global const uint* hist,
                            uint parts) {
    /* transpose to digit-major order, then exclusive prefix sum */
}
""",
)


def _radix_reorder_vec(ctx, keys_out, payload_out, keys, payload, offsets,
                       n, shift, parts):
    """``payload=None`` is the first pass: the payload is the position."""
    n, shift = int(n), int(shift)
    digits = _digits(keys[:n], shift, _radix_bits(ctx))
    if _constant_digit(digits) is not None:
        # one bucket: the stable scatter keeps every key where it is
        keys_out[:n] = keys[:n]
        payload_out[:n] = np.arange(n) if payload is None else payload[:n]
        return
    # Stable order by digit == concatenation of the per-thread stable
    # scatters, because chunks are contiguous (module docstring).
    order = np.argsort(digits, kind="stable")
    keys_out[:n] = keys[:n][order]
    payload_out[:n] = order if payload is None else payload[:n][order]


def _radix_reorder_work(ctx, keys_out, payload_out, keys, payload, offsets,
                        n, shift, parts):
    n = int(n)
    key_item, pay_item = keys.dtype.itemsize, payload_out.dtype.itemsize
    read_item = key_item if payload is None else key_item + pay_item
    # The scatter targets RADIX open output streams per thread: mostly
    # sequential cache-line fills, with a small truly-random component.
    return KernelWork(
        elements=n,
        bytes_read=n * read_item + offsets.nbytes,
        bytes_written=n * (key_item + pay_item),
        random_bytes=n * 2,
        ops=2 * n,
    )


def _radix_reorder_ref(wi, keys_out, payload_out, keys, payload, offsets,
                       n, shift, parts):
    bits = int(wi.define("RADIX_BITS", 8))
    radix = 1 << bits
    n, shift, parts = int(n), int(shift), int(parts)
    bounds = chunk_bounds(n, parts)
    table = offsets.reshape(radix, parts)
    for t in wi.partition(parts):
        cursors = table[:, t].astype(np.int64)
        for i in range(bounds[t], bounds[t + 1]):
            d = (int(keys[i]) >> shift) & (radix - 1)
            pos = cursors[d]
            cursors[d] += 1
            keys_out[pos] = keys[i]
            payload_out[pos] = i if payload is None else payload[i]
    return
    yield  # pragma: no cover


def _first_pass(body):
    """``body`` without its ``payload`` parameter."""
    def first(ctx, keys_out, payload_out, keys, *rest):
        return body(ctx, keys_out, payload_out, keys, None, *rest)
    return first


RADIX_REORDER = KernelDef(
    name="radix_reorder",
    params=params(
        "out:keys_out out:payload_out in:keys in:payload in:offsets "
        "scalar:n scalar:shift scalar:parts"
    ),
    vec_fn=_radix_reorder_vec,
    work_fn=_radix_reorder_work,
    ref_fn=_radix_reorder_ref,
    source="""
__kernel void radix_reorder(__global uint* keys_out, __global uint* pay_out,
                            __global const uint* keys,
                            __global const uint* pay,
                            __global const uint* offsets, uint n, uint shift) {
    uint cursors[RADIX]; /* loaded from offsets[tid] */
    for (uint i = CHUNK_LO; i < CHUNK_HI; ++i) {
        uint d = (keys[i] >> shift) & (RADIX - 1);
        keys_out[cursors[d]] = keys[i];
        pay_out[cursors[d]++] = pay[i];
    }
}
""",
)


RADIX_REORDER_FIRST = KernelDef(
    name="radix_reorder_first",
    params=params(
        "out:keys_out out:payload_out in:keys in:offsets "
        "scalar:n scalar:shift scalar:parts"
    ),
    vec_fn=_first_pass(_radix_reorder_vec),
    work_fn=_first_pass(_radix_reorder_work),
    ref_fn=_first_pass(_radix_reorder_ref),
    source="""
__kernel void radix_reorder_first(__global uint* keys_out,
                                  __global uint* pay_out,
                                  __global const uint* keys,
                                  __global const uint* offsets,
                                  uint n, uint shift) {
    /* radix_reorder with pay[i] == i: the payload is the position */
    uint cursors[RADIX]; /* loaded from offsets[tid] */
    for (uint i = CHUNK_LO; i < CHUNK_HI; ++i) {
        uint d = (keys[i] >> shift) & (RADIX - 1);
        keys_out[cursors[d]] = keys[i];
        pay_out[cursors[d]++] = i;
    }
}
""",
)


def num_passes(bits_per_pass: int, key_bits: int = 32) -> int:
    """Radix passes needed for a full key."""
    return -(-key_bits // bits_per_pass)


# ---------------------------------------------------------------------------
# one-launch sort for inputs that fit one work-group's local memory
# ---------------------------------------------------------------------------

def _local_sort_vec(ctx, keys_out, order_out, keys, n):
    n = int(n)
    # (key, position) order == stable order by key
    order = np.argsort(keys[:n], kind="stable")
    order_out[:n] = order
    np.take(keys[:n], order, out=keys_out[:n])


def _local_sort_work(ctx, keys_out, order_out, keys, n):
    n = int(n)
    pair_bytes = keys.dtype.itemsize + order_out.dtype.itemsize
    # log2(size) merges of up to log2(size) steps each, counted for the
    # *nominal* input: n log^2 n is not linear in n, so the step count
    # cannot be left to kernel_time's data_scale factor (the n/2
    # exchanges of a step can)
    log_size = max(1, (ceil(n * ctx.data_scale) - 1).bit_length())
    steps = log_size * (log_size + 1) // 2
    # one op per four-byte word of the two pairs an exchange touches, on
    # ONE work-group: the other cores idle, so the device-wide
    # throughput kernel_time divides by is scaled back up
    ops = -(-n // 2) * steps * (2 * pair_bytes // 4)
    return KernelWork(
        elements=n,
        bytes_read=n * keys.dtype.itemsize,
        bytes_written=n * pair_bytes,
        ops=ops * ctx.device.profile.num_work_groups,
    )


def _local_sort_ref(wi, keys_out, order_out, keys, n):
    """Bitonic network with every exchange ascending (each merge starts
    with a flip), so slots past ``n`` behave as +inf padding that never
    moves and their exchanges are skipped.  One barrier per step.  The
    output arrays stand in for the ``__local`` tile (``k``, ``pos``)."""
    n = int(n)
    if wi.group_id() != 0:
        return
    k, pos = keys_out, order_out
    mine = range(wi.local_id(), n, wi.local_size())
    for i in mine:
        k[i] = keys[i]
        pos[i] = i
    yield
    merged = 2
    while merged < 2 * n:
        # flip step, then half-cleaners at distances merged/4 ... 1
        masks = [merged - 1]
        distance = merged // 4
        while distance:
            masks.append(distance)
            distance //= 2
        for mask in masks:
            for lo in mine:
                hi = lo ^ mask
                if lo < hi < n and (k[lo], pos[lo]) > (k[hi], pos[hi]):
                    k[lo], k[hi] = k[hi], k[lo]
                    pos[lo], pos[hi] = pos[hi], pos[lo]
            yield
        merged *= 2
    return


LOCAL_SORT = KernelDef(
    name="local_sort",
    params=params("out:keys_out out:order_out in:keys scalar:n"),
    vec_fn=_local_sort_vec,
    work_fn=_local_sort_work,
    ref_fn=_local_sort_ref,
    source="""
__kernel void local_sort(__global KEY* keys_out, __global uint* order_out,
                         __global const KEY* keys, uint n) {
    __local KEY k[TILE]; __local uint pos[TILE];  /* n <= TILE, one group */
    if (get_group_id(0)) return;
    for (uint i = lid; i < TILE; i += LSIZE) {
        k[i] = i < n ? keys[i] : KEY_MAX;          /* padding sorts last */
        pos[i] = i;
    }
    for (uint merged = 2; merged <= TILE; merged <<= 1) {
        EXCHANGE_STEP(merged - 1);                          /* flip */
        for (uint d = merged >> 2; d; d >>= 1) EXCHANGE_STEP(d);
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    for (uint i = lid; i < n; i += LSIZE) {
        keys_out[i] = k[i]; order_out[i] = pos[i];
    }
}
/* EXCHANGE_STEP(mask): barrier; every item, for its slots lo with
   hi = lo ^ mask > lo: swap the pairs if (k[lo], pos[lo]) > (k[hi], pos[hi])
   -- the position breaks ties, so the order is the stable one */
""",
)


LIBRARY = {
    k.name: k
    for k in (KEY_ENCODE, RADIX_HISTOGRAM, RADIX_OFFSETS, RADIX_REORDER,
              RADIX_REORDER_FIRST, LOCAL_SORT)
}
