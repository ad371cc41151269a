"""Bitmap algebra and materialisation kernels (paper §4.1.1-4.1.2).

Complex predicates combine selection bitmaps with bit operations; when a
downstream operator (or MonetDB) needs tuple IDs, the bitmap is
materialised into a list of qualifying oids in two launches: a
per-partition set-bit count whose last work-group scans the counts into
unique write offsets (``bitmap_offsets``), and an offset-addressed write
(paper §4.1.2, scan after [33]).
"""

from __future__ import annotations

import numpy as np

from ..cl import KernelDef, KernelWork, params
from .primitives import chunk_bounds
from .selection import bitmap_nbytes

#: Per-byte population counts, the classic table-lookup popcount.
POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)

_BITOPS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def tail_mask(n_bits: int) -> int:
    """Mask for the valid bits of the (possibly partial) final byte."""
    rem = n_bits % 8
    return 0xFF if rem == 0 else (1 << rem) - 1


def _bitmap_binop_vec(ctx, out, a, b, nbytes, op):
    nbytes = int(nbytes)
    _BITOPS[op](a[:nbytes], b[:nbytes], out=out[:nbytes])


def _bitmap_binop_work(ctx, out, a, b, nbytes, op):
    nbytes = int(nbytes)
    return KernelWork(
        elements=nbytes * 8,
        bytes_read=2 * nbytes,
        bytes_written=nbytes,
        ops=nbytes,
    )


def _bitmap_binop_ref(wi, out, a, b, nbytes, op):
    fn = _BITOPS[op]
    for j in wi.partition(int(nbytes)):
        out[j] = fn(a[j], b[j])
    return
    yield  # pragma: no cover


BITMAP_BINOP = KernelDef(
    name="bitmap_binop",
    params=params("out:res in:a in:b scalar:nbytes scalar:op"),
    vec_fn=_bitmap_binop_vec,
    work_fn=_bitmap_binop_work,
    ref_fn=_bitmap_binop_ref,
    source="""
__kernel void bitmap_binop(__global uchar* res, __global const uchar* a,
                           __global const uchar* b, uint nbytes) {
    res[global_id()] = a[global_id()] OP b[global_id()];
}
""",
)


def _bitmap_not_vec(ctx, out, a, n_bits, nbytes):
    nbytes = int(nbytes)
    np.bitwise_not(a[:nbytes], out=out[:nbytes])
    if nbytes:
        out[nbytes - 1] &= tail_mask(int(n_bits))


def _bitmap_not_work(ctx, out, a, n_bits, nbytes):
    nbytes = int(nbytes)
    return KernelWork(
        elements=nbytes * 8, bytes_read=nbytes, bytes_written=nbytes, ops=nbytes
    )


def _bitmap_not_ref(wi, out, a, n_bits, nbytes):
    nbytes = int(nbytes)
    for j in wi.partition(nbytes):
        byte = (~int(a[j])) & 0xFF
        if j == nbytes - 1:
            byte &= tail_mask(int(n_bits))
        out[j] = byte
    return
    yield  # pragma: no cover


BITMAP_NOT = KernelDef(
    name="bitmap_not",
    params=params("out:res in:a scalar:n_bits scalar:nbytes"),
    vec_fn=_bitmap_not_vec,
    work_fn=_bitmap_not_work,
    ref_fn=_bitmap_not_ref,
    source="""
__kernel void bitmap_not(__global uchar* res, __global const uchar* a,
                         uint n_bits, uint nbytes) {
    uchar byte = ~a[global_id()];
    if (global_id() == nbytes - 1) byte &= TAIL_MASK(n_bits);
    res[global_id()] = byte;
}
""",
)


def _partition_counts(bitmap, nbytes: int, parts: int) -> np.ndarray:
    """Set bits in each of the ``parts`` contiguous byte ranges."""
    bounds = chunk_bounds(nbytes, parts)
    per_byte = POPCOUNT[bitmap[:nbytes]]
    sums = np.add.reduceat(per_byte, bounds[:-1]) if nbytes else np.zeros(parts)
    # reduceat quirk: empty trailing partitions repeat the previous slice.
    sizes = np.diff(bounds)
    return np.where(sizes > 0, sums, 0)


def _bitmap_count_vec(ctx, counts, bitmap, nbytes, parts):
    """Per-partition set-bit counts (a selection's cardinality)."""
    nbytes, parts = int(nbytes), int(parts)
    counts[:parts] = _partition_counts(bitmap, nbytes, parts)


def _bitmap_count_work(ctx, counts, bitmap, nbytes, parts):
    nbytes = int(nbytes)
    return KernelWork(
        elements=nbytes * 8,
        bytes_read=nbytes,
        bytes_written=int(parts) * counts.dtype.itemsize,
        ops=nbytes,
    )


def _count_partitions_ref(wi, counts, bitmap, nbytes: int, parts: int):
    """This work-item's partitions: their set bits into ``counts``."""
    bounds = chunk_bounds(nbytes, parts)
    for p in wi.partition(parts):
        total = 0
        for j in range(bounds[p], bounds[p + 1]):
            total += int(POPCOUNT[bitmap[j]])
        counts[p] = total


def _bitmap_count_ref(wi, counts, bitmap, nbytes, parts):
    _count_partitions_ref(wi, counts, bitmap, int(nbytes), int(parts))
    return
    yield  # pragma: no cover


BITMAP_COUNT = KernelDef(
    name="bitmap_count",
    params=params("out:counts in:bitmap scalar:nbytes scalar:parts"),
    vec_fn=_bitmap_count_vec,
    work_fn=_bitmap_count_work,
    ref_fn=_bitmap_count_ref,
    source="""
__kernel void bitmap_count(__global uint* counts,
                           __global const uchar* bitmap, uint nbytes) {
    uint total = 0;
    for (uint j = FIRST(nbytes); j < LAST(nbytes); j += STEP)
        total += popcount(bitmap[j]);
    counts[group_id()] = total;   /* after local reduction */
}
""",
)


def _bitmap_offsets_vec(ctx, offsets, bitmap, nbytes, parts):
    """Stage 1 of materialisation: the ``parts + 1`` write offsets —
    the exclusive scan of the per-partition counts, the total last."""
    nbytes, parts = int(nbytes), int(parts)
    offsets[0] = 0
    np.cumsum(_partition_counts(bitmap, nbytes, parts),
              out=offsets[1 : parts + 1])


def _bitmap_offsets_work(ctx, offsets, bitmap, nbytes, parts):
    nbytes, parts = int(nbytes), int(parts)
    item = offsets.dtype.itemsize
    return KernelWork(
        elements=nbytes * 8,
        # the count streams the bitmap; the scan is the work-efficient
        # one over the counters (~2 reads + 2 writes each)
        bytes_read=nbytes + 2 * parts * item,
        bytes_written=3 * parts * item,
        ops=nbytes + 2 * parts,
        # one ticket per work-group elects the last to finish, whatever
        # the data volume (kernel_time scales every count by data_scale)
        atomic_ops=ctx.num_groups / ctx.data_scale,
        atomic_addresses=1,
    )


def _bitmap_offsets_ref(wi, offsets, bitmap, nbytes, parts):
    """Every item leaves its partitions' counts one slot up; the last
    work-group to finish scans them down into place.  The interpreter
    runs work-groups in order, so that is the highest-numbered one (a
    device elects it with one atomic ticket per group)."""
    nbytes, parts = int(nbytes), int(parts)
    _count_partitions_ref(wi, offsets[1:], bitmap, nbytes, parts)
    yield
    last_group = wi.global_size() // wi.local_size() - 1
    if wi.group_id() == last_group and wi.local_id() == 0:
        running = 0
        for p in range(parts):
            count = int(offsets[p + 1])
            offsets[p] = running
            running += count
        offsets[parts] = running
    return


BITMAP_OFFSETS = KernelDef(
    name="bitmap_offsets",
    params=params("out:offsets in:bitmap scalar:nbytes scalar:parts"),
    vec_fn=_bitmap_offsets_vec,
    work_fn=_bitmap_offsets_work,
    ref_fn=_bitmap_offsets_ref,
    source="""
__kernel void bitmap_offsets(__global uint* offsets,
                             __global const uchar* bitmap, uint nbytes,
                             uint parts) {
    uint total = 0;
    for (uint j = FIRST(nbytes); j < LAST(nbytes); j += STEP)
        total += popcount(bitmap[j]);
    offsets[1 + partition_id()] = total;
    if (!LAST_GROUP_TO_FINISH()) return;  /* one atomic ticket per group */
    /* exclusive scan of offsets[1 .. parts] into offsets[0 .. parts] */
}
""",
)


#: below this many bytes the sparse expansion's extra numpy calls cost
#: more than unpacking every byte
_SPARSE_MIN_BYTES = 1024


def _bitmap_write_oids_vec(ctx, oids, bitmap, offsets, n_bits, parts):
    """Stage 2: write positions of set bits at per-partition offsets.

    The vectorised driver emits all set-bit positions in ascending order —
    identical to the concatenation of the per-partition writes, because
    partitions are contiguous and offsets come from the prefix sum.
    """
    n_bits = int(n_bits)
    nbytes = (n_bits + 7) // 8
    if (nbytes < _SPARSE_MIN_BYTES
            or 4 * np.count_nonzero(bitmap[:nbytes]) >= nbytes):
        bits = np.unpackbits(bitmap, bitorder="little", count=n_bits)
        positions = np.flatnonzero(bits)
    else:
        # sparse: expand only the bytes with a bit set
        set_bytes = np.flatnonzero(bitmap[:nbytes])
        bits = np.flatnonzero(np.unpackbits(bitmap.take(set_bytes),
                                            bitorder="little"))
        positions = set_bytes.take(bits >> 3)
        positions <<= 3
        positions += bits & 7
        # bits past n_bits in the last byte are not positions
        positions = positions[: np.searchsorted(positions, n_bits)]
    oids[: positions.size] = positions


def _bitmap_write_oids_work(ctx, oids, bitmap, offsets, n_bits, parts):
    n_bits = int(n_bits)
    nbytes = bitmap_nbytes(n_bits)
    return KernelWork(
        elements=n_bits,
        bytes_read=nbytes + int(parts) * offsets.dtype.itemsize,
        bytes_written=oids.nbytes,
        ops=n_bits,
    )


def _bitmap_write_oids_ref(wi, oids, bitmap, offsets, n_bits, parts):
    n_bits, parts = int(n_bits), int(parts)
    nbytes = bitmap_nbytes(n_bits)
    bounds = chunk_bounds(nbytes, parts)
    for p in wi.partition(parts):
        cursor = int(offsets[p])
        for j in range(bounds[p], bounds[p + 1]):
            byte = int(bitmap[j])
            for k in range(8):
                if byte & (1 << k):
                    oids[cursor] = 8 * j + k
                    cursor += 1
    return
    yield  # pragma: no cover


BITMAP_WRITE_OIDS = KernelDef(
    name="bitmap_write_oids",
    params=params("out:oids in:bitmap in:offsets scalar:n_bits scalar:parts"),
    vec_fn=_bitmap_write_oids_vec,
    work_fn=_bitmap_write_oids_work,
    ref_fn=_bitmap_write_oids_ref,
    source="""
__kernel void bitmap_write_oids(__global uint* oids,
                                __global const uchar* bitmap,
                                __global const uint* offsets, uint n) {
    uint cursor = offsets[group_id()];
    for (uint j = FIRST(NBYTES(n)); j < LAST(NBYTES(n)); j += STEP)
        for (int k = 0; k < 8; ++k)
            if (bitmap[j] & (1 << k)) oids[cursor++] = 8 * j + k;
}
""",
)


def _oids_to_bitmap_vec(ctx, bitmap, oids, count, n_bits):
    count = int(count)
    bits = np.zeros(int(n_bits), dtype=np.uint8)
    bits[oids[:count].astype(np.int64, copy=False)] = 1
    packed = np.packbits(bits, bitorder="little")
    bitmap[: packed.size] = packed
    bitmap[packed.size :] = 0


def _oids_to_bitmap_work(ctx, bitmap, oids, count, n_bits):
    count = int(count)
    return KernelWork(
        elements=count,
        bytes_read=count * oids.dtype.itemsize,
        bytes_written=bitmap_nbytes(int(n_bits)),
        random_bytes=count,
        ops=count,
    )


OIDS_TO_BITMAP = KernelDef(
    name="oids_to_bitmap",
    params=params("out:bitmap in:oids scalar:count scalar:n_bits"),
    vec_fn=_oids_to_bitmap_vec,
    work_fn=_oids_to_bitmap_work,
    source="""
__kernel void oids_to_bitmap(__global uchar* bitmap,
                             __global const uint* oids, uint count) {
    atomic_or(&bitmap[oids[i] >> 3], 1 << (oids[i] & 7));
}
""",
)


def count_bits(bitmap: np.ndarray, n_bits: int) -> int:
    """Host-side helper: total set bits among the first ``n_bits``."""
    nbytes = bitmap_nbytes(n_bits)
    return int(POPCOUNT[bitmap[:nbytes]].sum())


LIBRARY = {
    k.name: k
    for k in (
        BITMAP_BINOP,
        BITMAP_NOT,
        BITMAP_COUNT,
        BITMAP_OFFSETS,
        BITMAP_WRITE_OIDS,
        OIDS_TO_BITMAP,
    )
}
