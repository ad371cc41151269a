"""Parallel hashing kernels (paper §4.1.4, after Alcantara et al. [2, 3]).

The paper's scheme, reproduced faithfully:

1. an **optimistic** round lets every thread insert its keys without any
   synchronisation — colliding distinct keys may overwrite each other;
2. a **check** round verifies every key ended up in the table, marks
   the ones that did not in a bitmap and counts them (each work-group
   reduces locally and adds its sum to one slot), so the host learns
   whether round 3 is needed from the launch that found out;
3. a **pessimistic** round re-inserts failed keys with atomic
   compare-and-swap, re-hashing with **six strong hash functions** before
   reverting to **linear probing** from the last hash position;
4. if even that fails (probe limit), the host restarts with a larger
   table.  Restarts are avoided by over-allocating 1.4x for the observed
   ~75 % fill rate (host policy, :mod:`repro.ocelot.operators.hashing`).

No stash is used (the paper found none needed).  Tables are two ``uint32``
arrays: keys, and for each occupied slot the *row index* of an input key
equal to the slot's — which of several equal keys is a legal outcome of
the race, and ``keys[tvals[slot]] == tkeys[slot]`` whichever it is.  A
caller that wants another value per key indexes its own column with the
row; ranks and run ids *are* the row index of a sorted distinct input.
``EMPTY`` (0xFFFFFFFF) marks free slots, so no table holds that key.
Column values are bijectively encoded first
(:func:`repro.kernels.radix_sort.encode_keys`), and one value of every
four-byte type encodes to it (int32 ``2**31 - 1``; uint32 callers such
as FOR deltas reach it too).  The check round flags such a build with
:data:`MARKER_FLAG` in its failure count, and the host hands the
operator to MonetDB; a probe key equal to ``EMPTY`` misses.  A free
slot's value is undefined: nothing initialises the value column, and a
probe reads a value only where the key matched.

The vectorised driver emulates CAS deterministically: within one insertion
round the lowest-index pending key wins a contested slot, a legal CAS
outcome, and the same rule the reference interpreter applies — so both
drivers build identical tables.
"""

from __future__ import annotations

import numpy as np

from ..cl import CLError, KernelDef, KernelWork, params

EMPTY = np.uint32(0xFFFFFFFF)

#: set in ``ht_check``'s failure count when a key equals ``EMPTY``; a
#: genuine count stays below it (``n`` is an oid count)
MARKER_FLAG = 0x80000000

#: Number of strong hash functions before linear probing (paper §4.1.4).
NUM_HASH_FUNCTIONS = 6

#: Maximum linear-probe distance before the build gives up and the host
#: restarts with a larger table.
PROBE_LIMIT = 64

# Odd multiplicative constants (Knuth-style golden-ratio family).
_MULTIPLIERS = np.array(
    [2654435761, 2246822519, 3266489917, 668265263, 374761393, 2166136261],
    dtype=np.uint32,
)
_MIXERS = np.array(
    [2484345967, 1831565813, 3571494541, 2654435789, 1099087573, 2971215073],
    dtype=np.uint32,
)


class TableFull(CLError):
    """Pessimistic insertion exceeded the probe limit; restart bigger."""


class MarkerKey(CLError):
    """A build key equals ``EMPTY``, which no slot can hold."""


def hash_slot(keys: np.ndarray, func: int, m: int) -> np.ndarray:
    """The ``func``-th strong hash of ``keys`` into ``[0, m)``.

    Multiply-xorshift-multiply on the low 32 bits, reduced modulo the
    table size — the OpenCL kernel's ``uint`` arithmetic: products wrap.
    """
    h = keys.astype(np.uint32)
    h *= _MULTIPLIERS[func]
    h ^= h >> np.uint32(16)
    h *= _MIXERS[func]
    h ^= h >> np.uint32(13)
    h %= np.uint32(m)
    return h.astype(np.int64)


def _scalar_slot(key: int, func: int, m: int) -> int:
    return int(hash_slot(np.array([key], dtype=np.uint32), func, m)[0])


# ---------------------------------------------------------------------------
# optimistic round
# ---------------------------------------------------------------------------

def _ht_optimistic_vec(ctx, tkeys, tvals, keys, n, m):
    n, m = int(n), int(m)
    slots = hash_slot(keys[:n], 0, m)
    # Unsynchronised writes: numpy scatter keeps the *last* write per slot,
    # a legal outcome of the data race.  Key and row index are written by
    # the same thread, so (key, row) stay consistent per slot.
    tkeys[slots] = keys[:n]
    tvals[slots] = np.arange(n, dtype=tvals.dtype)


def _ht_optimistic_work(ctx, tkeys, tvals, keys, n, m):
    n = int(n)
    distinct = _distinct_slot_estimate(keys[:n], int(m))
    table_bytes = 8 * int(m)
    random = 8 * n if table_bytes > _CACHE_RESIDENT_BYTES else 0
    return KernelWork(
        elements=n,
        bytes_read=4 * n,
        random_bytes=random,
        ops=6 * n,  # one strong hash
        atomic_ops=n,  # unsynchronised but *contended* writes
        atomic_addresses=distinct,
    )


def _distinct_slot_estimate(keys: np.ndarray, m: int) -> int:
    """Distinct contended addresses of a build, for the cost model only:
    exact up to 65536 keys, extrapolated from a stride sample beyond."""
    if keys.size == 0:
        return 1
    if keys.size <= 65536:
        return _count_distinct(keys)
    sample = keys[:: max(1, keys.size // 65536)]
    distinct = _count_distinct(sample)
    if distinct >= sample.size // 2:  # looks unique-ish: extrapolate
        distinct = int(distinct * keys.size / sample.size)
    return max(1, min(distinct, m))


def _count_distinct(keys: np.ndarray) -> int:
    """Distinct values of a non-empty array: sort, count the boundaries."""
    ordered = np.sort(keys)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _ht_optimistic_ref(wi, tkeys, tvals, keys, n, m):
    n, m = int(n), int(m)
    for i in wi.partition(n):
        slot = _scalar_slot(int(keys[i]), 0, m)
        tkeys[slot] = keys[i]
        tvals[slot] = i
    return
    yield  # pragma: no cover


HT_OPTIMISTIC = KernelDef(
    name="ht_insert_optimistic",
    params=params("inout:tkeys inout:tvals in:keys scalar:n scalar:m"),
    vec_fn=_ht_optimistic_vec,
    work_fn=_ht_optimistic_work,
    ref_fn=_ht_optimistic_ref,
    source="""
__kernel void ht_insert_optimistic(__global uint* tkeys, __global uint* tvals,
                                   __global const uint* keys, uint n, uint m) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP) {
        uint slot = hash0(keys[i]) % m;      /* no synchronisation */
        tkeys[slot] = keys[i];
        tvals[slot] = i;                     /* the value is the row */
    }
}
""",
)


# ---------------------------------------------------------------------------
# check round
# ---------------------------------------------------------------------------

def _ht_check_vec(ctx, fail_bitmap, fail_count, tkeys, keys, n, m):
    n, m = int(n), int(m)
    slots = hash_slot(keys[:n], 0, m)
    failed = tkeys[slots] != keys[:n]
    packed = np.packbits(failed, bitorder="little")
    fail_bitmap[: packed.size] = packed
    fail_bitmap[packed.size :] = 0
    fail_count[0] = np.count_nonzero(failed) | (
        MARKER_FLAG if (keys[:n] == EMPTY).any() else 0)


def _ht_check_work(ctx, fail_bitmap, fail_count, tkeys, keys, n, m):
    n = int(n)
    table_bytes = 8 * int(m)
    random = 4 * n if table_bytes > _CACHE_RESIDENT_BYTES else 0
    return KernelWork(
        elements=n,
        bytes_read=4 * n,
        random_bytes=random,
        bytes_written=(n + 7) // 8 + fail_count.itemsize,
        ops=7 * n,
        # failures are reduced per work-group; each adds its sum once
        atomic_ops=ctx.num_groups,
        atomic_addresses=1,
    )


def _ht_check_ref(wi, fail_bitmap, fail_count, tkeys, keys, n, m):
    """``fail_count`` arrives zeroed.  Work-items count privately and
    then take turns (one barrier each) adding to the slot — the
    reference has no local tile for the per-group reduction the kernel
    does first; the sum is the same."""
    n, m = int(n), int(m)
    nbytes = (n + 7) // 8
    failures, marker = 0, 0
    for j in wi.partition(nbytes):
        byte = 0
        for k in range(8):
            i = 8 * j + k
            if i < n and tkeys[_scalar_slot(int(keys[i]), 0, m)] != keys[i]:
                byte |= 1 << k
                failures += 1
            if i < n and keys[i] == EMPTY:
                marker = MARKER_FLAG
        fail_bitmap[j] = byte
    for turn in range(wi.local_size()):
        if wi.local_id() == turn:
            fail_count[0] = (int(fail_count[0]) + failures) | marker
        yield
    return


HT_CHECK = KernelDef(
    name="ht_check",
    params=params(
        "out:fail_bitmap out:fail_count in:tkeys in:keys scalar:n scalar:m"
    ),
    vec_fn=_ht_check_vec,
    work_fn=_ht_check_work,
    ref_fn=_ht_check_ref,
    source="""
__kernel void ht_check(__global uchar* fail, __global uint* fail_count,
                       __global const uint* tkeys,
                       __global const uint* keys, uint n, uint m) {
    /* bit i set <=> keys[i] was overwritten during the optimistic round;
       a key equal to EMPTY also sets MARKER_FLAG in fail_count */
    __local uint failures;                  /* work-group reduction ... */
    if (lid == 0 && failures) atomic_add(fail_count, failures);
}                                           /* ... one atomic per group */
""",
)


# ---------------------------------------------------------------------------
# pessimistic round (one kernel: each thread CAS-loops until insertion)
# ---------------------------------------------------------------------------

def _insert_round(tkeys, tvals, pending_keys, pending_rows, slots):
    """Deterministic CAS emulation for one probe position.

    Every pending key attempts ``CAS(tkeys[slot], EMPTY -> key)``; ties on
    a slot go to the lowest pending index (stable first-wins).  Returns the
    mask of keys placed or already present after this round.
    """
    occupant = tkeys[slots]
    empty = occupant == EMPTY
    if empty.any():
        # numpy scatter keeps the last write per slot: contenders write
        # in descending index order, so the lowest index wins
        contenders = np.flatnonzero(empty)[::-1]
        won = slots[contenders]
        tkeys[won] = pending_keys[contenders]
        tvals[won] = pending_rows[contenders]
        occupant = tkeys[slots]
    return occupant == pending_keys


def _ht_pessimistic_vec(ctx, tkeys, tvals, stats, keys, fail_bitmap, n, m):
    n, m = int(n), int(m)
    failed = np.unpackbits(fail_bitmap, bitorder="little", count=n).view(bool)
    pending_rows = np.flatnonzero(failed)
    pending_keys = keys[:n][pending_rows]
    cas_attempts = 0
    for func in range(NUM_HASH_FUNCTIONS):
        if pending_keys.size == 0:
            break
        slots = hash_slot(pending_keys, func, m)
        cas_attempts += int(pending_keys.size)
        unplaced = ~_insert_round(tkeys, tvals, pending_keys, pending_rows, slots)
        pending_keys = pending_keys[unplaced]
        pending_rows = pending_rows[unplaced]

    if pending_keys.size:
        base = hash_slot(pending_keys, NUM_HASH_FUNCTIONS - 1, m)
        for distance in range(1, PROBE_LIMIT + 1):
            slots = (base + distance) % m
            cas_attempts += int(pending_keys.size)
            unplaced = ~_insert_round(
                tkeys, tvals, pending_keys, pending_rows, slots
            )
            pending_keys = pending_keys[unplaced]
            pending_rows = pending_rows[unplaced]
            base = base[unplaced]
            if pending_keys.size == 0:
                break

    stats[0] = np.uint32(cas_attempts)
    stats[1] = np.uint32(pending_keys.size)  # unplaced -> host restarts
    ctx.counters["cas_attempts"] = cas_attempts


def _ht_pessimistic_work(ctx, tkeys, tvals, stats, keys, fail_bitmap, n, m):
    n = int(n)
    attempts = ctx.counters.get("cas_attempts", 0)
    distinct = _distinct_slot_estimate(keys[:n], int(m))
    table_bytes = 8 * int(m)
    random = 8 * attempts if table_bytes > _CACHE_RESIDENT_BYTES else 0
    return KernelWork(
        elements=n,
        bytes_read=(n + 7) // 8,  # the failure bitmap
        random_bytes=random,
        ops=12 * attempts,
        atomic_ops=attempts,
        atomic_addresses=distinct,
    )


def _ht_pessimistic_ref(wi, tkeys, tvals, stats, keys, fail_bitmap, n, m):
    """Sequential turn-taking emulation of the CAS loop.

    Work-items take turns in local-id order (one barrier per turn), each
    running its full insert loop over its *failed* keys.  This yields a
    first-wins outcome equivalent to the vectorised driver on a single
    work-group.
    """
    n, m = int(n), int(m)
    for turn in range(wi.global_size()):
        if wi.global_id() == turn:
            for i in wi.chunk(n):
                byte, bit = divmod(i, 8)
                if not (fail_bitmap[byte] & (1 << bit)):
                    continue
                key = int(keys[i])
                placed = False
                for func in range(NUM_HASH_FUNCTIONS):
                    slot = _scalar_slot(key, func, m)
                    if int(tkeys[slot]) == key:
                        placed = True
                        break
                    if int(tkeys[slot]) == int(EMPTY):
                        tkeys[slot] = key
                        tvals[slot] = i
                        placed = True
                        break
                if not placed:
                    base = _scalar_slot(key, NUM_HASH_FUNCTIONS - 1, m)
                    for distance in range(1, PROBE_LIMIT + 1):
                        slot = (base + distance) % m
                        if int(tkeys[slot]) in (key, int(EMPTY)):
                            tkeys[slot] = key
                            tvals[slot] = i
                            placed = True
                            break
                if not placed:
                    stats[1] += 1
        yield
    return


HT_PESSIMISTIC = KernelDef(
    name="ht_insert_pessimistic",
    params=params(
        "inout:tkeys inout:tvals out:stats in:keys in:fail_bitmap "
        "scalar:n scalar:m"
    ),
    vec_fn=_ht_pessimistic_vec,
    work_fn=_ht_pessimistic_work,
    ref_fn=_ht_pessimistic_ref,
    source="""
__kernel void ht_insert_pessimistic(__global uint* tkeys, __global uint* tvals,
                                    __global uint* stats,
                                    __global const uint* keys,
                                    __global const uchar* fail,
                                    uint n, uint m) {
    for (uint i = FIRST(n); i < LAST(n); i += STEP) {
        if (!TESTBIT(fail, i)) continue;
        uint k = keys[i];
        for (int f = 0; f < 6; ++f) {            /* six strong hashes */
            uint s = hash(f, k) % m;
            uint old = atomic_cmpxchg(&tkeys[s], EMPTY, k);
            if (old == EMPTY || old == k) { tvals[s] = i; goto next; }
        }
        uint s = hash(5, k) % m;                 /* then linear probing */
        for (int d = 1; d <= PROBE_LIMIT; ++d) {
            uint old = atomic_cmpxchg(&tkeys[(s + d) % m], EMPTY, k);
            if (old == EMPTY || old == k) { tvals[(s + d) % m] = i; goto next; }
        }
        atomic_inc(&stats[1]);                   /* unplaced: restart bigger */
    next:;
    }
}
""",
)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def _ht_probe_vec(ctx, out_vals, found_bitmap, tkeys, tvals, keys, n, m):
    n, m = int(n), int(m)
    # h0 runs over the whole input; later rounds over the compacted misses
    pending_keys = keys[:n]
    slots = hash_slot(pending_keys, 0, m)
    marker = pending_keys == EMPTY      # in no table: a free slot's key
    found = (tkeys.take(slots) == pending_keys) & ~marker
    result = out_vals[:n]
    result[:] = tvals.take(slots)
    lookups = n
    pending = np.flatnonzero(~found)
    result[pending] = EMPTY
    if marker.any():
        pending = pending[~marker[pending]]
    pending_keys = pending_keys.take(pending)
    for func in range(1, NUM_HASH_FUNCTIONS):
        if pending.size == 0:
            break
        slots = hash_slot(pending_keys, func, m)
        lookups += int(pending.size)
        hit = tkeys.take(slots) == pending_keys
        hit_rows = pending[hit]
        result[hit_rows] = tvals.take(slots[hit])
        found[hit_rows] = True
        miss = ~hit
        pending = pending[miss]
        pending_keys = pending_keys[miss]
    if pending.size:
        base = hash_slot(pending_keys, NUM_HASH_FUNCTIONS - 1, m)
        for distance in range(1, PROBE_LIMIT + 1):
            if pending.size == 0:
                break
            slots = (base + distance) % m
            occupant = tkeys.take(slots)
            lookups += int(pending.size)
            hit = occupant == pending_keys
            hit_rows = pending[hit]
            result[hit_rows] = tvals.take(slots[hit])
            found[hit_rows] = True
            keep = ~hit & (occupant != EMPTY)  # an empty slot ends the probe
            pending = pending[keep]
            pending_keys = pending_keys[keep]
            base = base[keep]
    packed = np.packbits(found, bitorder="little")
    found_bitmap[: packed.size] = packed
    found_bitmap[packed.size :] = 0
    ctx.counters["probe_lookups"] = lookups


#: Tables smaller than this stay resident in on-chip cache during a probe
#: sweep; their lookups are compute- rather than memory-bound.  This is
#: why probing a 100-key join table is so cheap relative to building it
#: (paper §5.2.6: "once the hash-table is built, the actual look-up is
#: highly efficient").
_CACHE_RESIDENT_BYTES = 4 * 1024 * 1024


def _ht_probe_work(ctx, out_vals, found_bitmap, tkeys, tvals, keys, n, m):
    n = int(n)
    lookups = ctx.counters.get("probe_lookups", n)
    table_bytes = 8 * int(m)
    random = 8 * lookups if table_bytes > _CACHE_RESIDENT_BYTES else 0
    return KernelWork(
        elements=n,
        bytes_read=4 * n,
        bytes_written=4 * n + (n + 7) // 8,
        random_bytes=random,
        ops=10 * lookups,
    )


def _ht_probe_ref(wi, out_vals, found_bitmap, tkeys, tvals, keys, n, m):
    n, m = int(n), int(m)
    for i in wi.partition(n):
        key = int(keys[i])
        value, hit = int(EMPTY), False
        slot = 0
        for func in range(NUM_HASH_FUNCTIONS if key != EMPTY else 0):
            slot = _scalar_slot(key, func, m)
            if int(tkeys[slot]) == key:
                value, hit = int(tvals[slot]), True
                break
        if not hit and key != EMPTY:
            base = _scalar_slot(key, NUM_HASH_FUNCTIONS - 1, m)
            for distance in range(1, PROBE_LIMIT + 1):
                slot = (base + distance) % m
                if int(tkeys[slot]) == key:
                    value, hit = int(tvals[slot]), True
                    break
                if int(tkeys[slot]) == int(EMPTY):
                    break
        out_vals[i] = value
        byte, bit = divmod(i, 8)
        if hit:
            found_bitmap[byte] |= np.uint8(1 << bit)
    return
    yield  # pragma: no cover


HT_PROBE = KernelDef(
    name="ht_probe",
    params=params(
        "out:vals out:found_bitmap in:tkeys in:tvals in:keys scalar:n scalar:m"
    ),
    vec_fn=_ht_probe_vec,
    work_fn=_ht_probe_work,
    ref_fn=_ht_probe_ref,
    source="""
__kernel void ht_probe(__global uint* vals, __global uchar* found,
                       __global const uint* tkeys, __global const uint* tvals,
                       __global const uint* keys, uint n, uint m) {
    /* h0..h5, then linear probing until hit or EMPTY; the key EMPTY
       itself misses at once */
}
""",
)


LIBRARY = {
    k.name: k for k in (HT_OPTIMISTIC, HT_CHECK, HT_PESSIMISTIC, HT_PROBE)
}
