"""Parallel hashing: optimistic/pessimistic build + probe (paper §4.1.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import bitmap_nbytes, count_bits
from repro.kernels.hashing import (
    EMPTY,
    NUM_HASH_FUNCTIONS,
    PROBE_LIMIT,
    hash_slot,
)


def build_table(rig, keys: np.ndarray, m: int):
    """``(tkeys, tvals, unplaced)``; a slot's value is its key's row.
    The value column starts as garbage: nothing may depend on it."""
    n = keys.size
    tkeys = rig.empty(m, np.uint32)
    tvals = rig.buf(np.full(m, 0x7FFFFFFF, np.uint32))
    rig.run("fill", tkeys, m, int(EMPTY))
    kb = rig.buf(keys)
    rig.run("ht_insert_optimistic", tkeys, tvals, kb, n, m)
    fail = rig.zeros(bitmap_nbytes(n), np.uint8)
    fail_count = rig.zeros(1, np.uint32)
    rig.run("ht_check", fail, fail_count, tkeys, kb, n, m)
    assert int(fail_count.array[0]) == count_bits(fail.array, n)
    stats = rig.zeros(2, np.uint32)
    rig.run("ht_insert_pessimistic", tkeys, tvals, stats, kb, fail, n, m)
    return tkeys, tvals, int(stats.array[1])


def assert_values_are_rows(tkeys, tvals, keys):
    """``keys[tvals[slot]] == tkeys[slot]`` for every occupied slot —
    which of several equal keys' rows survives is the race's to pick."""
    occupied = tkeys != EMPTY
    assert np.array_equal(keys[tvals[occupied]], tkeys[occupied])


def probe(rig, tkeys, tvals, keys: np.ndarray, m: int):
    n = keys.size
    out = rig.empty(n, np.uint32)
    found = rig.zeros(bitmap_nbytes(n), np.uint8)
    rig.run("ht_probe", out, found, tkeys, tvals, rig.buf(keys), n, m)
    mask = np.unpackbits(found.array, bitorder="little", count=n).astype(bool)
    return out.array[:n], mask


class TestHashFunctions:
    def test_six_strong_functions(self):
        assert NUM_HASH_FUNCTIONS == 6

    def test_slots_in_range_and_distinct_per_function(self):
        keys = np.arange(1000, dtype=np.uint32)
        slots = [hash_slot(keys, f, 509) for f in range(NUM_HASH_FUNCTIONS)]
        for s in slots:
            assert s.min() >= 0 and s.max() < 509
        # different functions should disagree on most keys
        disagree = np.mean(slots[0] != slots[1])
        assert disagree > 0.9

    def test_deterministic(self):
        keys = np.array([42], dtype=np.uint32)
        assert hash_slot(keys, 0, 97)[0] == hash_slot(keys, 0, 97)[0]


class TestBuildProbe:
    def test_unique_keys_all_inserted(self, rig):
        keys = (np.arange(500, dtype=np.uint32) * 2654435761) % 1_000_000
        keys = np.unique(keys).astype(np.uint32)
        m = int(1.4 * keys.size) + 1
        tkeys, tvals, unplaced = build_table(rig, keys, m)
        assert unplaced == 0
        got, mask = probe(rig, tkeys, tvals, keys, m)
        assert mask.all()
        assert np.array_equal(got, np.arange(keys.size))

    def test_duplicate_keys_one_slot(self, rig):
        keys = np.full(1000, 7, dtype=np.uint32)
        tkeys, tvals, unplaced = build_table(rig, keys, 101)
        assert unplaced == 0
        occupied = int((tkeys.array != EMPTY).sum())
        assert occupied == 1
        assert_values_are_rows(tkeys.array, tvals.array, keys)

    def test_absent_keys_not_found(self, rig):
        keys = np.arange(0, 100, 2, dtype=np.uint32)       # evens
        tkeys, tvals, _ = build_table(rig, keys, 149)
        absent = np.arange(1, 100, 2, dtype=np.uint32)      # odds
        _, mask = probe(rig, tkeys, tvals, absent, 149)
        assert not mask.any()

    def test_mixed_probe(self, rig):
        keys = np.array([10, 20, 30], dtype=np.uint32)
        tkeys, tvals, _ = build_table(rig, keys, 17)
        got, mask = probe(
            rig, tkeys, tvals, np.array([20, 99, 10], np.uint32), 17
        )
        assert list(mask) == [True, False, True]
        assert got[0] == 1 and got[2] == 0 and got[1] == EMPTY

    def test_fill_rate_75_percent(self, rig):
        """The paper's sizing: 1.4x over-allocation for ~75 % fill."""
        keys = np.unique(
            np.random.default_rng(3).integers(0, 2**30, 4000)
        ).astype(np.uint32)
        m = int(1.4 * keys.size) + 1
        tkeys, tvals, unplaced = build_table(rig, keys, m)
        assert unplaced == 0
        fill = float((tkeys.array != EMPTY).sum()) / m
        assert 0.6 < fill < 0.8

    def test_overfull_table_reports_unplaced(self, rig):
        keys = np.arange(200, dtype=np.uint32)
        m = 100  # cannot possibly fit
        _, _, unplaced = build_table(rig, keys, m)
        assert unplaced > 0

    @given(st.integers(1, 400), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_probe_total_property(self, n, seed):
        """Every inserted key is found with its row; vec driver only."""
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY
        from repro import cl

        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, 2**31, n)).astype(np.uint32)
        m = int(1.4 * keys.size) + 7
        ctx = ExecContext(cl.get_device("cpu"), {}, 64, 16)
        tkeys = np.full(m, EMPTY, np.uint32)
        tvals = np.full(m, 0x7FFFFFFF, np.uint32)
        KERNEL_LIBRARY["ht_insert_optimistic"].vec_fn(
            ctx, tkeys, tvals, keys, keys.size, m
        )
        fail = np.zeros(bitmap_nbytes(keys.size), np.uint8)
        fail_count = np.zeros(1, np.uint32)
        KERNEL_LIBRARY["ht_check"].vec_fn(ctx, fail, fail_count, tkeys,
                                          keys, keys.size, m)
        assert fail_count[0] == count_bits(fail, keys.size)
        stats = np.zeros(2, np.uint32)
        KERNEL_LIBRARY["ht_insert_pessimistic"].vec_fn(
            ctx, tkeys, tvals, stats, keys, fail, keys.size, m
        )
        assert stats[1] == 0
        out = np.zeros(keys.size, np.uint32)
        found = np.zeros(bitmap_nbytes(keys.size), np.uint8)
        KERNEL_LIBRARY["ht_probe"].vec_fn(
            ctx, out, found, tkeys, tvals, keys, keys.size, m
        )
        assert count_bits(found, keys.size) == keys.size
        assert np.array_equal(out, np.arange(keys.size))

    def test_table_pairs_consistent(self, rig):
        """(key, row) slots are written together: rows match keys."""
        keys = np.unique(
            np.random.default_rng(5).integers(0, 10**6, 2000)
        ).astype(np.uint32)
        m = int(1.4 * keys.size) + 1
        tkeys, tvals, _ = build_table(rig, keys, m)
        assert_values_are_rows(tkeys.array, tvals.array, keys)

    def test_probe_limit_bounds_linear_scan(self):
        assert PROBE_LIMIT >= 16


# ---------------------------------------------------------------------------
# Equivalence with the bodies before the single-pass rewrite.  The functions
# below are verbatim copies of the previous ``src/repro/kernels/hashing.py``
# (64-bit hashing, ``np.unique`` estimator, re-gathering probe); the current
# kernels must reproduce their tables, bitmaps, stats, counters and
# ``KernelWork`` exactly — simulated time is derived from the last three.
#
# The old inserts stored a caller's value column in a value column the host
# had zeroed: ``fill(tvals, 0)``, ``iota(vals)``, insert.  The current ones
# store the row, initialise nothing and must build the table that sequence
# built — in every occupied slot; a free slot keeps whatever it held.
# ---------------------------------------------------------------------------

POISON = np.uint32(0x7FFFFFFF)

_OLD_MULTIPLIERS = np.array(
    [2654435761, 2246822519, 3266489917, 668265263, 374761393, 2166136261],
    dtype=np.uint64,
)
_OLD_MIXERS = np.array(
    [2484345967, 1831565813, 3571494541, 2654435789, 1099087573, 2971215073],
    dtype=np.uint64,
)
_OLD_CACHE_RESIDENT_BYTES = 4 * 1024 * 1024


def old_hash_slot(keys, func, m):
    k = keys.astype(np.uint64, copy=False)
    h = (k * _OLD_MULTIPLIERS[func]) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    h = (h * _OLD_MIXERS[func]) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(13)
    return (h % np.uint64(m)).astype(np.int64)


def old_distinct_slot_estimate(keys, m):
    if keys.size == 0:
        return 1
    if keys.size <= 65536:
        return max(1, int(np.unique(keys).size))
    sample = keys[:: max(1, keys.size // 65536)]
    distinct = int(np.unique(sample).size)
    if distinct >= sample.size // 2:  # looks unique-ish: extrapolate
        distinct = int(distinct * keys.size / sample.size)
    return max(1, min(distinct, m))


def old_optimistic_vec(tkeys, tvals, keys, vals, n, m):
    n, m = int(n), int(m)
    slots = old_hash_slot(keys[:n], 0, m)
    tkeys[slots] = keys[:n]
    tvals[slots] = vals[:n]


def old_insert_round(tkeys, tvals, pending_keys, pending_vals, slots):
    occupant = tkeys[slots]
    present = occupant == pending_keys
    empty = occupant == EMPTY
    if np.any(empty):
        cand_idx = np.nonzero(empty)[0]
        cand_slots = slots[cand_idx]
        first = np.unique(cand_slots, return_index=True)[1]
        winners = cand_idx[first]
        tkeys[slots[winners]] = pending_keys[winners]
        tvals[slots[winners]] = pending_vals[winners]
        present = tkeys[slots] == pending_keys
    return present


def old_pessimistic_vec(tkeys, tvals, stats, keys, vals, fail_bitmap, n, m):
    """Returns the CAS attempts the old body left for its ``work_fn``."""
    n, m = int(n), int(m)
    failed = np.unpackbits(fail_bitmap, bitorder="little", count=n).astype(bool)
    pending_keys = keys[:n][failed].copy()
    pending_vals = vals[:n][failed].copy()
    cas_attempts = 0
    for func in range(NUM_HASH_FUNCTIONS):
        if pending_keys.size == 0:
            break
        slots = old_hash_slot(pending_keys, func, m)
        cas_attempts += int(pending_keys.size)
        placed = old_insert_round(tkeys, tvals, pending_keys, pending_vals, slots)
        pending_keys = pending_keys[~placed]
        pending_vals = pending_vals[~placed]

    if pending_keys.size:
        base = old_hash_slot(pending_keys, NUM_HASH_FUNCTIONS - 1, m)
        for distance in range(1, PROBE_LIMIT + 1):
            slots = (base + distance) % m
            cas_attempts += int(pending_keys.size)
            placed = old_insert_round(
                tkeys, tvals, pending_keys, pending_vals, slots
            )
            pending_keys = pending_keys[~placed]
            pending_vals = pending_vals[~placed]
            base = base[~placed]
            if pending_keys.size == 0:
                break

    stats[0] = np.uint32(cas_attempts)
    stats[1] = np.uint32(pending_keys.size)
    return cas_attempts


def old_probe_vec(out_vals, found_bitmap, tkeys, tvals, keys, n, m):
    """Returns the look-ups the old body left for its ``work_fn``."""
    n, m = int(n), int(m)
    probe_keys = keys[:n]
    result = np.full(n, EMPTY, dtype=np.uint32)
    found = np.zeros(n, dtype=bool)
    pending = np.arange(n, dtype=np.int64)
    lookups = 0
    for func in range(NUM_HASH_FUNCTIONS):
        if pending.size == 0:
            break
        slots = old_hash_slot(probe_keys[pending], func, m)
        occupant = tkeys[slots]
        lookups += int(pending.size)
        hit = occupant == probe_keys[pending]
        result[pending[hit]] = tvals[slots[hit]]
        found[pending[hit]] = True
        pending = pending[~hit]
    if pending.size:
        base = old_hash_slot(probe_keys[pending], NUM_HASH_FUNCTIONS - 1, m)
        for distance in range(1, PROBE_LIMIT + 1):
            if pending.size == 0:
                break
            slots = (base + distance) % m
            occupant = tkeys[slots]
            lookups += int(pending.size)
            hit = occupant == probe_keys[pending]
            result[pending[hit]] = tvals[slots[hit]]
            found[pending[hit]] = True
            miss_final = occupant == EMPTY
            keep = ~hit & ~miss_final
            pending = pending[keep]
            base = base[keep]
    out_vals[:n] = result
    packed = np.packbits(found, bitorder="little")
    found_bitmap[: packed.size] = packed
    found_bitmap[packed.size :] = 0
    return lookups


def old_random_bytes(per_access, count, m):
    return per_access * count if 8 * m > _OLD_CACHE_RESIDENT_BYTES else 0


SIZES = (0, 1, 7, 65_536, 65_537, 200_001)
KEY_KINDS = ("constant", "distinct", "twenty", "skewed")


def make_keys(kind: str, n: int) -> np.ndarray:
    """Adversarial key columns; the top of the range sits next to EMPTY."""
    rng = np.random.default_rng(n + len(kind))
    if kind == "constant":
        return np.full(n, 0xFFFFFFFE, np.uint32)
    if kind == "distinct":
        return (0xFFFFFFFE - np.arange(n, dtype=np.int64)).astype(np.uint32)
    if kind == "twenty":
        return (rng.integers(0, 20, n) * 226050910).astype(np.uint32)
    return np.minimum(rng.zipf(1.3, n), 0xFFFFFFFE).astype(np.uint32)


def table_sizes(n: int) -> "tuple[int, ...]":
    """Tiny, small prime, a prime past the cache-resident threshold (so
    ``random_bytes`` is live), and the host's 1.4x over-allocation."""
    return (16, 157, 600_011, int(1.4 * n) + 1)


def vec_ctx():
    from repro import cl
    from repro.cl.kernel import ExecContext

    return ExecContext(cl.get_device("cpu"), {}, 64, 16)


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("kind", KEY_KINDS)
    @pytest.mark.parametrize("n", (7, 65_537))
    def test_hash_slot_is_the_64_bit_formula(self, kind, n):
        keys = make_keys(kind, n)
        for m in table_sizes(n) + (1, 2**31 - 1, 2**32 - 1):
            for func in range(NUM_HASH_FUNCTIONS):
                slots = hash_slot(keys, func, m)
                assert slots.dtype == np.int64
                assert np.array_equal(slots, old_hash_slot(keys, func, m))

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=50),
           st.integers(0, NUM_HASH_FUNCTIONS - 1), st.integers(1, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_hash_slot_property(self, values, func, m):
        keys = np.array(values, dtype=np.uint32)
        assert np.array_equal(hash_slot(keys, func, m),
                              old_hash_slot(keys, func, m))

    @pytest.mark.parametrize("kind", KEY_KINDS)
    @pytest.mark.parametrize("n", SIZES + (131_071, 131_072))
    def test_distinct_estimate_is_np_unique_on_the_same_sample(self, kind, n):
        from repro.kernels.hashing import _distinct_slot_estimate

        keys = make_keys(kind, n)
        for m in table_sizes(n):
            assert (_distinct_slot_estimate(keys, m)
                    == old_distinct_slot_estimate(keys, m)), (kind, n, m)

    @pytest.mark.parametrize("kind", KEY_KINDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_build_and_probe_match(self, kind, n):
        from repro.cl import KernelWork
        from repro.kernels import KERNEL_LIBRARY as lib

        keys = make_keys(kind, n)
        vals = np.arange(n, dtype=np.uint32)   # the old callers' iota
        # hits, misses next to hits, and keys next to EMPTY
        probe_keys = np.concatenate(
            (keys[::2], keys[::3] + np.uint32(1), keys[:5] - np.uint32(1))
        ).astype(np.uint32)
        probe_keys[probe_keys == EMPTY] = 0
        for m in dict.fromkeys(table_sizes(n)):
            if n > 65_537 and m == 16:
                continue  # 64 full-length probe rounds x 2; covered at 65 537
            where = (kind, n, m)

            def same_table():
                occupied = tkeys != EMPTY
                assert np.array_equal(tkeys, old_tk), where
                assert np.array_equal(tvals[occupied], old_tv[occupied]), where
                assert (tvals[~occupied] == POISON).all(), where
                assert_values_are_rows(tkeys, tvals, keys)

            ctx = vec_ctx()
            old_tk = np.full(m, EMPTY, np.uint32)
            old_tv = np.zeros(m, np.uint32)
            old_optimistic_vec(old_tk, old_tv, keys, vals, n, m)
            tkeys = np.full(m, EMPTY, np.uint32)
            tvals = np.full(m, POISON, np.uint32)
            lib["ht_insert_optimistic"].vec_fn(ctx, tkeys, tvals, keys, n, m)
            same_table()
            # the value column is no longer read: half the streamed bytes
            assert lib["ht_insert_optimistic"].work_fn(
                ctx, tkeys, tvals, keys, n, m
            ) == KernelWork(
                elements=n, bytes_read=4 * n,
                random_bytes=old_random_bytes(8, n, m), ops=6 * n,
                atomic_ops=n,
                atomic_addresses=old_distinct_slot_estimate(keys, m),
            )
            fail = np.zeros(bitmap_nbytes(n), np.uint8)
            fail_count = np.full(1, 7, np.uint32)
            lib["ht_check"].vec_fn(ctx, fail, fail_count, tkeys, keys, n, m)
            assert fail_count[0] == count_bits(fail, n)

            old_stats = np.zeros(2, np.uint32)
            attempts = old_pessimistic_vec(
                old_tk, old_tv, old_stats, keys, vals, fail, n, m
            )
            ctx = vec_ctx()
            stats = np.zeros(2, np.uint32)
            args = (ctx, tkeys, tvals, stats, keys, fail, n, m)
            lib["ht_insert_pessimistic"].vec_fn(*args)
            same_table()
            assert np.array_equal(stats, old_stats), where
            assert lib["ht_insert_pessimistic"].work_fn(*args) == KernelWork(
                elements=n, bytes_read=(n + 7) // 8,
                random_bytes=old_random_bytes(8, attempts, m),
                ops=12 * attempts, atomic_ops=attempts,
                atomic_addresses=old_distinct_slot_estimate(keys, m),
            ), where

            p = probe_keys.size
            old_out = np.zeros(max(p, 1), np.uint32)
            old_found = np.full(bitmap_nbytes(p) + 1, 0xFF, np.uint8)
            lookups = old_probe_vec(old_out, old_found, old_tk, old_tv,
                                    probe_keys, p, m)
            ctx = vec_ctx()
            out = np.zeros(max(p, 1), np.uint32)
            found = np.full(bitmap_nbytes(p) + 1, 0xFF, np.uint8)
            args = (ctx, out, found, tkeys, tvals, probe_keys, p, m)
            lib["ht_probe"].vec_fn(*args)
            assert np.array_equal(out, old_out), where
            assert np.array_equal(found, old_found), where
            assert lib["ht_probe"].work_fn(*args) == KernelWork(
                elements=p, bytes_read=4 * p,
                bytes_written=4 * p + (p + 7) // 8,
                random_bytes=old_random_bytes(8, lookups, m),
                ops=10 * lookups,
            ), where

    def test_counters_travel_on_the_launch_context(self):
        """The bodies leave their numbers in ``ctx.counters`` — a dict
        each launch gets fresh, so builds interleaved on one program
        (the session scheduler does this) cannot read each other's —
        and leave the program's defines alone.  The pessimistic round's
        input is one the build produces (optimistic round, check), and its
        table maps every key to the row the reference interpreter's does.
        The slots may differ: the body tries one hash function per round
        for all pending keys, the interpreter every function of one key
        before the next — two legal outcomes of the CAS race."""
        from repro import cl
        from repro.cl.workitem import run_reference
        from repro.kernels import KERNEL_LIBRARY as lib

        keys = np.arange(300, dtype=np.uint32)
        tkeys = np.full(431, EMPTY, np.uint32)
        tvals = np.zeros(431, np.uint32)
        fail = np.zeros(bitmap_nbytes(300), np.uint8)
        fail_count = np.zeros(1, np.uint32)
        stats = np.zeros(2, np.uint32)
        ctx, other = vec_ctx(), vec_ctx()
        defines = ctx.defines
        lib["ht_insert_optimistic"].vec_fn(vec_ctx(), tkeys, tvals, keys,
                                           300, 431)
        lib["ht_check"].vec_fn(vec_ctx(), fail, fail_count, tkeys, keys,
                               300, 431)
        assert fail_count[0] > 0
        ref_tkeys, ref_tvals = tkeys.copy(), tvals.copy()
        lib["ht_insert_pessimistic"].vec_fn(
            ctx, tkeys, tvals, stats, keys, fail, 300, 431)
        run_reference(lib["ht_insert_pessimistic"],
                      [ref_tkeys, ref_tvals, np.zeros(2, np.uint32), keys,
                       fail, 300, 431], 16, 8, device=cl.get_device("cpu"))
        for table in ((tkeys, tvals), (ref_tkeys, ref_tvals)):
            occupied = table[0] != EMPTY
            order = np.argsort(table[0][occupied])
            assert np.array_equal(table[0][occupied][order], keys)
            assert np.array_equal(table[1][occupied][order], keys)
        lib["ht_probe"].vec_fn(
            ctx, np.zeros(300, np.uint32), fail, tkeys, tvals, keys, 300, 431)
        assert ctx.defines is defines and defines == {}
        assert set(ctx.counters) == {"cas_attempts", "probe_lookups"}
        assert ctx.counters["cas_attempts"] == int(stats[0]) >= fail_count[0]
        assert ctx.counters["probe_lookups"] >= 300
        assert other.counters == {}


# ---------------------------------------------------------------------------
# The check round counts its own failures.  Before, the host learned that
# number from two more launches over the failure bitmap; they are kept
# here verbatim (``engine.launch`` -> ``rig.run``) as the reference the
# kernel's count slot is pinned to.
# ---------------------------------------------------------------------------

def old_failure_count(rig, fail_bm, n):
    parts = rig.ctx.device.profile.total_invocations
    counts = rig.empty(parts, np.uint32, tag="ht_fail_counts")
    rig.run("bitmap_count", counts, fail_bm, bitmap_nbytes(n), parts)
    total_buf = rig.empty(1, np.uint32, tag="ht_fail_total")
    rig.run("reduce_final", total_buf, counts, parts, "sum")
    host, _event = rig.queue.enqueue_read(total_buf)
    rig.queue.finish()
    return int(host[0])


class TestCheckCountsItsOwnFailures:
    @pytest.mark.parametrize("table", ("optimistic", "untouched"))
    @pytest.mark.parametrize("kind", KEY_KINDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_count_is_the_old_three_launch_total(self, rig, n, kind, table):
        keys = make_keys(kind, n)
        m = int(1.4 * n) + 17
        kb = rig.buf(keys if n else np.zeros(1, np.uint32))
        tkeys = rig.empty(m, np.uint32)
        tvals = rig.empty(m, np.uint32)
        rig.run("fill", tkeys, m, int(EMPTY))
        if table == "optimistic":
            rig.run("ht_insert_optimistic", tkeys, tvals, kb, n, m)
        fail = rig.empty(bitmap_nbytes(n), np.uint8)
        count = rig.zeros(1, np.uint32)
        rig.run("ht_check", fail, count, tkeys, kb, n, m)
        got = int(count.array[0])
        assert got == old_failure_count(rig, fail, n), (n, kind, table)
        if table == "untouched":            # no key is in the table
            assert got == n
        elif kind == "constant":            # one key, one slot: none fails
            assert got == 0
        elif kind == "distinct" and n > 7:  # colliding keys overwrote others
            assert 0 < got < n

    def test_work_charges_one_atomic_per_work_group(self, rig):
        from repro.cl import KernelWork
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY as lib

        profile = rig.ctx.device.profile
        ctx = ExecContext(rig.ctx.device, {}, profile.total_invocations,
                          profile.work_group_size)
        n, m = 1000, 600_011
        args = (np.zeros(bitmap_nbytes(n), np.uint8), np.zeros(1, np.uint32),
                np.full(m, EMPTY, np.uint32), np.arange(n, dtype=np.uint32),
                n, m)
        assert lib["ht_check"].work_fn(ctx, *args) == KernelWork(
            elements=n, bytes_read=4 * n, random_bytes=4 * n,
            bytes_written=(n + 7) // 8 + 4, ops=7 * n,
            atomic_ops=profile.num_work_groups, atomic_addresses=1,
        )


# ---------------------------------------------------------------------------
# The probe answers a miss from the table.  The body below is a verbatim
# copy of the probe before that rewrite, which walked every miss through
# h1…h5 and the linear probe; the current body must reproduce its values,
# found bitmap, look-up count and ``KernelWork`` on every table the three
# build kernels can leave, on either side of its size rule (it answers
# from the table only when more rows miss at h0 than the table has slots).
# The pessimistic round no longer tries h0; the copy of its body before
# that pins the tables it builds.
# ---------------------------------------------------------------------------

def round_by_round_probe_vec(ctx, out_vals, found_bitmap, tkeys, tvals,
                             keys, n, m):
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


def h0_round_pessimistic_vec(ctx, tkeys, tvals, stats, keys, fail_bitmap,
                             n, m):
    from repro.kernels.hashing import _insert_round

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


def built(keys: np.ndarray, m: int):
    """``(tkeys, tvals, fail bitmap, optimistic table)``: the three build
    kernels' table over ``keys`` (no key ``EMPTY``), the pessimistic round
    run by the round-by-round copy and by the kernel on twin tables, which
    must agree to the bit."""
    from repro.kernels import KERNEL_LIBRARY as lib

    n = keys.size
    ctx = vec_ctx()
    tkeys = np.full(m, EMPTY, np.uint32)
    tvals = np.full(m, POISON, np.uint32)
    lib["ht_insert_optimistic"].vec_fn(ctx, tkeys, tvals, keys, n, m)
    fail = np.zeros(bitmap_nbytes(n), np.uint8)
    fail_count = np.zeros(1, np.uint32)
    lib["ht_check"].vec_fn(ctx, fail, fail_count, tkeys, keys, n, m)
    optimistic = tkeys.copy()
    old_tk, old_tv, old_stats = tkeys.copy(), tvals.copy(), np.zeros(2, np.uint32)
    old_ctx = vec_ctx()
    h0_round_pessimistic_vec(old_ctx, old_tk, old_tv, old_stats, keys, fail,
                             n, m)
    stats = np.zeros(2, np.uint32)
    args = (vec_ctx(), tkeys, tvals, stats, keys, fail, n, m)
    lib["ht_insert_pessimistic"].vec_fn(*args)
    assert np.array_equal(tkeys, old_tk)
    assert np.array_equal(tvals, old_tv)
    assert np.array_equal(stats, old_stats)
    assert args[0].counters == old_ctx.counters
    old_args = (old_ctx,) + args[1:]
    assert (lib["ht_insert_pessimistic"].work_fn(*args)
            == lib["ht_insert_pessimistic"].work_fn(*old_args))
    return tkeys, tvals, fail, optimistic


def misses_at_h0(tkeys, probe_keys, m) -> int:
    """Rows the probe carries past h0: the side of its size rule."""
    slots = hash_slot(probe_keys, 0, m)
    return int(np.count_nonzero((tkeys[slots] != probe_keys)
                                & (probe_keys != EMPTY)))


def assert_probe_is_round_by_round(tkeys, tvals, probe_keys, m):
    """The kernel and the copy agree on values, bitmap, look-ups and
    work; returns the look-ups."""
    from repro.kernels import KERNEL_LIBRARY as lib

    p = probe_keys.size
    runs = []
    for body in (lib["ht_probe"].vec_fn, round_by_round_probe_vec):
        ctx = vec_ctx()
        out = np.full(max(p, 1), 0x5A5A5A5A, np.uint32)
        found = np.full(bitmap_nbytes(p) + 1, 0xFF, np.uint8)
        args = (ctx, out, found, tkeys, tvals, probe_keys, p, m)
        body(*args)
        runs.append((out, found, ctx.counters, lib["ht_probe"].work_fn(*args)))
    (out, found, counters, work), (old_out, old_found, old_counters,
                                   old_work) = runs
    assert np.array_equal(out, old_out)
    assert np.array_equal(found, old_found)
    assert counters == old_counters
    assert work == old_work
    return counters["probe_lookups"]


def absent_keys(tkeys, count, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**32 - 1, count, dtype=np.uint64).astype(np.uint32)
    return keys[~np.isin(keys, tkeys)]


class TestProbeAnswersMissesFromTheTable:
    def test_a_one_key_table(self):
        keys = np.array([42], np.uint32)
        tkeys, tvals, _fail, _ = built(keys, 16)
        probe_keys = np.concatenate(
            (keys, absent_keys(tkeys, 300, 1), keys)).astype(np.uint32)
        assert misses_at_h0(tkeys, probe_keys, 16) > 16
        assert_probe_is_round_by_round(tkeys, tvals, probe_keys, 16)

    @pytest.mark.parametrize("side", ("rounds", "table"))
    def test_mostly_absent_duplicated_and_marker_keys(self, side):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 2**31, 700)).astype(np.uint32)
        m = int(1.4 * keys.size) + 1
        tkeys, tvals, _fail, _ = built(keys, m)
        size = 2 * m if side == "table" else m // 2
        absent = absent_keys(tkeys, size, 8)
        present = keys[rng.integers(0, keys.size, size // 10)]
        probe_keys = np.concatenate(
            (absent, present, present[:5], [EMPTY, EMPTY])).astype(np.uint32)
        rng.shuffle(probe_keys)
        assert (probe_keys == EMPTY).sum() == 2
        assert np.isin(probe_keys, keys).mean() < 0.1
        assert (misses_at_h0(tkeys, probe_keys, m) > m) == (side == "table")
        assert_probe_is_round_by_round(tkeys, tvals, probe_keys, m)

    def test_no_rows(self):
        keys = np.arange(50, dtype=np.uint32)
        tkeys, tvals, _fail, _ = built(keys, 71)
        assert assert_probe_is_round_by_round(
            tkeys, tvals, np.zeros(0, np.uint32), 71) == 0

    @pytest.mark.parametrize("m", (16, 41, 63))
    def test_linearly_placed_keys_and_a_full_table(self, m):
        """Under ``PROBE_LIMIT`` slots the walk wraps; as many distinct
        keys as slots fill every one, most of them by the walk."""
        keys = (np.arange(m, dtype=np.uint32) * 2654435761) % 1_000_003
        tkeys, tvals, _fail, optimistic = built(keys, m)
        assert (tkeys != EMPTY).all()
        walked = [
            slot for slot in np.flatnonzero(optimistic == EMPTY)
            if all(hash_slot(tkeys[slot:slot + 1], f, m)[0] != slot
                   for f in range(NUM_HASH_FUNCTIONS))
        ]
        assert walked
        for side in (m // 2, 3 * m):
            probe_keys = np.concatenate(
                (keys, absent_keys(tkeys, side, m))).astype(np.uint32)
            lookups = assert_probe_is_round_by_round(tkeys, tvals,
                                                     probe_keys, m)
            # an absent key walks PROBE_LIMIT slots: none is free
            assert lookups >= (probe_keys.size - m) * (6 + PROBE_LIMIT)

    def test_runs_longer_than_the_probe_limit(self):
        """A nearly full table: most absent keys give up after
        ``PROBE_LIMIT`` occupied slots, the rest stop at a free one."""
        m = 4 * PROBE_LIMIT + 1
        keys = (np.arange(m - 2, dtype=np.uint32) * 40503) % 1_000_003
        tkeys, tvals, _fail, _ = built(keys, m)
        free = np.flatnonzero(tkeys == EMPTY)
        assert 0 < free.size and np.diff(free, append=free[0] + m).max() \
            > PROBE_LIMIT + 1
        probe_keys = absent_keys(tkeys, 3 * m, 5)
        assert misses_at_h0(tkeys, probe_keys, m) > m
        lookups = assert_probe_is_round_by_round(tkeys, tvals, probe_keys, m)
        assert lookups < probe_keys.size * (6 + PROBE_LIMIT)

    @given(st.integers(0, 150), st.integers(1, 40), st.integers(1, 300),
           st.integers(0, 400), st.floats(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_probe_property(self, n, universe, m, p, absent_share, seed):
        """Build keys from a small or wide universe (duplicates, walked
        and unplaced keys), then probe present, absent, repeated and
        ``EMPTY`` keys."""
        rng = np.random.default_rng(seed)
        scale = 1 if universe < 20 else 2654435761
        keys = ((rng.integers(0, universe * 7, n) * scale) % (2**32 - 1)
                ).astype(np.uint32)
        tkeys, tvals, fail, optimistic = built(keys, m)
        # the invariant the pessimistic round leans on: a flagged key's h0
        # slot holds another key, never EMPTY
        flagged = keys[np.unpackbits(fail, bitorder="little",
                                     count=n).astype(bool)]
        holder = optimistic[hash_slot(flagged, 0, m)]
        assert ((holder != EMPTY) & (holder != flagged)).all()
        absent = absent_keys(tkeys, p, seed + 1)
        present = (keys[rng.integers(0, n, p)] if n
                   else np.zeros(0, np.uint32))
        take_absent = rng.random(min(absent.size, present.size)) < absent_share
        mixed = np.where(take_absent, absent[:take_absent.size],
                         present[:take_absent.size])
        probe_keys = np.concatenate(
            (mixed, absent[take_absent.size:],
             np.full(rng.integers(0, 3), EMPTY))).astype(np.uint32)
        assert_probe_is_round_by_round(tkeys, tvals, probe_keys, m)


# ---------------------------------------------------------------------------
# A probe answers each distinct key once.  The bodies below are verbatim
# copies of the probe before that change, which looked every row up; when
# the probe keys span at most one value per eight rows the current body
# looks each distinct key up once and counts its look-ups once per row.  It
# must reproduce the copy's values, found bitmap, look-up count and
# ``KernelWork`` on either side of that rule, whatever the table holds.
# ---------------------------------------------------------------------------

def per_row_probe_vec(ctx, out_vals, found_bitmap, tkeys, tvals, keys, n, m):
    n, m = int(n), int(m)
    # h0 runs over the whole input; later rounds over the compacted misses
    probe_keys = keys[:n]
    slots = hash_slot(probe_keys, 0, m)
    marker = probe_keys == EMPTY        # in no table: a free slot's key
    found = (tkeys.take(slots) == probe_keys) & ~marker
    result = out_vals[:n]
    result[:] = tvals.take(slots)
    lookups = n
    pending = np.flatnonzero(~found)
    result[pending] = EMPTY
    if marker.any():
        pending = pending[~marker[pending]]
    if pending.size > m:
        # the table's arrays cost O(m): worth it once the misses to walk
        # outnumber the slots
        pending, absent_keys = per_row_split_absent(tkeys, probe_keys, slots,
                                                    pending, m)
        lookups += per_row_absent_lookups(tkeys, absent_keys, m)
    lookups += per_row_probe_rounds(tkeys, tvals, probe_keys, pending, result,
                                    found, m)
    packed = np.packbits(found, bitorder="little")
    found_bitmap[: packed.size] = packed
    found_bitmap[packed.size :] = 0
    ctx.counters["probe_lookups"] = lookups


def per_row_split_absent(tkeys, probe_keys, slots, pending, m):
    occupied = np.flatnonzero(tkeys != EMPTY)
    stored = tkeys.take(occupied)
    home = hash_slot(stored, 0, m)
    displaced = home != occupied
    home, stored = home[displaced], stored[displaced]
    rival = np.full(m, EMPTY, np.uint32)
    rival[home] = stored
    shared = np.zeros(m, bool)
    shared[home[rival.take(home) != stored]] = True
    at = slots.take(pending)
    pending_keys = probe_keys.take(pending)
    maybe = rival.take(at) == pending_keys
    maybe |= shared.take(at)
    return pending[maybe], pending_keys[~maybe]


def per_row_absent_lookups(tkeys, absent_keys, m) -> int:
    free = np.flatnonzero(tkeys == EMPTY)
    if free.size == 0:
        walk = np.full(m, PROBE_LIMIT, np.int64)
    else:
        # slots free[i] .. free[i + 1] - 1 walk to free[i + 1], circularly
        first = int(free[0])
        ends = np.append(free, first + m)
        walk = np.repeat(ends[1:], np.diff(ends))
        walk -= np.arange(first, first + m)
        np.minimum(walk, PROBE_LIMIT, out=walk)
        walk = np.roll(walk, first)
    last = hash_slot(absent_keys, NUM_HASH_FUNCTIONS - 1, m)
    return ((NUM_HASH_FUNCTIONS - 1) * int(absent_keys.size)
            + int(walk.take(last).sum()))


def per_row_probe_rounds(tkeys, tvals, probe_keys, pending, result, found,
                         m) -> int:
    lookups = 0
    pending_keys = probe_keys.take(pending)
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
    return lookups


def assert_probe_is_per_row(tkeys, tvals, probe_keys, m, per_key):
    """The kernel and the copy agree on values, bitmap, look-ups and
    work, and the kernel took the per-key path iff ``per_key``; returns
    the look-ups."""
    from repro.kernels import KERNEL_LIBRARY as lib
    from repro.kernels import hashing

    p = probe_keys.size
    runs, lows = [], []
    narrow_low = hashing._narrow_low
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "_narrow_low",
                      lambda keys: lows.append(narrow_low(keys)) or lows[-1])
        for body in (lib["ht_probe"].vec_fn, per_row_probe_vec):
            ctx = vec_ctx()
            out = np.full(max(p, 1), 0x5A5A5A5A, np.uint32)
            found = np.full(bitmap_nbytes(p) + 1, 0xFF, np.uint8)
            args = (ctx, out, found, tkeys, tvals, probe_keys, p, m)
            body(*args)
            runs.append((out, found, ctx.counters,
                         lib["ht_probe"].work_fn(*args)))
    assert [low is not None for low in lows] == [per_key]
    (out, found, counters, work), (old_out, old_found, old_counters,
                                   old_work) = runs
    assert np.array_equal(out, old_out)
    assert np.array_equal(found, old_found)
    assert counters == old_counters
    assert work == old_work
    return counters["probe_lookups"]


def hand_made_table(rng, m, universe, low, free_share):
    """Any keys in any slots (repeats included), any values: a probe is a
    function of key and table, whatever built it."""
    tkeys = (low + rng.integers(0, universe, m)).astype(np.uint32)
    tkeys[rng.random(m) < free_share] = EMPTY
    return tkeys, rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32)


class TestProbeAnswersEachDistinctKeyOnce:
    @pytest.mark.parametrize("span,per_key", ((100, True), (101, False)))
    def test_both_sides_of_the_rule(self, span, per_key):
        """800 rows over ``span`` values: per key up to 800 / 8."""
        rng = np.random.default_rng(span)
        keys = np.arange(5000, 5100, 2, dtype=np.uint32)   # half the range
        m = int(1.4 * keys.size) + 1
        tkeys, tvals, _fail, _ = built(keys, m)
        probe_keys = (5000 + rng.integers(0, span, 800)).astype(np.uint32)
        probe_keys[:2] = (5000, 5000 + span - 1)
        assert_probe_is_per_row(tkeys, tvals, probe_keys, m, per_key)

    def test_empty_inside_the_range(self):
        top = int(EMPTY)
        keys = np.arange(top - 40, top, 3, dtype=np.uint32)
        tkeys, tvals, _fail, _ = built(keys, 23)
        probe_keys = np.random.default_rng(3).integers(
            top - 40, top, 500, endpoint=True).astype(np.uint32)
        probe_keys[::50] = EMPTY
        lookups = assert_probe_is_per_row(tkeys, tvals, probe_keys, 23, True)
        assert lookups >= probe_keys.size

    @pytest.mark.parametrize("p", (0, 1))
    def test_no_rows_and_one_row(self, p):
        keys = np.arange(50, dtype=np.uint32)
        tkeys, tvals, _fail, _ = built(keys, 71)
        assert_probe_is_per_row(tkeys, tvals, keys[:p] + 10, 71, False)

    @pytest.mark.parametrize("key", (7, 700, int(EMPTY)))
    def test_all_keys_equal(self, key):
        """Present, absent and the free-slot marker: one key, 64 rows."""
        keys = np.arange(0, 200, 3, dtype=np.uint32)
        tkeys, tvals, _fail, _ = built(keys, 97)
        probe_keys = np.full(64, key, np.uint32)
        assert_probe_is_per_row(tkeys, tvals, probe_keys, 97, True)

    @pytest.mark.parametrize("m", (16, 401))
    def test_duplicated_absent_keys(self, m):
        """Mostly absent keys, each many times: with a 16-slot table more
        distinct keys miss at h0 than it has slots (the table answers
        them), with 401 slots the rounds do."""
        keys = np.arange(1000, 1300, 7, dtype=np.uint32)[: m // 2 + 1]
        tkeys, tvals, _fail, _ = built(keys, m)
        probe_keys = np.random.default_rng(m).integers(
            900, 1250, 8 * 350).astype(np.uint32)
        distinct = np.unique(probe_keys)
        assert (misses_at_h0(tkeys, distinct, m) > m) == (m == 16)
        assert_probe_is_per_row(tkeys, tvals, probe_keys, m, True)

    @given(st.integers(0, 150), st.integers(1, 60), st.integers(1, 300),
           st.integers(0, 1200), st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_built_tables(self, n, universe, m, p, span, seed):
        """Tables the build kernels leave, probed by ``p`` keys over
        ``span`` values around theirs, ``EMPTY`` sometimes among them."""
        rng = np.random.default_rng(seed)
        low = int(rng.integers(0, 2**32 - 1000))
        keys = (low + rng.integers(0, universe * 7, n)).astype(np.uint32)
        tkeys, tvals, _fail, _ = built(keys, m)
        probe_keys = (low + rng.integers(0, span, p)).astype(np.uint32)
        if p and rng.random() < 0.2:
            probe_keys[rng.integers(0, p)] = EMPTY
        assert_probe_is_per_row(tkeys, tvals, probe_keys, m,
                                p > 0 and 8 * (int(probe_keys.max())
                                               - int(probe_keys.min()) + 1)
                                <= p)

    @given(st.integers(1, 300), st.integers(1, 200), st.floats(0, 1),
           st.integers(1, 1200), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_hand_made_tables(self, m, universe, free_share, p, seed):
        rng = np.random.default_rng(seed)
        low = int(rng.integers(0, 2**32 - 2 * universe))
        tkeys, tvals = hand_made_table(rng, m, universe, low, free_share)
        probe_keys = (low + rng.integers(0, 2 * universe, p)).astype(np.uint32)
        assert_probe_is_per_row(tkeys, tvals, probe_keys, m,
                                8 * (int(probe_keys.max())
                                     - int(probe_keys.min()) + 1) <= p)

    def test_a_warm_pass_probes_as_per_row(self, warm_het_launches):
        """Every probe of a warm HET pass (SF 0.1) replayed through the
        per-row copy; the per-key path took some of them, not all."""
        from repro.kernels import KERNEL_LIBRARY as lib

        launches = warm_het_launches["ht_probe"]
        for launch in launches:
            launch.assert_replays_as(per_row_probe_vec, lib["ht_probe"].work_fn)
        per_key = [launch.fast for launch in launches]
        assert any(per_key) and not all(per_key)
