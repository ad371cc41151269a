"""The work-item reference interpreter, cross-validated against the
vectorised driver — the hardware-oblivious contract: one kernel text,
two execution drivers, identical results."""

import numpy as np
import pytest

from repro import cl
from repro.cl.workitem import run_reference
from repro.kernels import KERNEL_LIBRARY, count_bits
from repro.kernels.hashing import EMPTY


@pytest.fixture(params=["cpu", "gpu"])
def device(request):
    return cl.get_device(request.param)


def _run_both(name, make_args, device, global_size=16, local_size=8,
              defines=None):
    """Run ref and vec drivers on independent buffers; return both arg
    lists for comparison."""
    from repro.cl.kernel import ExecContext
    from repro.cl.compiler import default_defines

    definition = KERNEL_LIBRARY[name]
    merged = {**default_defines(device.device_type), **(defines or {})}
    ref_args = make_args()
    run_reference(definition, ref_args, global_size, local_size,
                  defines=merged, device=device)
    vec_args = make_args()
    ctx = ExecContext(device=device, defines=merged,
                      global_size=global_size, local_size=local_size)
    values = [a for a in vec_args]
    definition.vec_fn(ctx, *values)
    return ref_args, vec_args


class TestAccessPatterns:
    def test_chunk_covers_input_disjointly(self):
        wi_ranges = []
        for gid in range(4):
            from repro.cl.workitem import WorkItem

            wi = WorkItem(gid, gid, 0, 4, 4, {})
            wi_ranges.append(list(wi.chunk(10)))
        flat = sorted(x for r in wi_ranges for x in r)
        assert flat == list(range(10))

    def test_strided_covers_input_disjointly(self):
        from repro.cl.workitem import WorkItem

        elements = []
        for gid in range(4):
            wi = WorkItem(gid, gid, 0, 4, 4, {})
            elements += list(wi.strided(10))
        assert sorted(elements) == list(range(10))

    def test_partition_selected_by_define(self):
        from repro.cl.workitem import WorkItem

        coalesced = WorkItem(1, 1, 0, 4, 4, {"ACCESS_PATTERN": "coalesced"})
        sequential = WorkItem(1, 1, 0, 4, 4, {"ACCESS_PATTERN": "sequential"})
        assert list(coalesced.partition(8)) == [1, 5]
        assert list(sequential.partition(8)) == [2, 3]


class TestRefVsVec:
    def test_gather(self, device):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 100, 64).astype(np.int32)
        idx = rng.integers(0, 64, 40).astype(np.uint32)

        def make():
            return [np.zeros(40, np.int32), src.copy(), idx.copy(), 40]

        ref, vec = _run_both("gather", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(ref[0], src[idx])

    @pytest.mark.parametrize("code_dtype", (np.uint8, np.uint32, np.int64))
    def test_gather_add_widens_before_it_adds(self, device, code_dtype):
        """FOR decode: codes at their dtype's maximum plus a frame far
        outside the code's range, summed at the column's width."""
        out_dtype = np.int64 if code_dtype is np.int64 else np.int32
        top = 255 if code_dtype is np.uint8 else 2**32 - 1
        frame = -(2**31) if code_dtype is np.uint32 else 70_000
        rng = np.random.default_rng(7)
        codes = rng.integers(0, top, 64, endpoint=True).astype(code_dtype)
        codes[:3] = top
        idx = rng.integers(0, 64, 40).astype(np.uint32)

        def make():
            return [np.zeros(40, out_dtype), codes.copy(), idx.copy(), 40,
                    frame]

        ref, vec = _run_both("gather_add", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert [int(v) for v in vec[0]] == [int(codes[i]) + frame
                                            for i in idx]

    def test_gather2(self, device):
        rng = np.random.default_rng(8)
        src = rng.normal(size=9).astype(np.float32)
        mid = rng.integers(0, 9, 64).astype(np.uint8)
        idx = rng.integers(0, 64, 40).astype(np.uint32)

        def make():
            return [np.zeros(40, np.float32), src.copy(), mid.copy(),
                    idx.copy(), 40]

        ref, vec = _run_both("gather2", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(vec[0], src[mid[idx]])

    @pytest.mark.parametrize("op, value", (("mul", 0.5), ("add", 2.5),
                                           ("sub", 0.25), ("rsub", 1.5)))
    def test_ewise_scalar_constant_has_the_result_type(self, device, op,
                                                       value):
        """int column, float constant, float result: the constant is not
        truncated to the column's type."""
        col = np.arange(-20, 20, dtype=np.int32)

        def make():
            return [np.zeros(40, np.float64), col.copy(), 40, op, value]

        ref, vec = _run_both("ewise_scalar", make, device)
        assert np.array_equal(ref[0], vec[0])
        expected = {"mul": col * value, "add": col + value,
                    "sub": col - value, "rsub": value - col}[op]
        assert np.array_equal(vec[0], expected)

    @pytest.mark.parametrize("n_bits, parts", ((77, 8), (77, 200), (8, 16),
                                               (1, 16)))
    def test_bitmap_offsets(self, device, n_bits, parts):
        """Counts and their scan in one launch; the last of the two
        work-groups scans.  ``parts`` beyond the bytes (and the set
        bits) leaves empty partitions."""
        rng = np.random.default_rng(n_bits + parts)
        nbytes = (n_bits + 7) // 8
        bitmap = np.packbits(rng.integers(0, 2, n_bits).astype(np.uint8),
                             bitorder="little")

        def make():
            return [np.full(parts + 1, 0x7FFFFFFF, np.uint32),
                    bitmap.copy(), nbytes, parts]

        ref, vec = _run_both("bitmap_offsets", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert vec[0][0] == 0 and vec[0][parts] == count_bits(bitmap, n_bits)
        assert np.all(np.diff(vec[0].astype(np.int64)) >= 0)

    def test_select_bitmap(self, device):
        rng = np.random.default_rng(2)
        col = rng.integers(0, 50, 77).astype(np.int32)
        nbytes = (77 + 7) // 8

        def make():
            return [np.zeros(nbytes, np.uint8), col.copy(), 77, "[)", 10,
                    30, False]

        ref, vec = _run_both("select_bitmap", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert count_bits(vec[0], 77) == int(((col >= 10) & (col < 30)).sum())

    def test_prefix_sum_single_group(self, device):
        data = np.arange(1, 17, dtype=np.uint32)

        def make():
            return [np.zeros(16, np.uint32), data.copy(), 16]

        # Hillis-Steele reference needs one work-group spanning the input
        ref, vec = _run_both("prefix_sum", make, device,
                             global_size=16, local_size=16)
        expected = np.concatenate(([0], np.cumsum(data)[:-1]))
        assert np.array_equal(ref[0], expected)
        assert np.array_equal(vec[0], expected)

    def test_bitmap_binop_and_not(self, device):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, 16).astype(np.uint8)
        b = rng.integers(0, 256, 16).astype(np.uint8)

        def make_and():
            return [np.zeros(16, np.uint8), a.copy(), b.copy(), 16, "and"]

        ref, vec = _run_both("bitmap_binop", make_and, device)
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(vec[0], a & b)

        def make_not():
            return [np.zeros(16, np.uint8), a.copy(), 125, 16]

        ref, vec = _run_both("bitmap_not", make_not, device)
        assert np.array_equal(ref[0], vec[0])

    def test_radix_pass_pipeline(self, device):
        """histogram -> offsets -> reorder on both drivers."""
        rng = np.random.default_rng(4)
        n, parts, bits = 96, 8, 4
        keys = rng.integers(0, 2**16, n).astype(np.uint32)
        payload = np.arange(n, dtype=np.uint32)
        radix = 1 << bits
        defines = {"RADIX_BITS": bits}

        def stage(make_ref):
            hist = np.zeros(parts * radix, np.uint32)
            offsets = np.zeros(radix * parts, np.uint32)
            keys_out = np.zeros(n, np.uint32)
            pay_out = np.zeros(n, np.uint32)
            return hist, offsets, keys_out, pay_out

        # reference
        h_r, o_r, ko_r, po_r = stage(True)
        run_reference(KERNEL_LIBRARY["radix_histogram"],
                      [h_r, keys, n, 0, parts], 8, 4, defines=defines,
                      device=device)
        run_reference(KERNEL_LIBRARY["radix_offsets"],
                      [o_r, h_r, parts], 8, 4, defines=defines,
                      device=device)
        run_reference(KERNEL_LIBRARY["radix_reorder"],
                      [ko_r, po_r, keys, payload, o_r, n, 0, parts],
                      8, 4, defines=defines, device=device)
        # vectorised
        from repro.cl.kernel import ExecContext
        from repro.cl.compiler import default_defines

        merged = {**default_defines(device.device_type), **defines}
        ctx = ExecContext(device=device, defines=merged, global_size=8,
                          local_size=4)
        h_v, o_v, ko_v, po_v = stage(False)
        KERNEL_LIBRARY["radix_histogram"].vec_fn(ctx, h_v, keys, n, 0, parts)
        KERNEL_LIBRARY["radix_offsets"].vec_fn(ctx, o_v, h_v, parts)
        KERNEL_LIBRARY["radix_reorder"].vec_fn(
            ctx, ko_v, po_v, keys, payload, o_v, n, 0, parts
        )
        assert np.array_equal(h_r, h_v)
        assert np.array_equal(o_r, o_v)
        assert np.array_equal(ko_r, ko_v)
        assert np.array_equal(po_r, po_v)
        # the first pass's own kernel: the same scatter with the iota
        # payload above written by the kernel itself, on both drivers
        _h, _o, ko_f, po_f = stage(True)
        run_reference(KERNEL_LIBRARY["radix_reorder_first"],
                      [ko_f, po_f, keys, o_r, n, 0, parts],
                      8, 4, defines=defines, device=device)
        assert np.array_equal(ko_f, ko_v) and np.array_equal(po_f, po_v)
        _h, _o, ko_f, po_f = stage(False)
        KERNEL_LIBRARY["radix_reorder_first"].vec_fn(
            ctx, ko_f, po_f, keys, o_v, n, 0, parts
        )
        assert np.array_equal(ko_f, ko_v) and np.array_equal(po_f, po_v)
        # and the pass is a correct stable partial sort by digit
        digits = ko_v & (radix - 1)
        assert np.all(np.diff(digits.astype(np.int64)) >= 0)

    def test_hash_probe_semantics(self, device):
        """Build via vec, probe via both drivers: identical lookups."""
        keys = np.arange(100, dtype=np.uint32) * 7 + 3
        m = 173
        tkeys = np.full(m, EMPTY, np.uint32)
        tvals = np.zeros(m, np.uint32)
        from repro.cl.kernel import ExecContext
        from repro.cl.compiler import default_defines

        merged = default_defines(device.device_type)
        ctx = ExecContext(device=device, defines=merged, global_size=16,
                          local_size=8)
        KERNEL_LIBRARY["ht_insert_optimistic"].vec_fn(
            ctx, tkeys, tvals, keys, 100, m,
        )
        fail = np.zeros((100 + 7) // 8, np.uint8)
        fail_count = np.zeros(1, np.uint32)
        KERNEL_LIBRARY["ht_check"].vec_fn(ctx, fail, fail_count, tkeys, keys,
                                          100, m)
        stats = np.zeros(2, np.uint32)
        KERNEL_LIBRARY["ht_insert_pessimistic"].vec_fn(
            ctx, tkeys, tvals, stats, keys, fail, 100, m,
        )
        assert stats[1] == 0

        probe = np.concatenate([keys[:50], keys[:50] + 1]).astype(np.uint32)

        def make():
            return [np.zeros(100, np.uint32),
                    np.zeros((100 + 7) // 8, np.uint8),
                    tkeys.copy(), tvals.copy(), probe, 100, m]

        ref, vec = _run_both("ht_probe", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(ref[1], vec[1])

    @pytest.mark.parametrize("duplicates", (False, True))
    def test_hash_inserts_store_the_row(self, device, duplicates):
        """Both inserts on both drivers: every occupied slot's value is
        the row of a key equal to the slot's, whatever the value column
        held.  Which of two colliding keys keeps its first-choice slot,
        and which duplicate's row survives, is the race's to pick: the
        drivers agree where they write in the same order (distinct keys,
        the CPU's chunked partition)."""
        n, m = 200, 331
        keys = (np.arange(n, dtype=np.uint32) * 2654435761) % 100_003
        if duplicates:
            keys = keys % 37
        fail = np.zeros((n + 7) // 8, np.uint8)

        def table():
            return np.full(m, EMPTY, np.uint32), np.full(m, 0x7FFFFFFF,
                                                         np.uint32)

        def optimistic():
            return [*table(), keys.copy(), n, m]

        ref, vec = _run_both("ht_insert_optimistic", optimistic, device)
        tables = []
        for tkeys, tvals in (ref[:2], vec[:2]):
            count = np.zeros(1, np.uint32)
            KERNEL_LIBRARY["ht_check"].vec_fn(None, fail, count, tkeys,
                                              keys, n, m)
            assert duplicates or count[0] > 0
            stats = np.zeros(2, np.uint32)
            args = [tkeys, tvals, stats, keys.copy(), fail.copy(), n, m]
            if tkeys is ref[0]:
                run_reference(KERNEL_LIBRARY["ht_insert_pessimistic"], args,
                              16, 8, device=device)
            else:
                from repro.cl.kernel import ExecContext

                KERNEL_LIBRARY["ht_insert_pessimistic"].vec_fn(
                    ExecContext(device, {}, 16, 8), *args)
            assert stats[1] == 0
            occupied = tkeys != EMPTY
            assert np.array_equal(keys[tvals[occupied]], tkeys[occupied])
            assert (tvals[~occupied] == 0x7FFFFFFF).all()
            assert np.array_equal(np.unique(tkeys[occupied]), np.unique(keys))
            tables.append((tkeys, tvals))
        if not duplicates and device.is_cpu:
            assert np.array_equal(tables[0][0], tables[1][0])
            assert np.array_equal(tables[0][1], tables[1][1])

    def test_hash_check_bitmap_and_count(self, device):
        """Colliding keys after an optimistic-only build: both drivers
        flag the same overwritten keys and count them."""
        keys = (np.arange(200, dtype=np.uint32) * 2654435761) % 100_003
        m = 131
        tkeys = np.full(m, EMPTY, np.uint32)
        tvals = np.zeros(m, np.uint32)
        from repro.cl.kernel import ExecContext

        ctx = ExecContext(device=device, defines={}, global_size=16,
                          local_size=8)
        KERNEL_LIBRARY["ht_insert_optimistic"].vec_fn(
            ctx, tkeys, tvals, keys, 200, m)

        def make():
            return [np.zeros(25, np.uint8), np.zeros(1, np.uint32),
                    tkeys.copy(), keys.copy(), 200, m]

        ref, vec = _run_both("ht_check", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert ref[1][0] == vec[1][0] == count_bits(vec[0], 200) > 0

    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 8, 9, 33, 64, 100))
    def test_local_sort(self, device, n, key_dtype):
        """The bitonic network over (key, position) pairs against the
        stable argsort, duplicates and both key extremes included; a
        second work-group and idle work-items (n < 8) change nothing."""
        rng = np.random.default_rng(n)
        top = np.iinfo(key_dtype).max
        keys = rng.integers(0, 5, n).astype(key_dtype) * key_dtype(top // 4)
        keys[n // 2:] = rng.integers(0, top, n - n // 2, dtype=key_dtype,
                                     endpoint=True)
        keys[: n // 4] = top

        def make():
            return [np.full(max(n, 1), 7, key_dtype),
                    np.full(max(n, 1), 7, np.uint32), keys.copy(), n]

        ref, vec = _run_both("local_sort", make, device)
        assert np.array_equal(ref[0], vec[0])
        assert np.array_equal(ref[1], vec[1])
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(vec[1][:n], order)
        assert np.array_equal(vec[0][:n], keys[order])

    def test_grouped_agg_partial(self, device):
        rng = np.random.default_rng(5)
        gids = rng.integers(0, 4, 64).astype(np.uint32)
        vals = rng.integers(0, 100, 64).astype(np.int32)

        def make():
            return [np.zeros((2, 4), np.int64), gids.copy(), vals.copy(),
                    64, 4, "sum", 1, True]

        ref, vec = _run_both("grouped_agg_partial", make, device,
                             global_size=16, local_size=8)
        assert np.array_equal(ref[0].sum(axis=0), vec[0].sum(axis=0))
        expected = np.bincount(gids, weights=vals, minlength=4)
        assert np.array_equal(vec[0].sum(axis=0), expected.astype(np.int64))


class TestBarrierSemantics:
    def test_divergent_barrier_detected(self):
        from repro.cl.kernel import KernelDef, params

        def bad(wi, out, n):
            if wi.local_id() == 0:
                yield  # only one work-item reaches the barrier
            out[wi.global_id()] = 1

        definition = KernelDef(
            name="bad", params=params("out:res scalar:n"),
            vec_fn=lambda ctx, out, n: None,
            work_fn=lambda ctx, out, n: None, ref_fn=bad,
        )
        with pytest.raises(cl.BarrierDivergence):
            run_reference(definition, [np.zeros(4, np.int32), 4], 4, 4)

    def test_non_generator_reference_rejected(self):
        from repro.cl.kernel import KernelDef, params

        definition = KernelDef(
            name="plain", params=params("out:res scalar:n"),
            vec_fn=lambda ctx, out, n: None,
            work_fn=lambda ctx, out, n: None,
            ref_fn=lambda wi, out, n: None,
        )
        with pytest.raises(cl.InvalidKernelArgs):
            run_reference(definition, [np.zeros(4, np.int32), 4], 4, 4)

    def test_size_validation(self):
        definition = KERNEL_LIBRARY["gather"]
        args = [np.zeros(4, np.int32), np.zeros(4, np.int32),
                np.zeros(4, np.uint32), 4]
        with pytest.raises(cl.InvalidKernelArgs):
            run_reference(definition, args, 7, 4)  # not divisible
        with pytest.raises(cl.InvalidKernelArgs):
            run_reference(definition, args, 0, 0)

    def test_missing_reference_impl(self):
        definition = KERNEL_LIBRARY["oids_to_bitmap"]
        assert definition.ref_fn is None
        with pytest.raises(cl.InvalidKernelArgs):
            run_reference(definition, [], 4, 4)

    def test_local_memory_materialised_per_group(self):
        from repro.cl.kernel import KernelDef, Local, params

        def kernel(wi, out, scratch, n):
            scratch[wi.local_id()] = wi.global_id()
            yield
            if wi.local_id() == 0:
                out[wi.group_id()] = int(scratch.sum())

        definition = KernelDef(
            name="localsum", params=params("out:res local:tmp scalar:n"),
            vec_fn=lambda ctx, out, tmp, n: None,
            work_fn=lambda ctx, out, tmp, n: None, ref_fn=kernel,
        )
        out = np.zeros(2, np.int64)
        run_reference(definition, [out, Local(4, np.int64), 8], 8, 4)
        assert out[0] == 0 + 1 + 2 + 3
        assert out[1] == 4 + 5 + 6 + 7
