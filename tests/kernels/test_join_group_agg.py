"""Join expansion, grouping, and grouped-aggregation kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import bitmap_nbytes, segmented_reduce
from repro.kernels.aggregation import accumulators_for


class TestNestedLoopJoin:
    def test_count_and_write(self, rig):
        left = np.array([1, 5, 3], dtype=np.int32)
        right = np.array([2, 4, 6], dtype=np.int32)
        counts = rig.zeros(3, np.uint32)
        rig.run("nlj_count", counts, rig.buf(left), rig.buf(right), 3, 3, "<")
        assert np.array_equal(counts.array, [3, 1, 2])
        offsets = rig.zeros(4, np.uint32)
        rig.run("prefix_sum", offsets, counts, 3)
        total = int(offsets.array[3])
        assert total == 6
        l_out = rig.empty(total, np.uint32)
        r_out = rig.empty(total, np.uint32)
        rig.run("nlj_write", l_out, r_out, offsets, rig.buf(left),
                rig.buf(right), 3, 3, "<")
        pairs = set(zip(l_out.array.tolist(), r_out.array.tolist()))
        expected = {
            (i, j) for i in range(3) for j in range(3)
            if left[i] < right[j]
        }
        assert pairs == expected

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "==", "!="])
    def test_all_theta_ops(self, rig, op):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 10, 20).astype(np.int32)
        right = rng.integers(0, 10, 15).astype(np.int32)
        counts = rig.zeros(20, np.uint32)
        rig.run("nlj_count", counts, rig.buf(left), rig.buf(right),
                20, 15, op)
        from repro.kernels.join import _theta_mask

        assert np.array_equal(
            counts.array, _theta_mask(left, right, op).sum(axis=1)
        )


class TestJoinExpansion:
    def test_gather_counts_respects_found(self, rig):
        run_counts = np.array([2, 5, 1], dtype=np.uint32)
        run_idx = np.array([0, 2, 1, 0], dtype=np.uint32)
        found = np.packbits([1, 0, 1, 1], bitorder="little")
        counts = rig.zeros(4, np.uint32)
        rig.run("join_gather_counts", counts, rig.buf(run_counts),
                rig.buf(run_idx), rig.buf(found), 4)
        assert np.array_equal(counts.array, [2, 0, 5, 2])

    def test_expand(self, rig):
        # two runs: run 0 = build rows [10, 11], run 1 = [20]
        run_starts = np.array([0, 2], dtype=np.uint32)
        run_counts = np.array([2, 1], dtype=np.uint32)
        build_oids = np.array([10, 11, 20], dtype=np.uint32)
        run_idx = np.array([1, 0], dtype=np.uint32)
        found = np.packbits([1, 1], bitorder="little")
        counts = np.array([1, 2], dtype=np.uint32)
        offsets = rig.zeros(3, np.uint32)
        rig.run("prefix_sum", offsets, rig.buf(counts), 2)
        lpos = rig.empty(3, np.uint32)
        rpos = rig.empty(3, np.uint32)
        rig.run("join_expand", lpos, rpos, offsets, rig.buf(run_idx),
                rig.buf(run_starts), rig.buf(run_counts),
                rig.buf(build_oids), rig.buf(found), 2)
        assert np.array_equal(lpos.array, [0, 1, 1])   # the probe rows
        assert np.array_equal(rpos.array, [20, 10, 11])


class TestGroupBoundaries:
    def test_sorted_runs(self, rig):
        col = np.array([1, 1, 2, 2, 2, 5], dtype=np.int32)
        bounds = rig.zeros(6, np.uint32)
        rig.run("group_boundaries", bounds, rig.buf(col), 6)
        assert np.array_equal(bounds.array, [0, 0, 1, 0, 0, 1])

    def test_combine_ids(self, rig):
        a = np.array([0, 1, 2], dtype=np.uint32)
        b = np.array([1, 0, 1], dtype=np.uint32)
        out = rig.empty(3, np.uint32)
        rig.run("combine_ids", out, rig.buf(a), rig.buf(b), 3, 2)
        assert np.array_equal(out.array, [1, 2, 5])

    def test_combine_overflow_detected(self, rig):
        a = np.array([2**20], dtype=np.uint32)
        b = np.array([0], dtype=np.uint32)
        out = rig.empty(1, np.uint32)
        with pytest.raises(OverflowError):
            rig.run("combine_ids", out, rig.buf(a), rig.buf(b), 1, 2**13)


class TestSegmentedReduce:
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-100, 100)),
                 min_size=1, max_size=300)
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_min_max_count(self, pairs):
        gids = np.array([p[0] for p in pairs], dtype=np.uint32)
        vals = np.array([p[1] for p in pairs], dtype=np.int32)
        sums = segmented_reduce(gids, vals, 6, "sum", np.int64)
        counts = segmented_reduce(gids, None, 6, "count", np.int64)
        mins = segmented_reduce(gids, vals, 6, "min", np.int32)
        maxs = segmented_reduce(gids, vals, 6, "max", np.int32)
        for g in range(6):
            members = vals[gids == g]
            assert counts[g] == members.size
            assert sums[g] == members.sum() if members.size else sums[g] == 0
            if members.size:
                assert mins[g] == members.min()
                assert maxs[g] == members.max()


class TestGroupedAggKernels:
    def test_partial_plus_final(self, rig):
        rng = np.random.default_rng(12)
        gids = rng.integers(0, 7, 3000).astype(np.uint32)
        vals = rng.normal(0, 10, 3000).astype(np.float32)
        groups = rig.ctx.device.profile.num_work_groups
        partials = rig.ctx.create_buffer(
            np.zeros((groups, 7), np.float64)
        )
        rig.run("grouped_agg_partial", partials, rig.buf(gids),
                rig.buf(vals), 3000, 7, "sum", 4, True)
        result = rig.empty(7, np.float64)
        rig.run("grouped_agg_final", result, partials, 7, "sum")
        expected = np.bincount(gids, weights=vals, minlength=7)
        assert np.allclose(result.array, expected, rtol=1e-9)

    @pytest.mark.parametrize("op", ["min", "max", "count"])
    def test_other_ops(self, rig, op):
        rng = np.random.default_rng(13)
        gids = rng.integers(0, 5, 999).astype(np.uint32)
        vals = rng.integers(-50, 50, 999).astype(np.int32)
        groups = rig.ctx.device.profile.num_work_groups
        acc = np.int64 if op == "count" else np.int32
        partials_arr = np.zeros((groups, 5), acc)
        if op == "min":
            partials_arr[:] = np.iinfo(np.int32).max
        if op == "max":
            partials_arr[:] = np.iinfo(np.int32).min
        partials = rig.ctx.create_buffer(partials_arr)
        rig.run("grouped_agg_partial", partials, rig.buf(gids),
                rig.buf(vals), 999, 5, op, 1, True)
        result = rig.empty(5, acc)
        rig.run("grouped_agg_final", result, partials, 5, op)
        expected = segmented_reduce(gids, vals, 5, op, acc)
        assert np.array_equal(result.array, expected)

    def test_accumulators_inversely_proportional(self):
        """The paper's contention mitigation policy."""
        few, local_few = accumulators_for(4, 48 * 1024)
        many, local_many = accumulators_for(10_000, 48 * 1024)
        assert few > many
        assert local_few
        assert many >= 1

    def test_accumulators_respect_local_memory(self):
        accums, fits = accumulators_for(100, 256)  # tiny local memory
        assert accums * 100 * 8 <= 256 or not fits
