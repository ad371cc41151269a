"""Join expansion, grouping, and grouped-aggregation kernels."""

import math

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


def reference_reduce(gids, vals, ngroups, op, dtype):
    """Per group, in Python: the group's values cast to ``dtype``, in
    row order; a NaN answers ``min`` / ``max`` once it is seen; a group
    without rows answers the fold's identity.  ``sum`` is exact (ints)."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        empty = {"min": math.inf, "max": -math.inf, "sum": 0.0}[op]
    else:
        info = np.iinfo(dtype)
        empty = {"min": int(info.max), "max": int(info.min), "sum": 0}[op]
    out = []
    for g in range(ngroups):
        members = [dtype.type(v).item() for v, gid in zip(vals, gids)
                   if gid == g]
        if not members:
            out.append(empty)
        elif op == "sum":
            out.append(sum(members))
        elif any(v != v for v in members):
            out.append(math.nan)
        else:
            out.append((min if op == "min" else max)(members))
    return out


def assert_reduces_like_the_reference(gids, vals, ngroups, op, dtype):
    got = segmented_reduce(gids, vals, ngroups, op, dtype)
    assert got.dtype == np.dtype(dtype)
    want = reference_reduce(gids, vals, ngroups, op, dtype)
    for g, expected in enumerate(want):
        value = got[g].item()
        if expected != expected:
            assert value != value, (g, value)
            continue
        assert value == expected, (g, value, expected)
        # ±0.0 tie: whichever it is, it is one of the group's own values
        members = vals.astype(dtype)[gids == g]
        if op != "sum" and members.size:
            assert got[g].tobytes() in {m.tobytes() for m in members}


SPECIALS = (math.nan, 0.0, -0.0, math.inf, -math.inf)


class TestSegmentedReduceAgainstPython:
    """``min`` / ``max`` and the integer ``sum`` that float64 cannot add
    exactly, per group against a Python fold."""

    @given(
        st.lists(st.tuples(
            st.integers(0, 5),
            st.one_of(st.sampled_from(SPECIALS),
                      st.floats(-1e6, 1e6, width=32))),
            max_size=60),
        st.sampled_from((np.float32, np.float64)),
        st.sampled_from(("min", "max")),
    )
    @settings(max_examples=80, deadline=None)
    def test_floats_nan_signed_zeros_and_infinities(self, pairs, dtype, op):
        gids = np.array([g for g, _v in pairs], dtype=np.uint32)
        vals = np.array([v for _g, v in pairs], dtype=dtype)
        # groups 6 and 7 never hold a row
        assert_reduces_like_the_reference(gids, vals, 8, op, dtype)

    @pytest.mark.parametrize("op", ("min", "max", "sum"))
    def test_int64_past_two_to_the_53(self, op):
        big = 2 ** 53
        vals = np.array([big + 1, big, -big - 1, 2 ** 60, big + 3, -1,
                         -2 ** 60, big + 1], dtype=np.int64)
        gids = np.array([0, 0, 1, 1, 2, 2, 3, 0], dtype=np.uint32)
        assert_reduces_like_the_reference(gids, vals, 5, op, np.int64)

    @pytest.mark.parametrize("dtype", (np.int32, np.int64, np.float32,
                                       np.float64))
    @pytest.mark.parametrize("op", ("min", "max", "sum"))
    def test_empty_input(self, op, dtype):
        gids, vals = np.zeros(0, np.uint32), np.zeros(0, dtype)
        if op == "sum" and np.dtype(dtype).kind == "f":
            return          # float sums take bincount's path
        assert_reduces_like_the_reference(gids, vals, 3, op, dtype)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("op", ("min", "max"))
    def test_float64_values_into_a_float32_output(self, op):
        vals = np.array([1e-50, -1e-50, 1.0000000001, 1.0, 3e38, 1e39,
                         -1e39, 2.5], dtype=np.float64)
        gids = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.uint32)
        assert_reduces_like_the_reference(gids, vals, 5, op, np.float32)


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
