"""Parallel primitives: scan, gather/scatter, reduce, element-wise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.primitives import _BINOPS


class TestPrefixSum:
    def test_exclusive_scan(self, rig):
        data = np.arange(1, 101, dtype=np.uint32)
        out = rig.zeros(100, np.uint32)
        rig.run("prefix_sum", out, rig.buf(data), 100)
        expected = np.concatenate(([0], np.cumsum(data)[:-1]))
        assert np.array_equal(out.array, expected)

    def test_total_slot(self, rig):
        """The optional (n+1)-th slot receives the total."""
        data = np.full(10, 3, dtype=np.uint32)
        out = rig.zeros(11, np.uint32)
        rig.run("prefix_sum", out, rig.buf(data), 10)
        assert out.array[10] == 30

    def test_empty_scan_zeroes_its_total_slot(self, rig):
        """Device buffers are not zeroed: the host reads slot ``n`` as
        the total (the join's run count) even when ``n == 0``."""
        out = rig.buf(np.array([12345], dtype=np.uint32))
        rig.run("prefix_sum", out, rig.zeros(1, np.uint32), 0)
        assert out.array[0] == 0

    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_scan_property(self, values):
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY
        from repro import cl

        data = np.array(values, dtype=np.uint32)
        out = np.zeros(max(len(values), 1), np.uint32)
        ctx = ExecContext(cl.get_device("cpu"), {}, 64, 16)
        KERNEL_LIBRARY["prefix_sum"].vec_fn(ctx, out, data, len(values))
        if values:
            assert out[0] == 0
            assert np.array_equal(
                out[: len(values)],
                np.concatenate(([0], np.cumsum(data)[:-1])),
            )


class TestGatherScatter:
    def test_gather(self, rig):
        src = np.arange(100, dtype=np.float32) * 1.5
        idx = np.array([5, 0, 99, 50, 5], dtype=np.uint32)
        out = rig.empty(5, np.float32)
        rig.run("gather", out, rig.buf(src), rig.buf(idx), 5)
        assert np.array_equal(out.array, src[idx])

    def test_scatter(self, rig):
        src = np.array([10, 20, 30], dtype=np.int32)
        idx = np.array([7, 1, 4], dtype=np.uint32)
        out = rig.zeros(10, np.int32)
        rig.run("scatter", out, rig.buf(src), rig.buf(idx), 3)
        expected = np.zeros(10, np.int32)
        expected[idx] = src
        assert np.array_equal(out.array, expected)

    @given(st.integers(1, 500), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gather_scatter_roundtrip(self, n, seed):
        """scatter(out, gather(src, perm), perm) == src for permutations."""
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY
        from repro import cl

        rng = np.random.default_rng(seed)
        src = rng.integers(0, 1000, n).astype(np.int32)
        perm = rng.permutation(n).astype(np.uint32)
        ctx = ExecContext(cl.get_device("gpu"), {}, 64, 16)
        gathered = np.zeros(n, np.int32)
        KERNEL_LIBRARY["gather"].vec_fn(ctx, gathered, src, perm, n)
        back = np.zeros(n, np.int32)
        KERNEL_LIBRARY["scatter"].vec_fn(ctx, back, gathered, perm, n)
        assert np.array_equal(back, src)


class TestReduce:
    @pytest.mark.parametrize("op,np_fn", [
        ("sum", np.sum), ("min", np.min), ("max", np.max),
    ])
    def test_reduce_two_stage(self, rig, op, np_fn):
        rng = np.random.default_rng(7)
        data = rng.normal(100, 20, 10_000).astype(np.float32)
        groups = rig.ctx.device.profile.num_work_groups
        partials = rig.empty(groups, np.float64)
        rig.run("reduce_partial", partials, rig.buf(data), 10_000, op)
        result = rig.empty(1, np.float64)
        rig.run("reduce_final", result, partials, groups, op)
        assert result.array[0] == pytest.approx(
            float(np_fn(data.astype(np.float64))), rel=1e-9
        )

    def test_reduce_int_accumulator(self, rig):
        data = np.full(1000, 2**20, dtype=np.int32)
        groups = rig.ctx.device.profile.num_work_groups
        partials = rig.empty(groups, np.int64)
        rig.run("reduce_partial", partials, rig.buf(data), 1000, "sum")
        result = rig.empty(1, np.int64)
        rig.run("reduce_final", result, partials, groups, "sum")
        assert result.array[0] == 1000 * 2**20  # no int32 overflow


class TestEwise:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_ewise_float(self, rig, op):
        rng = np.random.default_rng(op.encode()[0])
        a = rng.uniform(1, 10, 256).astype(np.float32)
        b = rng.uniform(1, 10, 256).astype(np.float32)
        out = rig.empty(256, np.float32)
        rig.run("ewise", out, rig.buf(a), rig.buf(b), 256, op)
        assert np.allclose(out.array, _BINOPS[op](a, b), rtol=1e-6)

    def test_ewise_scalar_and_reversed(self, rig):
        a = np.arange(1, 11, dtype=np.float32)
        out = rig.empty(10, np.float32)
        rig.run("ewise_scalar", out, rig.buf(a), 10, "rsub", 1.0)
        assert np.allclose(out.array, 1.0 - a)
        rig.run("ewise_scalar", out, rig.buf(a), 10, "rdiv", 100.0)
        assert np.allclose(out.array, 100.0 / a)

    def test_ewise_intdiv(self, rig):
        dates = np.array([19940101, 19951231, 19980715], dtype=np.int32)
        out = rig.empty(3, np.int32)
        rig.run("ewise_scalar", out, rig.buf(dates), 3, "intdiv", 10000)
        assert np.array_equal(out.array, [1994, 1995, 1998])

    def test_logical_ops_uint8(self, rig):
        a = np.array([0, 1, 0, 2], dtype=np.uint8)
        b = np.array([0, 0, 3, 1], dtype=np.uint8)
        out = rig.empty(4, np.uint8)
        rig.run("ewise", out, rig.buf(a), rig.buf(b), 4, "and")
        assert np.array_equal(out.array, [0, 0, 0, 1])
        rig.run("ewise", out, rig.buf(a), rig.buf(b), 4, "or")
        assert np.array_equal(out.array, [0, 1, 1, 1])


class TestCompareWhere:
    def test_compare_vv_vs(self, rig):
        a = np.array([1, 5, 3], dtype=np.int32)
        b = np.array([2, 5, 1], dtype=np.int32)
        out = rig.empty(3, np.uint8)
        rig.run("compare_vv", out, rig.buf(a), rig.buf(b), 3, "lt")
        assert np.array_equal(out.array, [1, 0, 0])
        rig.run("compare_vs", out, rig.buf(a), 3, "ge", 3)
        assert np.array_equal(out.array, [0, 1, 1])

    def test_where_variants(self, rig):
        cond = np.array([1, 0, 1, 0], dtype=np.uint8)
        a = np.array([10, 20, 30, 40], dtype=np.int32)
        b = np.array([-1, -2, -3, -4], dtype=np.int32)
        out = rig.empty(4, np.int32)
        rig.run("where_vv", out, rig.buf(cond), rig.buf(a), rig.buf(b), 4)
        assert np.array_equal(out.array, [10, -2, 30, -4])
        rig.run("where_vs", out, rig.buf(cond), rig.buf(a), 4, 0)
        assert np.array_equal(out.array, [10, 0, 30, 0])
        rig.run("where_ss", out, rig.buf(cond), 4, 1, 0)
        assert np.array_equal(out.array, [1, 0, 1, 0])


class TestFillIota:
    def test_fill(self, rig):
        out = rig.empty(16, np.uint32)
        rig.run("fill", out, 16, 0xFFFFFFFF)
        assert np.all(out.array == 0xFFFFFFFF)

    def test_iota(self, rig):
        out = rig.empty(10, np.uint32)
        rig.run("iota", out, 10, 5)
        assert np.array_equal(out.array, np.arange(5, 15, dtype=np.uint32))
