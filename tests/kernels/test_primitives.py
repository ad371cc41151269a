"""Parallel primitives: scan, gather, reduce, element-wise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cl


#: numpy's own ops, the reference the kernels' ``op`` argument is held to
NUMPY_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
             "div": np.divide, "rsub": lambda a, b: b - a,
             "rdiv": lambda a, b: b / a}


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


class TestGather:
    def test_gather(self, rig):
        src = np.arange(100, dtype=np.float32) * 1.5
        idx = np.array([5, 0, 99, 50, 5], dtype=np.uint32)
        out = rig.empty(5, np.float32)
        rig.run("gather", out, rig.buf(src), rig.buf(idx), 5)
        assert np.array_equal(out.array, src[idx])


# ---------------------------------------------------------------------------
# The decoding gathers are pinned to the launch sequences they replace,
# kept verbatim from the previous ``_project_encoded`` / ``op_join``
# (``engine.launch`` -> ``rig.run``): same columns out, never more work.
# ---------------------------------------------------------------------------

DECODE_SIZES = (0, 1, 7, 255, 256, 257, 65_537)


def work_of(rig, kernel, *args):
    from repro.cl.kernel import ExecContext
    from repro.kernels import KERNEL_LIBRARY as lib

    arrays = [getattr(a, "array", a) for a in args]
    return lib[kernel].work_fn(ExecContext(rig.ctx.device, {}, 64, 16),
                               *arrays)


def no_more_work(new, old):
    return all(getattr(new, field) <= getattr(old, field) for field in (
        "bytes_read", "bytes_written", "random_bytes", "ops", "atomic_ops"))


class TestDecodingGathers:
    @pytest.mark.parametrize("code_dtype, col_dtype, frame", (
        (np.uint8, np.int32, 70_000),          # frame beyond the code
        (np.uint8, np.int32, 2**31 - 256),     # sum at the column's top
        (np.uint32, np.int32, -(2**31)),       # uint16 payloads arrive so
        (np.uint32, np.uint32, 5),
        (np.int64, np.int64, -(2**62)),
    ))
    @pytest.mark.parametrize("n", DECODE_SIZES)
    def test_gather_add_is_gather_fill_ewise(self, rig, n, code_dtype,
                                             col_dtype, frame):
        rng = np.random.default_rng(n)
        rows = max(n, 1) + 3
        top = min(np.iinfo(code_dtype).max,
                  np.iinfo(col_dtype).max - frame)
        codes = rng.integers(0, top, rows, endpoint=True).astype(code_dtype)
        codes[:2] = top                         # the dtype's maximum
        codes_buf = rig.buf(codes)
        oid_buf = rig.buf(rng.integers(0, rows, max(n, 1)).astype(np.uint32))

        got = rig.buf(np.full(max(n, 1), 77, col_dtype))
        rig.run("gather_add", got, codes_buf, oid_buf, n, frame)

        gathered = rig.empty(max(n, 1), code_dtype, tag="proj_codes")
        rig.run("gather", gathered, codes_buf, oid_buf, n)
        out = rig.buf(np.full(max(n, 1), 77, col_dtype))
        frame_buf = rig.empty(max(n, 1), col_dtype, tag="proj_frame")
        rig.run("fill", frame_buf, n, frame)
        rig.run("ewise", out, gathered, frame_buf, n, "add")

        assert np.array_equal(got.array, out.array)
        expected = [int(codes[i]) + frame for i in oid_buf.array[:n]]
        assert [int(v) for v in got.array[:n]] == expected
        old = (work_of(rig, "gather", gathered, codes_buf, oid_buf, n)
               + work_of(rig, "fill", frame_buf, n, frame)
               + work_of(rig, "ewise", out, gathered, frame_buf, n, "add"))
        assert no_more_work(
            work_of(rig, "gather_add", got, codes_buf, oid_buf, n, frame),
            old)

    @pytest.mark.parametrize("mid_dtype, src_dtype", (
        (np.uint8, np.float32),     # dict decode: codes, value table
        (np.uint32, np.int32),
        (np.uint32, np.uint32),     # join hit: run ids, build oids
    ))
    @pytest.mark.parametrize("n", DECODE_SIZES)
    def test_gather2_is_two_gathers(self, rig, n, mid_dtype, src_dtype):
        rng = np.random.default_rng(n + 1)
        rows = max(n, 1) + 3
        table = min(256, np.iinfo(mid_dtype).max + 1)
        src = rng.integers(0, 10**6, table).astype(src_dtype)
        mid = rng.integers(0, table, rows).astype(mid_dtype)
        mid[:2] = table - 1                     # the last entry
        # rows the index never names hold a value that must not be
        # dereferenced (a probe miss's EMPTY)
        idx = rng.integers(0, rows - 1, max(n, 1)).astype(np.uint32)
        mid[rows - 1] = np.iinfo(mid_dtype).max
        src_buf, mid_buf, idx_buf = rig.buf(src), rig.buf(mid), rig.buf(idx)

        got = rig.buf(np.full(max(n, 1), 77, src_dtype))
        rig.run("gather2", got, src_buf, mid_buf, idx_buf, n)

        hit = rig.empty(max(n, 1), mid_dtype, tag="join_rid_hit")
        rig.run("gather", hit, mid_buf, idx_buf, n)
        out = rig.buf(np.full(max(n, 1), 77, src_dtype))
        rig.run("gather", out, src_buf, hit, n)

        assert np.array_equal(got.array, out.array)
        assert np.array_equal(got.array[:n], src[mid[idx[:n]]])
        old = (work_of(rig, "gather", hit, mid_buf, idx_buf, n)
               + work_of(rig, "gather", out, src_buf, hit, n))
        assert no_more_work(
            work_of(rig, "gather2", got, src_buf, mid_buf, idx_buf, n), old)


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
        assert np.allclose(out.array, NUMPY_OPS[op](a, b), rtol=1e-6)

    def test_ewise_scalar_and_reversed(self, rig):
        a = np.arange(1, 11, dtype=np.float32)
        out = rig.empty(10, np.float32)
        rig.run("ewise_scalar", out, rig.buf(a), 10, "rsub", 1.0)
        assert np.allclose(out.array, 1.0 - a)
        rig.run("ewise_scalar", out, rig.buf(a), 10, "rdiv", 100.0)
        assert np.allclose(out.array, 100.0 / a)

    @pytest.mark.parametrize("op, value", (
        ("mul", 0.5), ("add", 2.5), ("sub", 0.25), ("rsub", 1.5),
        ("mul", 100_000), ("rdiv", 1.0)))
    def test_ewise_scalar_constant_has_the_result_type(self, rig, op, value):
        """An int column and a constant its type cannot hold: the
        constant is cast to the *result's* type, as the reference does."""
        a = np.arange(-5, 995, dtype=np.int32)
        a[a == 0] = 7
        wide = np.float64 if isinstance(value, float) else np.int64
        out = rig.empty(1000, wide)
        rig.run("ewise_scalar", out, rig.buf(a), 1000, op, value)
        expected = NUMPY_OPS[op](a.astype(wide), wide(value))
        assert out.array.dtype == wide
        assert np.array_equal(out.array, expected)

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
    def test_comparisons_through_ewise(self, rig):
        """A comparison is an ``ewise`` / ``ewise_scalar`` launch into a
        uint8 result, one byte written per row."""
        a = np.array([1, 5, 3], dtype=np.int32)
        b = np.array([2, 5, 1], dtype=np.int32)
        for kernel, args, expected in (
                ("ewise", (rig.buf(a), rig.buf(b), 3, "lt"), [1, 0, 0]),
                ("ewise_scalar", (rig.buf(a), 3, "ge", 3), [0, 1, 1])):
            out = rig.empty(3, np.uint8)
            rig.run(kernel, out, *args)
            assert out.array.dtype == np.uint8
            assert np.array_equal(out.array, expected)
            definition = rig.program.kernel(kernel).definition
            values = [arg.array if isinstance(arg, cl.Buffer) else arg
                      for arg in (out, *args)]
            assert definition.work_fn(None, *values).bytes_written == 3

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
