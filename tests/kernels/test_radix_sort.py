"""Radix sort: key encoding bijection + full multi-pass pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.radix_sort import (
    encode_keys,
    key_dtype_for,
    key_kind_for,
    num_passes,
)


class TestKeyEncoding:
    @given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=2, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_int32_order_preserving(self, values):
        col = np.array(values, dtype=np.int32)
        keys = encode_keys(col)
        order_keys = np.argsort(keys, kind="stable")
        order_vals = np.argsort(col, kind="stable")
        assert np.array_equal(order_keys, order_vals)

    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=2, max_size=200,
    ))
    @settings(max_examples=40, deadline=None)
    def test_float32_order_preserving(self, values):
        col = np.array(values, dtype=np.float32)
        keys = encode_keys(col)
        assert np.array_equal(
            np.argsort(keys, kind="stable"), np.argsort(col, kind="stable")
        )

    @given(st.lists(
        st.floats(-1e300, 1e300, allow_nan=False), min_size=2, max_size=100,
    ))
    @settings(max_examples=30, deadline=None)
    def test_float64_order_preserving(self, values):
        col = np.array(values, dtype=np.float64)
        keys = encode_keys(col)
        assert keys.dtype == np.uint64
        assert np.array_equal(
            np.argsort(keys, kind="stable"), np.argsort(col, kind="stable")
        )

    def test_int64_order_preserving(self):
        col = np.array([-(2**62), -1, 0, 1, 2**62], dtype=np.int64)
        keys = encode_keys(col)
        assert np.all(np.diff(keys.astype(object)) > 0)

    def test_kind_and_dtype_mapping(self):
        assert key_kind_for(np.int32) == 1
        assert key_kind_for(np.float32) == 2
        assert key_kind_for(np.uint32) == 0
        assert key_dtype_for(np.float64) == np.uint64
        assert key_dtype_for(np.int32) == np.uint32
        with pytest.raises(TypeError):
            key_kind_for(np.int16)

    def test_num_passes(self):
        assert num_passes(8) == 4      # CPU: radix 8 (paper §5.2.7)
        assert num_passes(4) == 8      # GPU: radix 4
        assert num_passes(8, 64) == 8


def _ladder(rig, ukeys, n, iota_first=False):
    """The full multi-pass pipeline over unsigned keys, as the host
    drives it: ``(sorted keys, order)`` arrays.  ``iota_first`` is the
    sequence it drove before the first pass wrote the positions itself
    (an ``iota`` payload through ``radix_reorder`` in every pass), kept
    as the reference ``radix_reorder_first`` is pinned to."""
    bits = 8 if rig.ctx.device.is_cpu else 4
    radix = 1 << bits
    parts = rig.ctx.device.profile.total_invocations
    # garbage, not zeros: the first pass must not read its payload
    payload = rig.buf(np.full(max(n, 1), 0x7FFFFFFF, np.uint32))
    if iota_first:
        rig.run("iota", payload, n, 0)
    keys_b = rig.empty(n, ukeys.dtype)
    pay_b = rig.empty(n, np.uint32)
    hist = rig.empty(parts * radix, np.uint32)
    offsets = rig.empty(parts * radix, np.uint32)
    keys_a, pay_a = ukeys, payload
    for p in range(num_passes(bits, 8 * ukeys.dtype.itemsize)):
        rig.run("radix_histogram", hist, keys_a, n, p * bits, parts)
        rig.run("radix_offsets", offsets, hist, parts)
        if p or iota_first:
            rig.run("radix_reorder", keys_b, pay_b, keys_a, pay_a, offsets,
                    n, p * bits, parts)
        else:
            rig.run("radix_reorder_first", keys_b, pay_b, keys_a, offsets,
                    n, p * bits, parts)
        keys_a, keys_b = keys_b, keys_a
        pay_a, pay_b = pay_b, pay_a
    return keys_a.array[:n].copy(), pay_a.array[:n].copy()


def _device_sort(rig, col):
    """Key encoding + the ladder, through the command queue."""
    n = col.size
    ukeys = rig.empty(n, key_dtype_for(col.dtype))
    rig.run("key_encode", ukeys, rig.buf(col), n, key_kind_for(col.dtype))
    return _ladder(rig, ukeys, n)[1]


class TestFullSort:
    @pytest.mark.parametrize("dtype", [np.int32, np.float32, np.uint32])
    def test_matches_stable_argsort(self, rig, dtype):
        rng = np.random.default_rng(9)
        if np.dtype(dtype).kind == "f":
            col = rng.normal(0, 1e6, 5000).astype(dtype)
        else:
            col = rng.integers(-2**31, 2**31 - 1, 5000).astype(dtype)
        order = _device_sort(rig, col)
        assert np.array_equal(order, np.argsort(col, kind="stable"))

    def test_duplicates_stable(self, rig):
        col = np.array([3, 1, 3, 1, 3, 2], dtype=np.int32)
        order = _device_sort(rig, col)
        assert np.array_equal(order, [1, 3, 5, 0, 2, 4])

    def test_negative_values(self, rig):
        col = np.array([5, -3, 0, -2**31, 2**31 - 1, -1], dtype=np.int32)
        order = _device_sort(rig, col)
        assert np.array_equal(col[order], np.sort(col))

    def test_sixty_four_bit_keys(self, rig):
        rng = np.random.default_rng(10)
        col = rng.normal(0, 1e9, 2000).astype(np.float64)
        order = _device_sort(rig, col)
        assert np.array_equal(order, np.argsort(col, kind="stable"))


# ---------------------------------------------------------------------------
# Equivalence with the bodies before the per-sort constants stopped being
# recomputed per pass.  Verbatim copies of the previous
# ``src/repro/kernels/radix_sort.py`` (``searchsorted`` row map, int64
# digits, ``concatenate`` + ``astype`` prefix sum); the current kernels must
# fill ``hist``, ``offsets`` and the reordered columns identically.
# ---------------------------------------------------------------------------

def old_chunk_bounds(n, parts):
    return np.linspace(0, n, parts + 1, dtype=np.int64)


def old_digits(keys, shift, bits):
    mask = (1 << bits) - 1
    shifted = np.right_shift(keys, keys.dtype.type(shift))
    return np.bitwise_and(shifted, keys.dtype.type(mask)).astype(
        np.int64, copy=False
    )


def old_histogram_vec(bits, hist, keys, n, shift, parts):
    radix = 1 << bits
    digits = old_digits(keys[:n], shift, bits)
    bounds = old_chunk_bounds(n, parts)
    rows = np.searchsorted(bounds[1:], np.arange(n), side="right")
    combined = rows * radix + digits
    counts = np.bincount(combined, minlength=parts * radix)
    hist.reshape(parts, radix)[:, :] = counts.reshape(parts, radix)


def old_offsets_vec(offsets, hist, parts):
    radix = hist.size // parts
    transposed = hist.reshape(parts, radix).T.ravel()
    excl = np.concatenate(([0], np.cumsum(transposed)[:-1]))
    offsets.reshape(radix, parts)[:, :] = excl.reshape(radix, parts).astype(
        offsets.dtype
    )


def old_reorder_vec(bits, keys_out, payload_out, keys, payload, n, shift):
    digits = old_digits(keys[:n], shift, bits).astype(np.uint16)
    order = np.argsort(digits, kind="stable")
    keys_out[:n] = keys[:n][order]
    payload_out[:n] = payload[:n][order]


def radix_ctx(bits):
    from repro import cl
    from repro.cl.kernel import ExecContext

    return ExecContext(cl.get_device("cpu"), {"RADIX_BITS": bits}, 64, 16)


class TestEquivalenceWithOldBodies:
    @pytest.mark.parametrize("parts", (1, 7, 256, 1344))
    @pytest.mark.parametrize("n", (0, 1, 7, 65_536, 65_537, 200_001))
    def test_chunk_bounds_memoised_read_only_same_values(self, n, parts):
        from repro.kernels.primitives import chunk_bounds

        bounds = chunk_bounds(n, parts)
        assert bounds is chunk_bounds(n, parts)
        assert bounds.dtype == np.int64
        assert np.array_equal(bounds, old_chunk_bounds(n, parts))
        with pytest.raises(ValueError):
            bounds[0] = 1

    @pytest.mark.parametrize("bits,parts", ((8, 256), (4, 1344), (8, 1), (4, 7)))
    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("n", (0, 1, 7, 65_536, 65_537, 200_001))
    def test_one_pass_matches(self, n, key_dtype, bits, parts):
        from repro.kernels import KERNEL_LIBRARY as lib

        rng = np.random.default_rng(n + bits)
        top = np.iinfo(key_dtype).max
        keys = rng.integers(0, top, n, dtype=key_dtype, endpoint=True)
        keys[: n // 3] = top - 1                   # a skewed digit
        payload = np.arange(n, dtype=np.uint32)[::-1].copy()
        radix = 1 << bits
        ctx = radix_ctx(bits)
        size = max(n, 1)
        for shift in (0, bits, 8 * np.dtype(key_dtype).itemsize - bits):
            hist = np.full(parts * radix, 7, np.uint32)
            old_hist = hist.copy()
            lib["radix_histogram"].vec_fn(ctx, hist, keys, n, shift, parts)
            old_histogram_vec(bits, old_hist, keys, n, shift, parts)
            assert np.array_equal(hist, old_hist)

            offsets = np.full(parts * radix, 7, np.uint32)
            old_offsets = offsets.copy()
            lib["radix_offsets"].vec_fn(ctx, offsets, hist, parts)
            old_offsets_vec(old_offsets, old_hist, parts)
            assert np.array_equal(offsets, old_offsets)

            out = [np.zeros(size, key_dtype), np.zeros(size, np.uint32)]
            old_out = [a.copy() for a in out]
            lib["radix_reorder"].vec_fn(
                ctx, *out, keys, payload, offsets, n, shift, parts
            )
            old_reorder_vec(bits, *old_out, keys, payload, n, shift)
            assert np.array_equal(out[0], old_out[0])
            assert np.array_equal(out[1], old_out[1])


class TestFirstPassWritesThePositions:
    """``radix_reorder_first`` is pinned to what it replaces: an
    ``iota`` launch and ``radix_reorder`` reading it."""

    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("n", (0, 1, 7, 255, 256, 257, 65_537))
    def test_same_ladder_one_launch_fewer(self, rig, n, key_dtype):
        rng = np.random.default_rng(n)
        top = np.iinfo(key_dtype).max
        keys = rng.integers(0, top, n, dtype=key_dtype, endpoint=True)
        keys[: n // 3] = top                        # a skewed digit
        launched = rig.queue.stats.kernels_launched
        now = _ladder(rig, rig.buf(keys.copy()), n)
        launched_now = rig.queue.stats.kernels_launched - launched
        old = _ladder(rig, rig.buf(keys.copy()), n, iota_first=True)
        launched_old = (rig.queue.stats.kernels_launched - launched
                        - launched_now)
        assert np.array_equal(now[0], old[0])
        assert np.array_equal(now[1], old[1])
        assert np.array_equal(now[1], np.argsort(keys, kind="stable"))
        assert launched_now == launched_old - 1

    @pytest.mark.parametrize("bits,parts", ((8, 256), (4, 1344), (4, 7)))
    @pytest.mark.parametrize("n", (0, 1, 7, 65_537))
    def test_one_pass_and_its_work(self, n, bits, parts):
        """Same columns out; the same work minus the payload it no
        longer reads, so never more simulated time."""
        from repro.kernels import KERNEL_LIBRARY as lib

        keys = np.random.default_rng(n).integers(
            0, 2**32, n, dtype=np.uint32)
        iota = np.arange(n, dtype=np.uint32)
        ctx = radix_ctx(bits)
        hist = np.zeros(parts * (1 << bits), np.uint32)
        offsets = np.zeros_like(hist)
        lib["radix_histogram"].vec_fn(ctx, hist, keys, n, bits, parts)
        lib["radix_offsets"].vec_fn(ctx, offsets, hist, parts)
        out = [np.zeros(max(n, 1), np.uint32) for _ in range(2)]
        old_out = [np.zeros(max(n, 1), np.uint32) for _ in range(2)]
        first = (ctx, *out, keys, offsets, n, bits, parts)
        old = (ctx, *old_out, keys, iota, offsets, n, bits, parts)
        lib["radix_reorder_first"].vec_fn(*first)
        lib["radix_reorder"].vec_fn(*old)
        assert np.array_equal(out[0], old_out[0])
        assert np.array_equal(out[1], old_out[1])
        work = lib["radix_reorder_first"].work_fn(*first)
        old_work = lib["radix_reorder"].work_fn(*old)
        assert work.bytes_read == old_work.bytes_read - 4 * n
        assert (work.bytes_written, work.random_bytes, work.ops) == (
            old_work.bytes_written, old_work.random_bytes, old_work.ops)


# ---------------------------------------------------------------------------
# ``local_sort`` is pinned to what it replaces: one launch must return the
# (sorted keys, order) of the radix ladder bit for bit — duplicates are the
# point, stability has to match — on the CPU (8-bit) and GPU (4-bit) programs.
# ---------------------------------------------------------------------------

LOCAL_SIZES = (2, 3, 7, 255, 256, 257, 4096)
KEY_SHAPES = ("constant", "distinct", "twenty", "zipf", "sorted", "reversed",
              "extremes")


def make_sort_keys(shape: str, n: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(n + len(shape))
    top = int(np.iinfo(dtype).max)
    if shape == "constant":
        return np.full(n, 0xFFFFFFFE, dtype)
    if shape == "distinct":
        return (rng.permutation(n).astype(dtype) * dtype(top // n))
    if shape == "twenty":
        return rng.integers(0, 20, n).astype(dtype) * dtype(top // 20)
    if shape == "zipf":
        return np.minimum(rng.zipf(1.3, n), 0xFFFFFFFE).astype(dtype)
    if shape == "sorted":
        return np.sort(rng.integers(0, top, n, dtype=dtype, endpoint=True))
    if shape == "reversed":
        return np.sort(
            rng.integers(0, top, n, dtype=dtype, endpoint=True))[::-1].copy()
    return rng.choice(
        np.array([0, 0xFFFFFFFE, 0xFFFFFFFF, top], dtype=dtype), n)


class TestLocalSortIsTheRadixLadder:
    @pytest.mark.parametrize("shape", KEY_SHAPES)
    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("n", LOCAL_SIZES)
    def test_same_keys_same_order(self, rig, n, key_dtype, shape):
        keys = make_sort_keys(shape, n, key_dtype)
        sorted_keys = rig.empty(n, key_dtype)
        order = rig.empty(n, np.uint32)
        before = rig.queue.stats.kernels_launched
        rig.run("local_sort", sorted_keys, order, rig.buf(keys), n)
        assert rig.queue.stats.kernels_launched == before + 1
        # (the ladder ping-pongs through the buffer it is handed)
        ladder_keys, ladder_order = _ladder(rig, rig.buf(keys.copy()), n)
        assert np.array_equal(order.array[:n], ladder_order)
        assert np.array_equal(sorted_keys.array[:n], ladder_keys)
        assert np.array_equal(ladder_order, np.argsort(keys, kind="stable"))


def _engine(kind: str, data_scale: float):
    from repro.monetdb import Catalog
    from repro.ocelot.engine import OcelotEngine

    return OcelotEngine(Catalog(), kind, data_scale=data_scale)


def _sort_through_host_code(engine, keys):
    """``_radix_sort`` on a fresh scratch buffer: ``(sorted keys, order,
    kernel names launched)``."""
    from repro.cl.event import CommandType
    from repro.ocelot.operators import _radix_sort

    n = keys.size
    with engine.memory.operator_scope():
        buf = engine.temp(max(n, 1), keys.dtype, tag="ukeys")
        buf.array[:n] = keys
        engine.queue.stats.events.clear()
        sorted_keys, order = _radix_sort(engine, buf, n)
        launched = [e.label for e in engine.queue.stats.events
                    if e.command_type is CommandType.KERNEL]
        return (sorted_keys.array[:n].copy(), order.array[:n].copy(),
                launched)


class TestSortExits:
    """The host picks the exit from n, key width, ``data_scale`` and the
    device's local memory size — nothing else."""

    @pytest.mark.parametrize("kind", ("cpu", "gpu"))
    @pytest.mark.parametrize("n", (0, 1))
    def test_nothing_to_sort_launches_nothing(self, kind, n):
        engine = _engine(kind, 100.0)
        keys = np.full(n, 42, np.uint64)
        sorted_keys, order, launched = _sort_through_host_code(engine, keys)
        assert launched == []
        assert np.array_equal(sorted_keys, keys)
        assert np.array_equal(order, np.arange(n))

    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("data_scale", (1.0, 100.0))
    @pytest.mark.parametrize("kind", ("cpu", "gpu"))
    def test_boundary_is_the_local_memory_size(self, kind, data_scale,
                                               key_dtype):
        from repro.ocelot.operators import sort_launches

        engine = _engine(kind, data_scale)
        local_mem = engine.device.profile.local_mem_bytes
        pair_bytes = np.dtype(key_dtype).itemsize + 4
        fits = int(local_mem // (pair_bytes * data_scale))
        if data_scale == 1.0 and (kind, pair_bytes) != ("cpu", 12):
            # 48 KiB / 8, 48 KiB / 12 and 256 KiB / 8 are whole numbers:
            # nominal bytes == local_mem_bytes still takes the local exit
            assert fits * pair_bytes * data_scale == local_mem
        passes = num_passes(engine.radix_bits, 8 * (pair_bytes - 4))
        assert sort_launches(engine, fits, pair_bytes - 4) == ("local", 1)
        assert sort_launches(engine, fits + 1, pair_bytes - 4) == (
            "radix", 3 * passes)

        rng = np.random.default_rng(fits)
        keys = rng.integers(0, 50, fits + 1).astype(key_dtype)
        expected = np.argsort(keys[:fits], kind="stable")
        sorted_keys, order, launched = _sort_through_host_code(
            engine, keys[:fits])
        assert launched == ["local_sort"]
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_keys, keys[:fits][expected])
        sorted_keys, order, launched = _sort_through_host_code(engine, keys)
        assert launched == [
            "radix_histogram", "radix_offsets", "radix_reorder_first"
        ] + (passes - 1) * [
            "radix_histogram", "radix_offsets", "radix_reorder"]
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    def test_exit_ignores_everything_but_its_four_inputs(self):
        """Same n, width, scale and local memory => same exit, whatever
        the radix width, the device type or its other parameters."""
        from dataclasses import replace

        from repro import cl
        from repro.monetdb import Catalog
        from repro.ocelot.engine import OcelotEngine
        from repro.ocelot.operators import sort_launches

        gpu = cl.get_device("gpu").profile
        as_cpu_sized = replace(
            gpu, local_mem_bytes=cl.get_device("cpu").profile.local_mem_bytes)
        odd = OcelotEngine(Catalog(), cl.Device(as_cpu_sized), 100.0)
        cpu = _engine("cpu", 100.0)
        for n in (0, 1, 2, 327, 328, 5000):
            for itemsize in (4, 8):
                assert (sort_launches(odd, n, itemsize)[0]
                        == sort_launches(cpu, n, itemsize)[0])


class TestLocalSortNeverCostsMoreThanTheLadder:
    """Permanent where the regenerated golden is not: for every n that
    takes the local exit, one ``local_sort`` (kernel time + one submit)
    is at most the ladder's launches (kernel times + submits)."""

    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    @pytest.mark.parametrize("data_scale", (1.0, 100.0))
    @pytest.mark.parametrize("kind", ("cpu", "gpu"))
    def test_every_fitting_n(self, kind, data_scale, key_dtype):
        from repro import cl
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY as lib
        from repro.ocelot.operators import sort_launches

        engine = _engine(kind, data_scale)
        device, profile = engine.device, engine.device.profile
        ctx = ExecContext(device, engine.program.defines,
                          profile.total_invocations, profile.work_group_size,
                          data_scale=data_scale)
        submit = device.host_submit_time()
        parts, radix = profile.total_invocations, 1 << engine.radix_bits
        itemsize = np.dtype(key_dtype).itemsize
        passes = num_passes(engine.radix_bits, 8 * itemsize)
        keys = np.zeros(1, key_dtype)       # work_fns read dtype + n only
        pay = np.zeros(1, np.uint32)
        hist = np.zeros(parts * radix, np.uint32)

        def seconds(name, *args):
            work = lib[name].work_fn(ctx, *args)
            return device.kernel_time(work, data_scale) + submit

        n, checked = 2, 0
        while sort_launches(engine, n, itemsize)[0] == "local":
            local = seconds("local_sort", keys, pay, keys, n)
            ladder = passes * (
                seconds("radix_histogram", hist, keys, n, 0, parts)
                + seconds("radix_offsets", hist, hist, parts)
            ) + seconds(
                "radix_reorder_first", keys, pay, keys, hist, n, 0, parts
            ) + (passes - 1) * seconds(
                "radix_reorder", keys, pay, keys, pay, hist, n, 0, parts)
            assert local <= ladder, (n, local, ladder)
            checked += 1
            n += 1
        assert checked == int(
            profile.local_mem_bytes // ((itemsize + 4) * data_scale)) - 1
