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
        from repro.ocelot.operators import radix_parts, sort_launches

        engine = _engine(kind, data_scale)
        device, profile = engine.device, engine.device.profile
        ctx = ExecContext(device, engine.program.defines,
                          profile.total_invocations, profile.work_group_size,
                          data_scale=data_scale)
        submit = device.host_submit_time()
        bits = engine.radix_bits
        itemsize = np.dtype(key_dtype).itemsize
        passes = num_passes(bits, 8 * itemsize)
        keys = np.zeros(1, key_dtype)       # work_fns read dtype + n only
        pay = np.zeros(1, np.uint32)

        def seconds(name, *args):
            work = lib[name].work_fn(ctx, *args)
            return device.kernel_time(work, data_scale) + submit

        n, checked = 2, 0
        while sort_launches(engine, n, itemsize)[0] == "local":
            # the ladder _radix_sort would run: histograms sized to n
            parts = radix_parts(n, bits, profile.total_invocations)
            hist = np.zeros(parts << bits, np.uint32)
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


# ---------------------------------------------------------------------------
# The ladder's width is sized to n (``operators.radix_parts``): at every
# width the rule gives, the work-item reference and the vectorised bodies
# agree, and the columns out are those of the device-wide width.
# ---------------------------------------------------------------------------

def _sized_n(case: str, radix: int, invocations: int) -> int:
    return {
        "one part": radix - 3,
        "below the global size": 5 * radix,
        "ragged": 37 * radix + 5,
        "full width - 1": invocations * radix - 1,
        "full width + 1": invocations * radix + 1,
    }[case]


def _ladder_pass(body, device, keys, n, parts, bits):
    """One first pass (``radix_reorder_first``) and one later pass
    (``radix_reorder``) at ``parts``: every array each kernel wrote."""
    from repro.cl.compiler import default_defines
    from repro.cl.kernel import ExecContext
    from repro.cl.workitem import run_reference
    from repro.kernels import KERNEL_LIBRARY as lib

    profile = device.profile
    defines = {**default_defines(device.device_type), "RADIX_BITS": bits}
    size = (profile.total_invocations, profile.work_group_size)
    ctx = ExecContext(device, defines, *size)

    def run(name, *args):
        if body == "ref":
            run_reference(lib[name], list(args), *size, defines=defines,
                          device=device)
        else:
            lib[name].vec_fn(ctx, *args)

    written = []
    pay = None
    for shift in (0, bits):
        hist = np.full(parts << bits, 7, np.uint32)
        offsets = np.full(parts << bits, 7, np.uint32)
        keys_out = np.zeros(n, keys.dtype)
        pay_out = np.zeros(n, np.uint32)
        run("radix_histogram", hist, keys, n, shift, parts)
        run("radix_offsets", offsets, hist, parts)
        if pay is None:
            run("radix_reorder_first", keys_out, pay_out, keys, offsets, n,
                shift, parts)
        else:
            run("radix_reorder", keys_out, pay_out, keys, pay, offsets, n,
                shift, parts)
        written += [hist, offsets, keys_out, pay_out]
        keys, pay = keys_out, pay_out
    return written


class TestSizedLadder:
    @pytest.mark.parametrize("case", ("one part", "below the global size",
                                      "ragged", "full width - 1",
                                      "full width + 1"))
    @pytest.mark.parametrize("kind", ("cpu", "gpu"))
    def test_reference_matches_vectorised(self, kind, case):
        from repro import cl
        from repro.ocelot.operators import radix_parts

        device = cl.get_device(kind)
        bits = 8 if kind == "cpu" else 4
        invocations = device.profile.total_invocations
        n = _sized_n(case, 1 << bits, invocations)
        parts = radix_parts(n, bits, invocations)
        assert parts == {"one part": 1, "below the global size": 5,
                         "ragged": 38}.get(case, invocations)
        keys = np.random.default_rng(n).integers(
            0, 2 ** 32, n, dtype=np.uint32)
        keys[: n // 3] = 0xFFFFFFF0                 # a skewed digit
        ref = _ladder_pass("ref", device, keys, n, parts, bits)
        vec = _ladder_pass("vec", device, keys, n, parts, bits)
        for got, want in zip(ref, vec):
            assert np.array_equal(got, want)
        # the columns out are those of the device-wide width
        wide = _ladder_pass("vec", device, keys, n, invocations, bits)
        for got, want in zip(vec[2:4] + vec[6:8], wide[2:4] + wide[6:8]):
            assert np.array_equal(got, want)
        order = np.argsort(keys & ((1 << 2 * bits) - 1), kind="stable")
        assert np.array_equal(vec[7], order)

    @pytest.mark.parametrize("n", (2, 15, 16, 17, 1343 * 16, 1344 * 16,
                                   1344 * 16 + 1, 10 ** 7))
    def test_the_rule(self, n):
        from repro.ocelot.operators import radix_parts

        parts = radix_parts(n, 4, 1344)
        assert parts == min(1344, -(-n // 16))
        # the histograms hold fewer counters than n plus one histogram
        assert 1 <= parts and 16 * (parts - 1) < n


def test_radix_sort_and_the_tuner_read_one_rule(monkeypatch):
    """``_radix_sort`` sizes its histograms, and ``estimate_sort_cost``
    prices them, by ``operators.radix_parts`` and nothing else."""
    import importlib
    import math

    from repro.ocelot import operators

    autotune = importlib.import_module("repro.ocelot.autotune")
    assert autotune.radix_parts is operators.radix_parts
    calls = []

    def rule(n, radix_bits, invocations):
        calls.append((n, radix_bits, invocations))
        return 3                    # a width no other formula gives

    monkeypatch.setattr(operators, "radix_parts", rule)
    monkeypatch.setattr(autotune, "radix_parts", rule)

    engine = _engine("gpu", 100.0)
    launched = []
    launch = engine.launch

    def spy(name, *args):
        launched.append((name, args[-1]))
        return launch(name, *args)

    monkeypatch.setattr(engine, "launch", spy)
    keys = np.random.default_rng(5).integers(0, 2 ** 32, 500, np.uint32)
    _keys, order, _names = _sort_through_host_code(engine, keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert calls == [(500, engine.radix_bits, engine.invocations)]
    assert {parts for name, parts in launched
            if name.startswith("radix_")} == {3}

    chars = autotune.DeviceCharacteristics(
        device_name="d", stream_gbs=10.0, gather_gbs=5.0,
        launch_overhead_s=1e-5, atomic_contended_ns=1.0,
        atomic_uncontended_ns=0.5, partitions=1344, local_mem_bytes=49152,
        work_group_size=192)
    calls.clear()
    cost = autotune.estimate_sort_cost(chars, 4, column_bytes=4000.0)
    assert calls == [(1000, 4, 1344)]
    monkeypatch.undo()
    assert cost < autotune.estimate_sort_cost(chars, 4, column_bytes=4000.0)
    assert math.isfinite(cost)


# ---------------------------------------------------------------------------
# A pass over a digit every key shares copies.  The bodies below are
# verbatim copies of the histogram and reorder before that change, which
# counted and sorted every pass; the current bodies must fill ``hist`` and
# the reordered columns identically, on a constant digit and off it.
# ---------------------------------------------------------------------------

def counting_histogram_vec(ctx, hist, keys, n, shift, parts):
    from repro.kernels.primitives import chunk_bounds
    from repro.kernels.radix_sort import _digits, _radix_bits

    n, shift, parts = int(n), int(shift), int(parts)
    bits = _radix_bits(ctx)
    radix = 1 << bits
    # Combined (thread, digit) index -> one bincount for all histograms:
    # every row starts at its thread's first bin and adds its digit.
    first_bin = np.arange(0, parts * radix, radix)
    combined = np.repeat(first_bin, np.diff(chunk_bounds(n, parts)))
    combined += _digits(keys[:n], shift, bits)
    counts = np.bincount(combined, minlength=parts * radix)
    hist.reshape(parts, radix)[:, :] = counts.reshape(parts, radix)


def sorting_reorder_vec(ctx, keys_out, payload_out, keys, payload, offsets,
                        n, shift, parts):
    """``payload=None`` is the first pass: the payload is the position."""
    from repro.kernels.radix_sort import _digits, _radix_bits

    n, shift = int(n), int(shift)
    # Stable order by digit == concatenation of the per-thread stable
    # scatters, because chunks are contiguous (module docstring).
    order = np.argsort(
        _digits(keys[:n], shift, _radix_bits(ctx)), kind="stable"
    )
    keys_out[:n] = keys[:n][order]
    payload_out[:n] = order if payload is None else payload[:n][order]


def assert_pass_is_counted_and_sorted(keys, shift, bits, parts, constant):
    """Histogram, first and later reorder of one pass match the copies;
    every body saw a constant digit iff ``constant``."""
    from repro.kernels import KERNEL_LIBRARY as lib
    from repro.kernels import radix_sort

    n = keys.size
    ctx = radix_ctx(bits)
    size = max(n, 1)
    payload = np.arange(n, dtype=np.uint32)[::-1].copy()
    seen = []
    constant_digit = radix_sort._constant_digit
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radix_sort, "_constant_digit", lambda digits: seen.append(
            constant_digit(digits)) or seen[-1])
        hist = np.full(parts << bits, 7, np.uint32)
        old_hist = hist.copy()
        lib["radix_histogram"].vec_fn(ctx, hist, keys, n, shift, parts)
        counting_histogram_vec(ctx, old_hist, keys, n, shift, parts)
        assert np.array_equal(hist, old_hist)
        offsets = np.zeros_like(hist)
        lib["radix_offsets"].vec_fn(ctx, offsets, hist, parts)
        for first in (True, False):
            out = [np.full(size, 5, keys.dtype), np.full(size, 5, np.uint32)]
            old_out = [a.copy() for a in out]
            if first:
                lib["radix_reorder_first"].vec_fn(ctx, *out, keys, offsets,
                                                  n, shift, parts)
            else:
                lib["radix_reorder"].vec_fn(ctx, *out, keys, payload, offsets,
                                            n, shift, parts)
            sorting_reorder_vec(ctx, *old_out, keys, None if first else payload,
                                offsets, n, shift, parts)
            assert np.array_equal(out[0], old_out[0])
            assert np.array_equal(out[1], old_out[1])
    assert [digit is not None for digit in seen] == [constant] * 3


class TestConstantDigitPass:
    @pytest.mark.parametrize("bits", (4, 8))
    @pytest.mark.parametrize("key_dtype", (np.uint32, np.uint64))
    def test_at_the_first_and_a_later_shift(self, bits, key_dtype):
        """Keys below 2**12 share every digit from bit 12 up; keys that
        are multiples of 2**bits share the first one."""
        rng = np.random.default_rng(bits)
        narrow = rng.integers(0, 2**12, 3000).astype(key_dtype)
        top = 8 * np.dtype(key_dtype).itemsize - bits
        for shift in (0, bits, 16, top):
            assert_pass_is_counted_and_sorted(narrow, shift, bits, 64,
                                              shift >= 12)
        spaced = narrow << key_dtype(bits)
        assert_pass_is_counted_and_sorted(spaced, 0, bits, 64, True)
        assert_pass_is_counted_and_sorted(spaced, bits, bits, 64, False)

    @pytest.mark.parametrize("bits", (4, 8))
    @pytest.mark.parametrize("n", (0, 1, 2, 5))
    def test_more_parts_than_keys(self, bits, n):
        keys = np.full(n, 0xABCDEF12, np.uint32)
        for shift in (0, 28):
            assert_pass_is_counted_and_sorted(keys, shift, bits, 7, n > 0)
        if n > 1:
            keys[-1] += 1
            assert_pass_is_counted_and_sorted(keys, 0, bits, 7, False)

    def test_only_the_first_and_last_keys_share_it(self):
        keys = np.full(1000, 3, np.uint32)
        keys[500] = 4
        assert_pass_is_counted_and_sorted(keys, 0, 8, 256, False)

    @given(st.integers(0, 2000), st.sampled_from((4, 8)),
           st.integers(1, 300), st.integers(0, 32), st.integers(0, 31),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_property(self, n, bits, parts, width, digit_index, seed):
        """Keys of ``width`` random bits over a random base: the digits
        above the width are constant, those below mostly not."""
        rng = np.random.default_rng(seed)
        base = int(rng.integers(0, 2**32))
        keys = (base ^ rng.integers(0, 2**width, n)).astype(np.uint32)
        shift = (digit_index * bits) % 32
        digits = (keys >> np.uint32(shift)) & np.uint32((1 << bits) - 1)
        assert_pass_is_counted_and_sorted(
            keys, shift, bits, parts,
            n > 0 and bool((digits == digits[0]).all()))

    def test_a_warm_pass_counts_and_sorts_as_before(self, warm_het_launches):
        """Every radix launch of a warm HET pass (SF 0.1, both digit
        widths) replayed through the copies; a constant digit made some
        histograms and reorders copy, not all."""
        from repro.kernels import KERNEL_LIBRARY as lib
        from repro.kernels.radix_sort import _first_pass

        copies = {"radix_histogram": counting_histogram_vec,
                  "radix_reorder": sorting_reorder_vec,
                  "radix_reorder_first": _first_pass(sorting_reorder_vec)}
        for name, body in copies.items():
            for launch in warm_het_launches[name]:
                launch.assert_replays_as(body, lib[name].work_fn)
        for name in ("radix_histogram", "radix_reorder"):
            constant = [launch.fast for launch in warm_het_launches[name]]
            assert any(constant) and not all(constant)
