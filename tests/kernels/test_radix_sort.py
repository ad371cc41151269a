"""Radix sort: key encoding bijection + full multi-pass pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.radix_sort import (
    encode_keys,
    key_bits_for,
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
        assert key_bits_for(np.int32) == 32
        assert key_bits_for(np.float64) == 64
        with pytest.raises(TypeError):
            key_kind_for(np.int16)

    def test_num_passes(self):
        assert num_passes(8) == 4      # CPU: radix 8 (paper §5.2.7)
        assert num_passes(4) == 8      # GPU: radix 4
        assert num_passes(8, 64) == 8


def _device_sort(rig, col):
    """Drive the full multi-pass pipeline through the command queue."""
    n = col.size
    bits = 8 if rig.ctx.device.is_cpu else 4
    radix = 1 << bits
    parts = rig.ctx.device.profile.total_invocations
    ukeys = rig.empty(n, key_dtype_for(col.dtype))
    rig.run("key_encode", ukeys, rig.buf(col), n, key_kind_for(col.dtype))
    payload = rig.empty(n, np.uint32)
    rig.run("iota", payload, n, 0)
    keys_b = rig.empty(n, ukeys.dtype)
    pay_b = rig.empty(n, np.uint32)
    hist = rig.empty(parts * radix, np.uint32)
    offsets = rig.empty(parts * radix, np.uint32)
    keys_a, pay_a = ukeys, payload
    for p in range(num_passes(bits, key_bits_for(col.dtype))):
        rig.run("radix_histogram", hist, keys_a, n, p * bits, parts)
        rig.run("radix_offsets", offsets, hist, parts)
        rig.run("radix_reorder", keys_b, pay_b, keys_a, pay_a, offsets,
                n, p * bits, parts)
        keys_a, keys_b = keys_b, keys_a
        pay_a, pay_b = pay_b, pay_a
    return pay_a.array[:n].copy()


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
