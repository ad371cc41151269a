"""Selection bitmaps and bitmap algebra (paper §4.1.1/4.1.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import bitmap_nbytes, count_bits, predicate_mask
from repro.kernels.bitmap import POPCOUNT, tail_mask


@pytest.mark.parametrize("op,lo,hi", [
    ("<", 50, None), ("<=", 50, None), (">", 50, None), (">=", 50, None),
    ("==", 50, None), ("!=", 50, None),
    ("[]", 20, 60), ("[)", 20, 60), ("(]", 20, 60), ("()", 20, 60),
])
def test_select_bitmap_predicates(rig, op, lo, hi):
    rng = np.random.default_rng(42)
    col = rng.integers(0, 100, 1003).astype(np.int32)
    bm = rig.zeros(bitmap_nbytes(1003), np.uint8)
    rig.run("select_bitmap", bm, rig.buf(col), 1003, op, lo, hi, False)
    expected = predicate_mask(col, op, lo, hi)
    got = np.unpackbits(bm.array, bitorder="little", count=1003).astype(bool)
    assert np.array_equal(got, expected)


def test_select_anti(rig):
    col = np.arange(20, dtype=np.int32)
    bm = rig.zeros(bitmap_nbytes(20), np.uint8)
    rig.run("select_bitmap", bm, rig.buf(col), 20, "[)", 5, 10, True)
    got = np.unpackbits(bm.array, bitorder="little", count=20).astype(bool)
    assert np.array_equal(got, ~((col >= 5) & (col < 10)))


def test_select_float_column(rig):
    col = np.array([0.1, 0.5, 0.9, 0.5], dtype=np.float32)
    bm = rig.zeros(bitmap_nbytes(4), np.uint8)
    rig.run("select_bitmap", bm, rig.buf(col), 4, "==",
            np.float32(0.5), None, False)
    assert count_bits(bm.array, 4) == 2


def test_tail_bits_zero(rig):
    """Bits beyond n stay clear so popcounts are exact."""
    col = np.ones(11, dtype=np.int32)
    bm = rig.zeros(bitmap_nbytes(11), np.uint8)
    rig.run("select_bitmap", bm, rig.buf(col), 11, "==", 1, None, False)
    assert count_bits(bm.array, 11) == 11
    assert bm.array[1] == tail_mask(11)  # 0b00000111


def test_unknown_predicate_rejected():
    with pytest.raises(ValueError):
        predicate_mask(np.zeros(4, np.int32), "~~", 1, 2)


class TestBitmapAlgebra:
    def test_and_or_xor(self, rig):
        a = np.array([0b1010, 0b1111], dtype=np.uint8)
        b = np.array([0b0110, 0b0000], dtype=np.uint8)
        out = rig.zeros(2, np.uint8)
        rig.run("bitmap_binop", out, rig.buf(a), rig.buf(b), 2, "and")
        assert np.array_equal(out.array, a & b)
        rig.run("bitmap_binop", out, rig.buf(a), rig.buf(b), 2, "or")
        assert np.array_equal(out.array, a | b)
        rig.run("bitmap_binop", out, rig.buf(a), rig.buf(b), 2, "xor")
        assert np.array_equal(out.array, a ^ b)

    def test_not_masks_tail(self, rig):
        a = np.array([0xFF, 0x07], dtype=np.uint8)
        out = rig.zeros(2, np.uint8)
        rig.run("bitmap_not", out, rig.buf(a), 11, 2)
        assert out.array[0] == 0x00
        assert out.array[1] == 0x00  # bits 8..10 were set, rest masked

    def test_popcount_table(self):
        assert POPCOUNT[0] == 0
        assert POPCOUNT[255] == 8
        assert POPCOUNT[0b10110000] == 3


def old_offsets(rig, bm, n_bits, parts):
    """The two launches ``bitmap_offsets`` replaces, verbatim from the
    previous ``_materialize_bitmap`` (``engine.launch`` -> ``rig.run``)."""
    nbytes = bitmap_nbytes(n_bits)
    counts = rig.empty(parts, np.uint32, tag="bm_counts")
    rig.run("bitmap_count", counts, bm, nbytes, parts)
    offsets = rig.empty(parts + 1, np.uint32, tag="bm_offsets")
    rig.run("prefix_sum", offsets, counts, parts)
    return offsets.array[: parts + 1].copy()


class TestOffsetsComeFromTheCountingLaunch:
    @pytest.mark.parametrize("parts", (1, 16, 1344))
    @pytest.mark.parametrize("bits", ("all", "none", "random", "one"))
    @pytest.mark.parametrize("n", (0, 1, 7, 255, 256, 257, 65_537))
    def test_one_launch_is_the_old_two(self, rig, n, bits, parts):
        """All-set, none-set, one bit (``parts`` > set bits) and random
        bitmaps; every n but 256 leaves a partial tail byte."""
        from repro.cl import KernelWork
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY as lib

        rng = np.random.default_rng(n + parts)
        flags = {"all": np.ones(n, np.uint8), "none": np.zeros(n, np.uint8),
                 "random": rng.integers(0, 2, n).astype(np.uint8),
                 "one": (np.arange(n) == n // 2).astype(np.uint8)}[bits]
        packed = np.packbits(flags, bitorder="little")
        bm = rig.buf(packed if packed.size else np.zeros(1, np.uint8))
        offsets = rig.buf(np.full(parts + 1, 0x7FFFFFFF, np.uint32))
        before = rig.queue.stats.kernels_launched
        rig.run("bitmap_offsets", offsets, bm, bitmap_nbytes(n), parts)
        assert rig.queue.stats.kernels_launched == before + 1
        assert np.array_equal(offsets.array, old_offsets(rig, bm, n, parts))
        assert offsets.array[parts] == int(flags.sum())
        # the two launches' work in one, plus a ticket per work-group
        ctx = ExecContext(rig.ctx.device, {}, 64, 16, data_scale=100.0)
        counts = np.zeros(parts, np.uint32)
        args = (bm.array, bitmap_nbytes(n), parts)
        old = (lib["bitmap_count"].work_fn(ctx, counts, *args)
               + lib["prefix_sum"].work_fn(ctx, offsets.array, counts, parts))
        assert lib["bitmap_offsets"].work_fn(
            ctx, offsets.array, *args
        ) == KernelWork(
            elements=8 * bitmap_nbytes(n), bytes_read=old.bytes_read,
            bytes_written=old.bytes_written, ops=old.ops,
            atomic_ops=4 / 100.0, atomic_addresses=1,
        )


class TestMaterialisation:
    """offsets -> write (paper §4.1.2)."""

    def _materialise(self, rig, bits: np.ndarray):
        n = len(bits)
        packed = np.packbits(bits, bitorder="little")
        bm = rig.buf(packed if packed.size else np.zeros(1, np.uint8))
        parts = 16
        offsets = rig.empty(parts + 1, np.uint32)
        rig.run("bitmap_offsets", offsets, bm, bitmap_nbytes(n), parts)
        total = int(offsets.array[parts])
        oids = rig.zeros(max(total, 1), np.uint32)
        if total:
            rig.run("bitmap_write_oids", oids, bm, offsets, n, parts)
        return oids.array[:total], total

    def test_known_positions(self, rig):
        bits = np.zeros(50, np.uint8)
        bits[[3, 17, 33, 49]] = 1
        oids, total = self._materialise(rig, bits)
        assert total == 4
        assert np.array_equal(oids, [3, 17, 33, 49])

    def test_empty_bitmap(self, rig):
        oids, total = self._materialise(rig, np.zeros(64, np.uint8))
        assert total == 0

    def test_all_set(self, rig):
        oids, total = self._materialise(rig, np.ones(77, np.uint8))
        assert total == 77
        assert np.array_equal(oids, np.arange(77))

    @given(st.binary(min_size=0, max_size=64), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, raw, extra):
        """materialise(pack(bits)) == nonzero(bits) for arbitrary bitmaps."""
        from repro.cl.kernel import ExecContext
        from repro.kernels import KERNEL_LIBRARY
        from repro import cl

        packed = np.frombuffer(raw, dtype=np.uint8).copy()
        n = max(0, packed.size * 8 - extra)
        if packed.size:
            packed[-1] &= tail_mask(n)
        ctx = ExecContext(cl.get_device("cpu"), {}, 16, 16)
        parts = 16
        offsets = np.full(parts + 1, 0x7FFFFFFF, np.uint32)
        KERNEL_LIBRARY["bitmap_offsets"].vec_fn(
            ctx, offsets, packed, bitmap_nbytes(n), parts
        )
        total = int(offsets[parts])
        expected = np.nonzero(
            np.unpackbits(packed, bitorder="little", count=n)
        )[0]
        assert total == expected.size
        if total:
            oids = np.zeros(total, np.uint32)
            KERNEL_LIBRARY["bitmap_write_oids"].vec_fn(
                ctx, oids, packed, offsets, n, parts
            )
            assert np.array_equal(oids, expected.astype(np.uint32))


def unpacking_write_oids_vec(ctx, oids, bitmap, offsets, n_bits, parts):
    """Verbatim copy of the write before it expanded a sparse bitmap's
    set bytes alone: every bit unpacked, positions cast through a copy."""
    n_bits = int(n_bits)
    bits = np.unpackbits(bitmap, bitorder="little", count=n_bits)
    positions = np.nonzero(bits)[0]
    oids[: positions.size] = positions.astype(oids.dtype)


@pytest.mark.parametrize("set_share", (0.0005, 0.01, 0.2, 0.6))
@pytest.mark.parametrize("n_bits", (8191, 8192, 8193, 100_003))
def test_write_oids_is_the_unpacking_copy(set_share, n_bits):
    """Sparse and dense bitmaps either side of the byte rule, bits set
    past ``n_bits`` in the last byte and bytes past it in the buffer."""
    from repro.cl.kernel import ExecContext
    from repro.kernels import KERNEL_LIBRARY
    from repro import cl

    rng = np.random.default_rng(n_bits)
    nbytes = bitmap_nbytes(n_bits)
    bitmap = np.packbits(rng.random(8 * nbytes + 16) < set_share,
                         bitorder="little")
    bitmap[nbytes - 1] |= 0x80
    ctx = ExecContext(cl.get_device("cpu"), {}, 16, 16)
    oids = np.full(n_bits + 1, 0x5A5A5A5A, np.uint32)
    old_oids = oids.copy()
    args = (bitmap, np.zeros(17, np.uint32), n_bits, 16)
    KERNEL_LIBRARY["bitmap_write_oids"].vec_fn(ctx, oids, *args)
    unpacking_write_oids_vec(ctx, old_oids, *args)
    assert np.array_equal(oids, old_oids)


def test_oids_to_bitmap_inverse(rig):
    oids = np.array([1, 5, 8, 31], dtype=np.uint32)
    bm = rig.zeros(bitmap_nbytes(32), np.uint8)
    rig.run("oids_to_bitmap", bm, rig.buf(oids), 4, 32)
    got = np.nonzero(
        np.unpackbits(bm.array, bitorder="little", count=32)
    )[0]
    assert np.array_equal(got, oids)
    assert count_bits(bm.array, 32) == 4
