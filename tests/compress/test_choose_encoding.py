"""``choose_encoding`` sizes codecs from counts; it used to build all of
them and keep one.  The decision must not have moved: same codec (or
``None``), same ``physical_nbytes``, equal payload — against the trial-
encoding body kept verbatim below, over hypothesis columns, and against
literals for the shapes the benchmark stores (TPC-H and the
``ddl_compile_churn`` staging table).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compress import MODES, choose_encoding
from repro.compress.codecs import (
    CODEC_KINDS,
    MAX_PHYSICAL_FRACTION,
    MIN_ENCODE_ROWS,
    DictEncoding,
    FOREncoding,
    RLEEncoding,
)

# ---- verbatim from src/repro/compress/codecs.py at PR 16 ------------------


def _candidates(values: np.ndarray, mode: str):
    """Codec instances worth considering for ``values`` under ``mode``."""
    kinds = CODEC_KINDS if mode == "auto" else (mode,)
    out = []
    if "dict" in kinds:
        out.append(DictEncoding.encode(values))
    if "rle" in kinds:
        out.append(RLEEncoding.encode(values))
    if "for" in kinds and values.dtype.kind in "iu":
        out.append(FOREncoding.encode(values))
    return out


def old_choose_encoding(values: np.ndarray, mode: str = "auto"):
    """Pick the best codec for a base column, or ``None`` to stay plain.

    A column is only encoded when it is 1-D numeric, long enough to
    matter, NaN-free (NaN breaks dictionary equality), and some codec
    beats the plain tail by :data:`MAX_PHYSICAL_FRACTION`.  Ties prefer
    dict > rle > for — the dict paths cover the most operators.
    """
    if mode == "off":
        return None
    if values.ndim != 1 or values.size < MIN_ENCODE_ROWS:
        return None
    if values.dtype.kind not in "iuf":
        return None
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        return None
    best = None
    for candidate in _candidates(values, mode):
        if candidate.physical_nbytes >= (
                candidate.nominal_nbytes * MAX_PHYSICAL_FRACTION):
            continue
        if best is None or candidate.physical_nbytes < best.physical_nbytes:
            best = candidate
    return best


# ---- comparison -----------------------------------------------------------

PAYLOADS = {
    "dict": ("dictionary", "codes"),
    "rle": ("run_values", "run_lengths"),
    "for": ("deltas",),
}


def assert_same_encoding(new, old, context=""):
    if old is None or new is None:
        assert new is None and old is None, context
        return
    assert new.kind == old.kind, context
    assert new.physical_nbytes == old.physical_nbytes, context
    assert new.nominal_nbytes == old.nominal_nbytes, context
    assert new.dtype == old.dtype, context
    for name in PAYLOADS[new.kind]:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype, (context, name)
        assert np.array_equal(a, b, equal_nan=True), (context, name)
    if new.kind == "for":
        assert new.frame == old.frame, context


def beyond_int64(values: np.ndarray) -> bool:
    return (values.dtype == np.uint64 and values.size > 0
            and int(values.max()) > np.iinfo(np.int64).max)


def check(values: np.ndarray, mode: str):
    values = np.ascontiguousarray(values)
    new = choose_encoding(values, mode)
    try:
        old = old_choose_encoding(values, mode)
    except OverflowError:
        # the trial build of FOR overflowed int64 on a uint64 column,
        # failing create_table outright; FOR now declines such columns
        assert beyond_int64(values) and mode in ("auto", "for")
        assert new is None or new.kind != "for"
        if new is not None:
            assert np.array_equal(new.decode(), values)
        return
    assert_same_encoding(new, old, (values.dtype, values.size, mode))


# ---- columns --------------------------------------------------------------

INT_DTYPES = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
              np.int64, np.uint64)
FLOAT_DTYPES = (np.float32, np.float64)


def edge_ints(dtype) -> list:
    info = np.iinfo(dtype)
    return [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]


@st.composite
def int_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    size = draw(st.sampled_from((0, 1, 15, 16, 17, 40, 300)))
    shape = draw(st.sampled_from(
        ("constant", "distinct", "edges", "narrow", "zipf", "any")
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "constant":
        column = np.full(size, draw(st.integers(info.min, info.max)))
    elif shape == "distinct":
        start = draw(st.integers(info.min, max(info.min, info.max - size)))
        column = rng.permutation(
            np.arange(start, start + size, dtype=object)
        )
        column = np.clip(column, info.min, info.max)
    elif shape == "edges":       # full-range spreads
        pool = [v for v in edge_ints(dtype) if info.min <= v <= info.max]
        column = rng.choice(np.array(pool, dtype=object), size)
    elif shape == "narrow":      # a small span anywhere in the range
        span = draw(st.sampled_from((1, 2, 255, 256, 257, 65535, 65536)))
        lo = draw(st.integers(info.min, max(info.min, info.max - span)))
        column = lo + rng.integers(0, span + 1, size).astype(object)
        column = np.clip(column, info.min, info.max)
    elif shape == "zipf":
        column = np.minimum(rng.zipf(1.5, size).astype(object), info.max)
    else:
        column = np.array(
            draw(st.lists(st.integers(info.min, info.max),
                          min_size=size, max_size=size)),
            dtype=object,
        )
    column = np.asarray(column, dtype=object).astype(dtype)
    if draw(st.booleans()):
        column = np.sort(column)
    return column


@st.composite
def float_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(FLOAT_DTYPES)))
    size = draw(st.sampled_from((0, 1, 15, 16, 17, 40, 300)))
    shape = draw(st.sampled_from(
        ("palette", "zeros", "nonfinite", "distinct", "any")
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "palette":
        column = rng.choice(np.linspace(-1.0, 1.0, 7), size)
    elif shape == "zeros":       # -0.0 and 0.0 are one dictionary entry
        column = rng.choice(np.array([-0.0, 0.0, 1.5]), size)
    elif shape == "nonfinite":
        column = rng.choice(
            np.array([np.nan, np.inf, -np.inf, 0.0, 2.0]), size
        )
    elif shape == "distinct":
        column = rng.permutation(np.arange(size) * 0.25)
    else:
        column = draw(hnp.arrays(dtype, size, elements=st.floats(
            allow_nan=True, allow_infinity=True, width=dtype.itemsize * 8,
        )))
    column = np.asarray(column).astype(dtype)
    if draw(st.booleans()):
        column = np.sort(column)
    return column


class TestEquivalenceWithTrialEncoding:
    @given(int_columns(), st.sampled_from(MODES))
    @settings(max_examples=400, deadline=None)
    def test_integer_columns(self, values, mode):
        check(values, mode)

    @given(float_columns(), st.sampled_from(MODES))
    @settings(max_examples=300, deadline=None)
    def test_float_columns(self, values, mode):
        check(values, mode)

    @given(st.one_of(int_columns(), float_columns()))
    @settings(max_examples=300, deadline=None)
    def test_sizes_are_the_built_payloads(self, values):
        """``physical_nbytes_of`` is exact for every codec on every
        column it can build — admitted by the policy or not."""
        assume(not beyond_int64(values))
        assume(values.dtype.kind != "f" or np.isfinite(values).all())
        for codec in (DictEncoding, RLEEncoding, FOREncoding):
            if codec is FOREncoding and values.dtype.kind == "f":
                continue
            assert (codec.physical_nbytes_of(values)
                    == codec.encode(values).physical_nbytes), codec.kind

    @pytest.mark.parametrize("mode", MODES)
    def test_non_candidates(self, mode):
        for values in (
            np.zeros((4, 40), np.int32),                 # 2-D
            np.array(["a", "b"] * 20),                   # strings
            np.zeros(40, np.bool_),
            np.zeros(40, np.complex64),
            np.zeros(MIN_ENCODE_ROWS - 1, np.int32),
        ):
            assert choose_encoding(values, mode) is None
            assert old_choose_encoding(values, mode) is None

    def test_ties_prefer_dict_then_rle_then_for(self):
        def sizes(values):
            return tuple(codec.physical_nbytes_of(values)
                         for codec in (DictEncoding, RLEEncoding,
                                       FOREncoding))

        # 16 x int32 (plain 64, admitted below 48)
        three_way = np.array([5] * 6 + [9] * 5 + [5] * 5, np.int32)
        assert sizes(three_way) == (24, 24, 24)
        rle_and_for = np.array([1] * 6 + [2] * 5 + [3] * 5, np.int32)
        assert sizes(rle_and_for) == (28, 24, 24)
        for values, kind in ((three_way, "dict"), (rle_and_for, "rle")):
            assert choose_encoding(values).kind == kind
            assert old_choose_encoding(values).kind == kind


class TestUint64BeyondInt64:
    """Regression: the trial build of FOR overflowed int64 on a uint64
    column whose values exceed it, so ``create_table`` raised
    ``OverflowError``; FOR now declines such columns and the others
    still apply."""

    def test_constant_takes_rle(self):
        values = np.full(100, 2**64 - 1, dtype=np.uint64)
        with pytest.raises(OverflowError):
            old_choose_encoding(values)
        encoding = choose_encoding(values)
        assert encoding.kind == "rle"
        assert np.array_equal(encoding.decode(), values)

    def test_ascending_stays_plain(self):
        values = np.arange(2**63 + 5, 2**63 + 105, dtype=np.uint64)
        assert choose_encoding(values) is None
        assert choose_encoding(values, "for") is None

    def test_inside_int64_still_takes_for(self):
        values = np.arange(2**63 - 150, 2**63 - 50, dtype=np.uint64)
        assert_same_encoding(choose_encoding(values),
                             old_choose_encoding(values))
        assert choose_encoding(values).kind == "for"


# ---- literals -------------------------------------------------------------

#: ``(kind, physical_nbytes)`` per base column of ``tpch_database(sf=0.1)``
#: as the parent commit's trial encoding chose them
TPCH_SF01 = {
    "customer.c_acctbal": None,
    "customer.c_custkey": ("for", 158),
    "customer.c_mktsegment": ("for", 158),
    "customer.c_name": ("for", 158),
    "customer.c_nationkey": ("for", 158),
    "lineitem.l_commitdate": ("for", 11952),
    "lineitem.l_discount": ("dict", 6016),
    "lineitem.l_extendedprice": None,
    "lineitem.l_linenumber": ("for", 5980),
    "lineitem.l_linestatus": ("dict", 5980),
    "lineitem.l_orderkey": ("for", 11952),
    "lineitem.l_partkey": ("for", 5980),
    "lineitem.l_quantity": ("dict", 6172),
    "lineitem.l_receiptdate": ("for", 11952),
    "lineitem.l_returnflag": ("for", 5980),
    "lineitem.l_shipdate": ("for", 11952),
    "lineitem.l_shipinstruct": ("for", 5980),
    "lineitem.l_shipmode": ("for", 5980),
    "lineitem.l_suppkey": ("for", 5980),
    "lineitem.l_tax": ("dict", 6008),
    "nation.n_name": ("for", 33),
    "nation.n_nationkey": ("for", 33),
    "nation.n_regionkey": ("for", 33),
    "orders.o_custkey": ("for", 1508),
    "orders.o_orderdate": ("for", 3008),
    "orders.o_orderkey": ("for", 3008),
    "orders.o_orderpriority": ("for", 1508),
    "orders.o_orderstatus": ("for", 1508),
    "orders.o_shippriority": ("rle", 8),
    "orders.o_totalprice": None,
    "part.p_brand": ("for", 208),
    "part.p_container": ("for", 208),
    "part.p_partkey": ("for", 208),
    "part.p_retailprice": None,
    "part.p_size": ("for", 208),
    "part.p_type": ("for", 208),
    "partsupp.ps_availqty": ("for", 1608),
    "partsupp.ps_partkey": ("for", 808),
    "partsupp.ps_suppkey": ("for", 808),
    "partsupp.ps_supplycost": None,
    "region.r_name": None,
    "region.r_regionkey": None,
    "supplier.s_acctbal": None,
    "supplier.s_name": None,
    "supplier.s_nationkey": None,
    "supplier.s_suppkey": None,
}

#: the four column shapes of the ``ddl_compile_churn`` staging table
#: (``perf/yardstick/workloads.py``: seed 11, member 0, 200 000 rows)
STAGING = {
    "s_key": ("for", 200008),       # low-cardinality int
    "s_date": ("for", 400008),      # sorted date
    "s_flag": ("rle", 24),          # sorted flag
    "s_val": None,                  # float
}


def described(encoding):
    return None if encoding is None else (encoding.kind,
                                          encoding.physical_nbytes)


class TestPinnedDecisions:
    @pytest.mark.needs_encoded_storage
    def test_tpch_sf01(self):
        import repro

        catalog = repro.tpch_database(sf=0.1).catalog
        chosen = {
            f"{table}.{column}": described(
                getattr(catalog.bat(table, column), "encoding", None)
            )
            for table in catalog.tables()
            for column in catalog.columns(table)
        }
        assert chosen == TPCH_SF01

    def test_staging_shapes(self):
        rng = np.random.default_rng([11, 0])
        rows = 200_000
        columns = {
            "s_key": rng.integers(0, 16, rows).astype(np.int32),
            "s_date": np.sort(rng.integers(19920101, 19981231, rows))
            .astype(np.int32),
            "s_flag": np.sort(rng.integers(0, 3, rows)).astype(np.int32),
            "s_val": rng.uniform(0.0, 1000.0, rows).astype(np.float32),
        }
        assert {name: described(choose_encoding(values))
                for name, values in columns.items()} == STAGING
