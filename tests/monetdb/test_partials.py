"""The partition-merge algebra against the whole column.

``repro.monetdb.partials`` is what the device, morsel and shard
executors merge with, so it is checked against the one thing it must
reproduce: cut a column anywhere (empty pieces included), run the
MonetDB reference operator per piece, merge — and get the operator's
answer over the whole column.  Integers, counts, min and max exactly;
float sums against the same left-to-right fold written out by hand
(their association order *is* the contract) and, loosely, against the
whole-column sum.

NaN is covered both ways: as a *key* the NaNs of a column are one group,
sorted last, on every engine, so they must be one merged group; as a
*value* a NaN partial is the ``min`` / ``max`` wherever it comes.
"""

import functools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import fold_identity
from repro.monetdb import BAT, Catalog, MonetDBSequential, make_bat
from repro.monetdb import partials
from repro.monetdb.partials import (
    components,
    concat,
    finish_avg,
    fold_of,
    fold_scalars,
    fold_tables,
    group_keys,
    merge_groups,
    offset_positions,
    offsets_of,
    owner_of,
    scatter_tables,
    slice_rows,
)

MS = MonetDBSequential(Catalog())
DTYPES = (np.int32, np.int64, np.float32, np.float64)
SHAPES = ("empty", "one", "constant", "distinct", "zipf")
BOUNDED = settings(max_examples=200, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
#: the generated columns hold inf and -inf side by side
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")


def ms(op, *args):
    return MS.resolve(op)(*args)


# -- strategies -------------------------------------------------------------

def special_values(dtype, nan: bool = False, summed: bool = False):
    """The adversarial values of ``dtype``.  ``summed`` keeps integer
    totals exact in the *reference* too: MS sums a group through
    ``bincount``'s float64 weights and a column in wrapping int64."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        out = [0.0, -0.0, np.inf, -np.inf, 1.5, -2.25]
        return out + [np.nan] if nan else out
    out = [0, 1, -1, 2**31 - 1, -(2**31)]
    if dtype.itemsize == 8:
        if summed:
            return out + [2**40, -(2**40) - 1]
        # adjacent values float64 cannot tell apart, and the extremes
        info = np.iinfo(dtype)
        out += [2**53, 2**53 + 1, 2**53 + 2, -(2**53) - 1,
                info.max, info.min]
    return out


@st.composite
def columns(draw, dtype=None, nan=True, summed=False, max_rows=48,
            shapes=SHAPES):
    dtype = np.dtype(dtype or draw(st.sampled_from(DTYPES)))
    shape = draw(st.sampled_from(shapes))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = (0 if shape == "empty" else 1 if shape == "one"
         else draw(st.integers(2, max_rows)))
    pool = np.array(special_values(dtype, nan, summed), dtype=dtype)
    if shape == "constant":
        values = np.repeat(pool[rng.integers(pool.size)], n)
    elif shape == "distinct":
        values = (rng.permutation(n) - n // 2).astype(dtype)
    elif shape == "zipf":
        values = pool[np.minimum(rng.zipf(1.5, n) - 1, pool.size - 1)]
    else:
        values = pool[rng.integers(pool.size, size=n)]
    return np.ascontiguousarray(values, dtype=dtype)


@st.composite
def cuts(draw, n):
    """Ascending cut points of ``[0, n)``; repeats make empty pieces."""
    inner = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return [0, *inner, n]


def pieces_of(values, bounds):
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# -- scalar aggregates ------------------------------------------------------

@pytest.mark.parametrize("fn", ("sum", "count", "min", "max", "avg"))
@BOUNDED
@given(st.data())
def test_scalar_partials_merge_to_the_whole_column(fn, data):
    summed = fn in ("sum", "avg")
    values = data.draw(columns(summed=summed, shapes=SHAPES[1:]))
    bounds = data.draw(cuts(values.size))
    # every executor skips the pieces that hold no row
    pieces = [p for p in pieces_of(values, bounds) if p.size]
    merged = [
        fold_scalars(fold_of(name),
                     [ms(f"aggr.{name}", make_bat(p)) for p in pieces])
        for name, _args in components(fn, ())
    ]
    got = merged[0] if len(merged) == 1 else finish_avg(*merged)
    whole = ms(f"aggr.{fn}", make_bat(values))
    if not summed or (fn == "sum" and values.dtype.kind != "f"):
        # a NaN anywhere is the min / max, as in the whole column
        assert got == whole or (got != got and whole != whole)
        assert type(got) is type(whole)
        return
    if values.dtype.kind == "f":
        totals = [float(np.sum(p, dtype=np.float64)) for p in pieces]
        by_hand = totals[0]
        for total in totals[1:]:
            by_hand = by_hand + total
    else:
        by_hand = float(sum(int(v) for v in values))
    if fn == "avg":
        by_hand = by_hand / values.size
    np.testing.assert_equal(got, by_hand)
    with np.errstate(invalid="ignore"):
        np.testing.assert_allclose(got, whole, rtol=1e-9)


def test_scalar_sums_do_not_wrap_and_keep_partition_order():
    big = np.iinfo(np.int64).max
    assert fold_scalars("sum", [big, big, 1]) == 2 * big + 1
    parts = [1e16, 1.0, -1e16, 1.0]
    assert fold_scalars("sum", parts) == ((1e16 + 1.0) - 1e16) + 1.0
    assert fold_scalars("sum", parts) != functools.reduce(
        operator.add, reversed(parts))


@pytest.mark.parametrize("fold", ("min", "max"))
def test_a_nan_partial_is_the_min_and_the_max_wherever_it_comes(fold):
    """Python's ``min`` / ``max`` answer by operand order once a NaN is
    among them; the whole-column operators propagate it."""
    for parts in ([np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan],
                  [np.float32(np.nan), np.float32(-np.inf)]):
        assert np.isnan(fold_scalars(fold, parts))
    assert fold_scalars(fold, [3, 1, 2]) == {"min": 1, "max": 3}[fold]
    assert type(fold_scalars(fold, [2**70, 1])) is int


def test_avg_of_a_group_nobody_saw_is_zero():
    sums, counts = np.array([3.0, 0.0]), np.array([2, 0])
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(finish_avg(sums, counts), [1.5, 0.0])
    assert finish_avg(0, 0) == 0.0 and type(finish_avg(6, 4)) is float


# -- grouped aggregates -----------------------------------------------------

def ms_grouping(keys):
    """MS ``group`` / ``subgroup`` chain over the key columns."""
    gids, ngroups = ms("group.group", make_bat(keys[0]))
    for column in keys[1:]:
        gids, ngroups = ms("group.subgroup", make_bat(column), gids, ngroups)
    return gids, int(ngroups)


def ms_table(fn, values, gids, ngroups):
    if fn == "subcount":
        return ms("aggr.subcount", gids, ngroups).values
    return ms(f"aggr.{fn}", make_bat(values), gids, ngroups).values


@st.composite
def keyed_tables(draw, summed):
    """``(key columns, value column)``: 1-3 keys of mixed widths (NaN
    among the float ones), values of any dtype."""
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    keys = []
    for dtype in draw(st.lists(st.sampled_from(DTYPES), min_size=1,
                               max_size=3)):
        pool = np.array(special_values(dtype, nan=True), dtype=dtype)
        few = pool[rng.permutation(pool.size)[:draw(st.integers(1, 4))]]
        keys.append(np.ascontiguousarray(few[rng.integers(few.size, size=n)]))
    vdtype = np.dtype(draw(st.sampled_from(DTYPES)))
    pool = np.array(special_values(vdtype, nan=True, summed=summed),
                    dtype=vdtype)
    values = np.ascontiguousarray(pool[rng.integers(pool.size, size=n)])
    return keys, values


@pytest.mark.parametrize(
    "fn", ("subsum", "subcount", "submin", "submax", "subavg"))
@BOUNDED
@given(st.data())
def test_grouped_partials_scatter_to_the_whole_column(fn, data):
    keys, values = data.draw(keyed_tables(fn in ("subsum", "subavg")))
    bounds = data.draw(cuts(values.size))
    names = [name for name, _ in components(fn, (None, None, None))]

    local_keys, sizes, tables = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        part_keys = [column[lo:hi] for column in keys]
        gids, ngroups = ms_grouping(part_keys)
        local_keys.append(group_keys(gids.values, part_keys))
        sizes.append(ngroups)
        tables.append([ms_table(name, values[lo:hi], gids, ngroups)
                       for name in names])
    ids, n = merge_groups(local_keys)
    slots = np.split(ids, np.cumsum(sizes)[:-1])
    merged = [
        scatter_tables(fold_of(name), n,
                       zip(slots, (part[k] for part in tables)))
        for k, name in enumerate(names)
    ]
    got = merged[0] if len(merged) == 1 else finish_avg(*merged)

    gids, ngroups = ms_grouping(keys)
    assert n == ngroups
    # merged group ids ascend by key tuple, like the whole column's
    for k, expected in enumerate(group_keys(gids.values, keys)):
        column = np.concatenate([table[k] for table in local_keys])
        at = np.empty_like(expected)
        at[ids] = column
        np.testing.assert_array_equal(at, expected)
        assert column.dtype == expected.dtype
    whole = ms_table(fn, values, gids, ngroups)
    assert got.dtype == whole.dtype
    if got.dtype.kind == "f" and fn in ("subsum", "subavg"):
        with np.errstate(invalid="ignore"):
            np.testing.assert_allclose(got, whole, rtol=1e-9)
    else:
        np.testing.assert_array_equal(got, whole)


@pytest.mark.parametrize("fold", ("sum", "min", "max"))
@BOUNDED
@given(st.data())
def test_tables_over_shared_ids_fold_elementwise(fold, data):
    """Shared ids: a piece that saw no row of a group holds the fold
    identity there, so the whole-column table comes back."""
    values = data.draw(columns(summed=fold == "sum", shapes=SHAPES[1:]))
    rng = np.random.default_rng(values.size)
    gids = make_bat(rng.integers(0, 4, values.size).astype(np.uint32))
    bounds = data.draw(cuts(values.size))
    fn = f"sub{fold}"
    tables = [
        ms_table(fn, values[lo:hi], make_bat(gids.values[lo:hi]), 4)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    got = fold_tables(fold, tables)
    by_hand = tables[0]
    for table in tables[1:]:
        by_hand = {"sum": np.add, "min": np.minimum,
                   "max": np.maximum}[fold](by_hand, table)
    np.testing.assert_array_equal(got, by_hand)
    whole = ms_table(fn, values, gids, 4)
    if got.dtype.kind == "f" and fold == "sum":
        with np.errstate(invalid="ignore"):
            np.testing.assert_allclose(got, whole, rtol=1e-9)
    else:
        np.testing.assert_array_equal(got, whole)


def test_float_table_sums_apply_in_partition_order():
    tables = [np.array([1e16]), np.array([1.0]), np.array([-1e16]),
              np.array([1.0])]
    slots = [np.array([0])] * 4
    assert scatter_tables("sum", 1, zip(slots, tables))[0] == 1.0
    assert fold_tables("sum", tables)[0] == 1.0
    assert fold_tables("sum", tables[::-1])[0] != 1.0


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fold", ("sum", "min", "max"))
def test_untouched_slots_hold_the_fold_identity(fold, dtype):
    table = np.array([5, 7], dtype=dtype)
    merged = scatter_tables(fold, 3, [(np.array([2, 0]), table)])
    assert merged.tolist() == [7, fold_identity(fold, dtype), 5]
    assert merged.dtype == np.dtype(dtype)
    if np.dtype(dtype).kind == "f" and fold != "sum":
        assert np.isinf(merged[1])
    assert scatter_tables(fold, 0, [], np.int64).dtype == np.int64


def test_merge_groups_never_meets_keys_in_a_common_dtype():
    """(int64, float32) promotes to float64, where 2**53 and 2**53 + 1
    are one number — the SHARD bug this module's lexsort fixes."""
    k1 = np.array([2**53 + 1, 2**53, 2**53 + 1, 2**53], dtype=np.int64)
    k2 = np.array([1.0, 1.0, 1.0, -0.0], dtype=np.float32)
    # two partitions: ids come back partition after partition
    ids, n = merge_groups([[k1[:2], k2[:2]], [k1[2:], k2[2:]]])
    assert ids.tolist() == [2, 1, 2, 0] and n == 3
    stacked = np.column_stack([k1, k2])
    assert np.unique(stacked, axis=0).shape[0] == 2     # what went wrong
    empty = merge_groups([[np.empty(0, np.int64), np.empty(0, np.float32)]])
    assert empty[0].size == 0 and empty[1] == 0
    assert merge_groups([])[0].dtype == np.int64 and merge_groups([])[1] == 0


def test_signed_zero_keys_are_one_group():
    ids, n = merge_groups([[np.array([0.0, -0.0])], [np.array([1.0, -0.0])]])
    assert ids.tolist() == [0, 0, 1, 0] and n == 2


def test_nan_keys_are_one_group_sorted_last():
    """Every engine's ``group`` gives the NaNs of a column one id, the
    last; merged partitions must not count one group per NaN."""
    nan = np.nan
    ids, n = merge_groups([[np.array([nan, 1.0, nan], dtype=np.float32)],
                           [np.array([-np.inf, nan], dtype=np.float32)]])
    assert ids.tolist() == [2, 1, 2, 0, 2] and n == 3
    # per column: (NaN, 1) and (NaN, 2) differ, (NaN, 1) twice does not
    keys = [np.array([nan, nan, 0.5, nan]),
            np.array([1, 2, 1, 1], dtype=np.int64)]
    ids, n = merge_groups([keys])
    assert ids.tolist() == [1, 2, 0, 1] and n == 3
    gids, ngroups = ms_grouping(keys)
    assert gids.values.tolist() == ids.tolist() and ngroups == 3


@BOUNDED
@given(st.data())
def test_integer_keys_merge_like_a_unique_over_stacked_tuples(data):
    """Over integer keys a common int64 matrix loses nothing, so the
    merge must be ``np.unique(axis=0)``: the same count, and every local
    group the rank of its tuple among the distinct ones."""
    dtypes = data.draw(st.lists(st.sampled_from((np.int32, np.int64)),
                                min_size=1, max_size=3))
    pools = [np.array(special_values(dtype), dtype=dtype) for dtype in dtypes]
    tables = []
    for _ in range(data.draw(st.integers(1, 4))):
        rows = data.draw(st.integers(0, 12))
        picks = [data.draw(st.lists(st.integers(0, pool.size - 1),
                                    min_size=rows, max_size=rows))
                 for pool in pools]
        tables.append([pool[pick] for pool, pick in zip(pools, picks)])
    ids, n = merge_groups(tables)
    stacked = np.vstack([np.column_stack([c.astype(np.int64) for c in t])
                         for t in tables])
    unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
    assert n == unique.shape[0]
    assert ids.tolist() == np.asarray(inverse).reshape(-1).tolist()


# -- the linear merges against the bodies they replaced ----------------------

def parent_group_keys(gids, columns) -> list:
    """``group_keys`` before the reversed scatter, kept verbatim."""
    _ids, first = np.unique(gids, return_index=True)
    return [np.asarray(column)[first] for column in columns]


def parent_merge_groups(tables) -> "tuple[np.ndarray, int]":
    """``merge_groups`` before the packed key, kept verbatim."""
    columns = [np.concatenate(column) for column in zip(*tables)]
    if not columns:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort(columns[::-1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        differ = ordered[1:] != ordered[:-1]
        if ordered.dtype.kind == "f":
            nan = np.isnan(ordered)
            differ &= ~(nan[1:] & nan[:-1])
        starts[1:] |= differ
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids, int(np.count_nonzero(starts))


KEY_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
              np.uint32, np.uint64, np.bool_, np.float32, np.float64)


def key_pool(dtype) -> np.ndarray:
    """Both ends of ``dtype`` and values beside them: -2**63, 2**63 - 1
    and values >= 2**63 among the eight-byte ones."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return np.array([False, True])
    if dtype.kind == "f":
        return np.array([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan],
                        dtype=dtype)
    info = np.iinfo(dtype)
    values = {info.min, info.min + 1, info.max - 1, info.max, 0, 1, 2}
    if dtype == np.uint64:
        values |= {2**63 - 1, 2**63, 2**63 + 1}
    return np.array(sorted(values), dtype=dtype)


@st.composite
def key_columns_of(draw, dtype, rows):
    """``rows`` keys of ``dtype``: from a narrow window (spans that
    pack) or from the whole pool (ends of the type: spans that do not)."""
    pool = key_pool(dtype)
    if draw(st.booleans()) and pool.dtype.kind in "iu":
        base = pool[draw(st.integers(0, pool.size - 1))]
        width = draw(st.integers(1, 5))
        lo = min(int(base), int(np.iinfo(pool.dtype).max) - width)
        pool = np.array(range(lo, lo + width), dtype=pool.dtype)
    picks = draw(st.lists(st.integers(0, pool.size - 1),
                          min_size=rows, max_size=rows))
    return pool[np.array(picks, dtype=np.intp)]


@st.composite
def partition_key_tables(draw):
    """1-4 key columns of any width, 0-4 partitions of 0-12 rows (an
    empty partition or none at all included); rows need not be distinct
    nor ascending."""
    dtypes = draw(st.lists(st.sampled_from(KEY_DTYPES), min_size=1,
                           max_size=4))
    tables = []
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(st.integers(0, 12))
        tables.append([draw(key_columns_of(dtype, rows))
                       for dtype in dtypes])
    return tables


def packs(tables) -> bool:
    """Whether ``merge_groups`` should take the packed key: integer or
    bool columns with rows, spans multiplying to less than 2**62."""
    columns = [np.concatenate(column) for column in zip(*tables)]
    if not columns or columns[0].size == 0:
        return False
    total = 1
    for column in columns:
        if column.dtype.kind not in "iub":
            return False
        total *= int(column.max()) - int(column.min()) + 1
    return total < 2**62


@BOUNDED
@given(partition_key_tables())
def test_merge_groups_numbers_as_the_lexsort_did(tables):
    with mock.patch.object(partials, "_lexsort_ids",
                           wraps=partials._lexsort_ids) as lexsort:
        ids, n = merge_groups(tables)
    expected_ids, expected_n = parent_merge_groups(tables)
    np.testing.assert_array_equal(ids, expected_ids)
    assert ids.dtype == expected_ids.dtype and n == expected_n
    assert lexsort.called is (bool(tables) and not packs(tables))


@pytest.mark.parametrize("columns, packed", [
    # int64's two ends: a span of 2**64
    ([np.array([-2**63, 2**63 - 1], dtype=np.int64)], False),
    ([np.array([-2**63, -2**63 + 3], dtype=np.int64)], True),
    ([np.array([2**63 - 4, 2**63 - 1], dtype=np.int64)], True),
    # uint64 past 2**63 subtracts in its own type
    ([np.array([2**63 + 9, 2**63, 2**63 + 7], dtype=np.uint64)], True),
    ([np.array([2**64 - 1, 2**64 - 3], dtype=np.uint64)], True),
    ([np.array([0, 2**64 - 1], dtype=np.uint64)], False),
    # spans multiplying to exactly 2**62 do not pack, one less does
    ([np.array([0, 2**31 - 1], dtype=np.int64),
      np.array([0, 2**31 - 1], dtype=np.int64)], False),
    ([np.array([0, 2**31 - 1], dtype=np.int64),
      np.array([0, 2**31 - 2], dtype=np.int64)], True),
    ([np.array([-128, 127], dtype=np.int8),
      np.array([True, False]), np.array([7, 7], dtype=np.uint16)], True),
    ([np.array([1, 2], dtype=np.int32), np.array([0.5, -0.0])], False),
])
def test_the_packed_key_fires_where_spans_allow(columns, packed):
    tables = [[column[:1] for column in columns],
              [column[1:] for column in columns]]
    with mock.patch.object(partials, "_lexsort_ids",
                           wraps=partials._lexsort_ids) as lexsort:
        ids, n = merge_groups(tables)
    assert lexsort.called is not packed
    expected_ids, expected_n = parent_merge_groups(tables)
    assert ids.tolist() == expected_ids.tolist() and n == expected_n


@st.composite
def ids_with_gaps(draw):
    """Local group ids with gaps (absent ids) or without, in any order."""
    rows = draw(st.integers(0, 40))
    top = draw(st.sampled_from((1, 4, 30, 1000)))
    picks = draw(st.lists(st.integers(0, top), min_size=rows,
                          max_size=rows))
    dtype = draw(st.sampled_from((np.int64, np.uint32)))
    return np.array(picks, dtype=dtype)


@BOUNDED
@given(ids_with_gaps(), st.integers(0, 2**16))
def test_group_keys_reads_each_ids_first_row_as_unique_did(gids, seed):
    rng = np.random.default_rng(seed)
    columns = [rng.integers(-5, 5, gids.size).astype(np.int32),
               rng.permutation(gids.size).astype(np.float64)]
    got = group_keys(gids, columns)
    for column, expected in zip(got, parent_group_keys(gids, columns)):
        np.testing.assert_array_equal(column, expected)
        assert column.dtype == expected.dtype


@BOUNDED
@given(st.sampled_from(KEY_DTYPES), st.integers(0, 60), st.data())
def test_distinct_keys_is_unique(dtype, rows, data):
    values = data.draw(key_columns_of(dtype, rows))
    got = partials.distinct_keys(values)
    expected = np.unique(values)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype


# -- row-shaped outputs -----------------------------------------------------

@BOUNDED
@given(st.data())
def test_positions_offset_then_concatenate(data):
    values = data.draw(columns(dtype=np.int32, nan=False))
    bounds = data.draw(cuts(values.size))
    keep = values > 0
    local = [np.flatnonzero(keep[lo:hi]).astype(np.uint32)
             for lo, hi in zip(bounds, bounds[1:])]
    offsets = offsets_of(np.diff(bounds))
    assert offsets.tolist() == bounds[:-1]
    merged = concat([offset_positions(p, o)
                     for p, o in zip(local, offsets)], np.int64)
    np.testing.assert_array_equal(merged, np.flatnonzero(keep))
    assert merged.dtype == np.int64
    # owner_of inverts it — and empty partitions own nothing
    owners = owner_of(merged, offsets)
    for position, owner in zip(merged, owners):
        assert bounds[owner] <= position < bounds[owner + 1]


def test_a_start_belongs_to_the_partition_starting_there():
    offsets = offsets_of([5, 0, 4, 0])
    assert offsets.tolist() == [0, 5, 5, 9]
    assert owner_of(np.array([0, 4, 5, 8]), offsets).tolist() == [0, 0, 2, 2]


def test_offset_does_not_wrap_a_uint32_oid():
    top = np.array([2**32 - 1], dtype=np.uint32)
    assert offset_positions(top, 5).tolist() == [2**32 + 4]
    assert concat([], np.float32).dtype == np.float32


# -- the slicer -------------------------------------------------------------

def test_slice_rows_is_a_view_with_the_parents_flags():
    base = BAT(np.arange(10, dtype=np.int32), key=True, sorted_=True,
               tag="col")
    base.is_base = True
    sliced = slice_rows(base, 3, 7)
    assert sliced.is_base and sliced.tag == "col[3:7]"
    assert np.shares_memory(sliced.values, base.values)
    np.testing.assert_array_equal(sliced.values, [3, 4, 5, 6])
    assert sliced.key and sliced.sorted
    assert not slice_rows(make_bat(np.arange(4, dtype=np.int32)), 0, 2).is_base


def test_encoded_columns_cut_in_the_code_domain():
    import repro

    with repro.Database() as db:
        db.create_table("t", {"a": np.repeat(np.arange(4, dtype=np.int32),
                                             500)})
        base = db.catalog.bat("t", "a")
        before = db.catalog.compression.snapshot()
        sliced = slice_rows(base, 400, 1200)
        assert type(sliced) is type(base) and sliced.count == 800
        after = db.catalog.compression.snapshot()
        assert (after.decode_events, after.partial_decodes) == (
            before.decode_events, before.partial_decodes)
        np.testing.assert_array_equal(sliced.values, base.values[400:1200])


# -- mutation checks: each rule above is load-bearing ------------------------

class Swapped:
    """A module with some attributes replaced — installed as
    ``partials``' own ``np`` / ``functools``, so nothing else sees it."""

    def __init__(self, module, **swaps):
        self._module = module
        self.__dict__.update(swaps)

    def __getattr__(self, name):
        return getattr(self._module, name)


def must_fail(test):
    with pytest.raises((AssertionError, FloatingPointError)):
        test()


def test_a_right_to_left_fold_is_caught(monkeypatch):
    monkeypatch.setattr(partials, "functools", Swapped(
        functools,
        reduce=lambda fn, seq: functools.reduce(fn, list(seq)[::-1]),
    ))
    must_fail(test_float_table_sums_apply_in_partition_order)
    must_fail(test_scalar_sums_do_not_wrap_and_keep_partition_order)


def test_a_side_swapped_owner_lookup_is_caught(monkeypatch):
    monkeypatch.setattr(partials, "np", Swapped(
        np,
        searchsorted=lambda a, v, side: np.searchsorted(
            a, v, side="left" if side == "right" else "right"),
    ))
    must_fail(test_a_start_belongs_to_the_partition_starting_there)


def test_a_dropped_count_floor_is_caught(monkeypatch):
    monkeypatch.setattr(partials, "np", Swapped(
        np, maximum=lambda counts, one: counts))
    must_fail(test_avg_of_a_group_nobody_saw_is_zero)
