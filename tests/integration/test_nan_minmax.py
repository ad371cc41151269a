"""A NaN is the ``min`` and the ``max`` — whoever merges the partials.

The whole-column operators propagate a NaN (MS reduces with numpy,
Ocelot's work-groups fold with ``np.minimum``); the scalar merge of the
partitioned executors folded with Python's ``min`` / ``max``, whose
answer once a NaN is among the operands depends on their order.  So the
same statement answered ``0 / 199999`` or ``nan / nan`` by whether the
``morsel`` knob cut the column, and by which shard held the NaN.  The
one fold (:func:`repro.monetdb.partials.fold_scalars`) now agrees with
the whole column; this pins it at every executor that merges.
"""

import numpy as np
import pytest

import repro
from repro.engines import KNOBS
from repro.monetdb.backends import MonetDBSequential
from repro.sched import HeterogeneousBackend
from repro.sched.partition import execute_split
from test_sqlite_oracle import SMALL_MORSELS, SPECS as ORACLE_SPECS

#: three default morsels; the NaN sits in the last one, on the last shard
ROWS = 3 * KNOBS["morsel"].default - 1000
NAN_AT = ROWS - 5000
SPECS = [spec for spec in ORACLE_SPECS if SMALL_MORSELS not in spec]
QUERIES = {
    # the WHERE keeps the aggregate inside a ``morsel.run`` region
    "filtered": "SELECT min(v) AS a, max(v) AS b FROM t WHERE k < 5",
    "unfiltered": "SELECT min(v) AS a, max(v) AS b FROM t",
}
GROUPED = "SELECT k, min(v) AS a, max(v) AS b FROM t WHERE k < 5 GROUP BY k"


def table() -> dict:
    v = np.arange(ROWS, dtype=np.float32)
    v[NAN_AT] = np.nan
    return {"v": v, "k": (np.arange(ROWS) % 3).astype(np.int32)}


@pytest.fixture(scope="module")
def db():
    with repro.Database() as database:
        database.create_table("t", table())
        yield database


@pytest.mark.parametrize("morsel", ("", ":morsel=off"))
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("spec", SPECS)
def test_scalar_min_and_max_propagate_a_nan(db, spec, query, morsel):
    result = db.connect(spec + morsel).execute(QUERIES[query])
    assert np.isnan(result.columns["a"]).all(), result.columns
    assert np.isnan(result.columns["b"]).all(), result.columns


@pytest.mark.parametrize("morsel", ("", ":morsel=off"))
@pytest.mark.parametrize("spec", SPECS)
def test_grouped_min_and_max_agree_already(db, spec, morsel):
    """Tables fold with ``np.minimum`` / ``np.maximum``, which propagate:
    the group holding the NaN answers NaN, the others their extremes."""
    result = db.connect(spec + morsel).execute(GROUPED)
    order = np.argsort(result.columns["k"])
    columns = table()
    groups = [columns["v"][columns["k"] == k] for k in range(3)]
    np.testing.assert_array_equal(result.columns["a"][order],
                                  [np.min(group) for group in groups])
    np.testing.assert_array_equal(result.columns["b"][order],
                                  [np.max(group) for group in groups])
    assert np.isnan(result.columns["a"]).sum() == 1


@pytest.mark.parametrize("agg", ("submin", "submax"))
def test_a_forced_device_split_propagates_it_too(db, agg):
    """The device merger, driven directly (the placer never splits a
    scalar aggregate; grouped ones fold their tables)."""
    backend = HeterogeneousBackend(db.catalog)
    try:
        args = (db.catalog.bat("t", "v"), db.catalog.bat("t", "k"), 3)
        merged = execute_split(backend.pool, agg, args,
                               [(0, 0, ROWS // 2), (1, ROWS // 2, ROWS)])
        whole = MonetDBSequential(db.catalog).resolve(f"aggr.{agg}")(*args)
        np.testing.assert_array_equal(merged.values, whole.values)
        assert np.isnan(merged.values).sum() == 1
    finally:
        backend.shutdown()
