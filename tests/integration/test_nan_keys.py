"""A NaN group key is one group, on every engine and at every cut.

Every engine's own ``group`` puts the NaNs of a float column in one
group, sorted last — so MS, CPU, GPU and HET agree over a whole column.
The partitioned executors (morsels, shards) merge partition-local groups
by key in :func:`repro.monetdb.partials.distinct_rows`, which compared
keys with ``!=`` alone: every partition's NaN group stayed its own, the
morsel merge then refused the query (``RuntimeError: morsel group
merge: 14 distinct keys but the replay produced 11 groups`` — at default
knobs once a table spans three morsels) and SHARD answered with one NaN
row per shard.  The reference is MS with morsels off: one ``group`` over
the whole column, no merge at all.

The matrix is the sqlite oracle's derived one (``test_one_price.py``'s
shapes and the small-morsel leaves), every shape also with morsels small
enough to cut the table and with morsels off, plus the shard shapes the
issue's probes name.  The engines run under whatever ``REPRO_*``
environment the process has (CI's knob A/B cells: morsel off moves the
merge to another executor, compression off groups raw floats instead of
dictionary codes).
"""

import numpy as np
import pytest

import repro
from repro.engines import KNOBS
from test_sqlite_oracle import SMALL_MORSELS, SPECS as ORACLE_SPECS

pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

SHAPES = [spec for spec in ORACLE_SPECS if SMALL_MORSELS not in spec] \
    + ["SHARD:4xMS", "SHARD:2xGPU"]
MORSELS = ("", f":{SMALL_MORSELS}", ":morsel=off")
QUERIES = {
    # the WHERE keeps the grouping inside a ``morsel.run`` region
    "filtered": "SELECT k, sum(v) AS s FROM t WHERE w < 50 GROUP BY k",
    "unfiltered": "SELECT k, sum(v) AS s FROM t GROUP BY k",
    "two keys": "SELECT g, k, sum(v) AS s, count(*) AS n FROM t "
                "WHERE w < 50 GROUP BY g, k",
    "nan first": "SELECT k, g, min(w) AS lo FROM t GROUP BY k, g",
}
#: three default morsels: the default-knob failure needs no small morsel
BIG = 3 * KNOBS["morsel"].default + 3392


def table(n: int) -> dict:
    rng = np.random.default_rng(24)
    k = rng.normal(size=n).astype(np.float32).round(0)
    k[::7] = np.nan
    return {
        "k": k, "v": np.ones(n, dtype=np.int32),
        "w": rng.integers(0, 100, n).astype(np.int32),
        "g": rng.integers(0, 3, n).astype(np.int32),
    }


@pytest.fixture(scope="module")
def small():
    with repro.Database() as database:
        database.create_table("t", table(1000))
        yield database


@pytest.fixture(scope="module")
def big():
    with repro.Database() as database:
        database.create_table("t", table(BIG))
        yield database


def assert_answers_as_ms(db, spec, sql):
    want = db.connect("MS:morsel=off").execute(sql)
    got = db.connect(spec).execute(sql)
    assert list(got.columns) == list(want.columns)
    for name, expected in want.columns.items():
        # assert_array_equal: a NaN equals a NaN, positions included
        np.testing.assert_array_equal(got.columns[name], expected,
                                      err_msg=f"{spec}: {name}")


def test_the_reference_has_one_nan_group(small):
    result = small.connect("MS:morsel=off").execute(QUERIES["unfiltered"])
    keys = result.column("k")
    assert np.isnan(keys[-1]) and not np.isnan(keys[:-1]).any()
    assert result.column("s")[-1] == 143        # rows 0, 7, ..., 994
    assert np.array_equal(keys[:-1], np.sort(keys[:-1]))


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("morsel", MORSELS)
@pytest.mark.parametrize("shape", SHAPES)
def test_nan_keys_group_as_on_ms(small, shape, morsel, query):
    assert_answers_as_ms(small, shape + morsel, QUERIES[query])


@pytest.mark.parametrize("spec", ("MS", "MP", "CPU", "GPU", "HET",
                                  "SHARD:2xCPU"))
def test_default_knobs_over_three_morsels(big, spec):
    """The issue's first probe: no knob, public API, 200 000 rows."""
    assert_answers_as_ms(big, spec, QUERIES["filtered"])
