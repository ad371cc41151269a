"""``±inf`` survives a partitioned min/max.

Every executor that cuts a column and merges partials — work-groups
inside a kernel, devices, morsels, shards — starts a ``min`` / ``max``
fold from :func:`repro.kernels.fold_identity`.  While that was the
dtype's *finite* extreme (four copies, one of them right), a group whose
values really are all ``+inf`` came back as ``3.4028235e+38`` from any
partition that held none of its rows: ``k`` is sorted here, so on every
engine some work-group's chunk, device share or shard misses a group
entirely.  MS (one partition) is the reference.
"""

import numpy as np
import pytest

import repro
from repro.monetdb.backends import MonetDBSequential
from repro.sched import HeterogeneousBackend
from repro.sched.partition import execute_split

ROWS = 600
SPECS = ("CPU", "GPU", "HET", "SHARD:2xMS", "SHARD:2xCPU",
         "SHARD:3xCPU:replicas=2")
QUERIES = {
    "grouped": "SELECT k, min(v) AS lo, max(w) AS hi FROM t GROUP BY k",
    "ungrouped": "SELECT min(v) AS lo, max(w) AS hi FROM t",
    # fewer rows than work-groups: some chunks of the reduction are empty
    "few_lo": "SELECT min(v) AS lo FROM t WHERE f BETWEEN 200 AND 201",
    "few_hi": "SELECT max(w) AS hi FROM t WHERE f BETWEEN 400 AND 401",
}
#: the WHERE keeps the aggregate inside a ``morsel.run`` region (the
#: unfiltered statement compiles to ``compress.sub*`` outside any)
FILTERED = ("SELECT k, min(v) AS lo, max(w) AS hi FROM t WHERE f >= 0 "
            "GROUP BY k")


def table() -> dict:
    rng = np.random.default_rng(5)
    k = np.repeat(np.arange(3, dtype=np.int32), ROWS // 3)
    v = rng.random(ROWS).astype(np.float32)
    w = rng.random(ROWS).astype(np.float32)
    v[k == 1] = np.inf
    w[k == 2] = -np.inf
    return {"k": k, "v": v, "w": w, "f": np.arange(ROWS, dtype=np.int32)}


@pytest.fixture(scope="module")
def db():
    with repro.Database() as database:
        database.create_table("t", table())
        yield database


def assert_equals_ms(db, spec, sql):
    expected = db.connect("MS").execute(sql)
    got = db.connect(spec).execute(sql)
    assert list(got.columns) == list(expected.columns)
    for name, values in expected.columns.items():
        np.testing.assert_array_equal(got.columns[name], values,
                                      err_msg=f"{spec}: {name}")
    return expected


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("spec", SPECS)
def test_infinities_survive_the_merge(db, spec, query):
    expected = assert_equals_ms(db, spec, QUERIES[query])
    if query == "grouped":
        assert expected.columns["lo"][1] == np.inf
        assert expected.columns["hi"][2] == -np.inf


def test_inside_a_morsel_region(db, monkeypatch):
    monkeypatch.delenv("REPRO_MORSEL", raising=False)
    spec = "CPU:morsel=100"
    plan = db.connect(spec).explain(FILTERED)
    region = next(line for line in plan.splitlines() if "morsel.run" in line)
    assert "100 rows/morsel" in region
    assert "ocelot.submin" in region and "ocelot.submax" in region
    expected = assert_equals_ms(db, spec, FILTERED)
    assert expected.columns["lo"][1] == np.inf
    assert expected.columns["hi"][2] == -np.inf


@pytest.mark.parametrize("agg, column", [("submin", "v"), ("submax", "w")])
def test_forced_half_half_device_split(db, agg, column):
    """The device merger, driven directly: each half misses a group."""
    backend = HeterogeneousBackend(db.catalog)
    try:
        args = (db.catalog.bat("t", column), db.catalog.bat("t", "k"), 3)
        merged = execute_split(
            backend.pool, agg, args,
            [(0, 0, ROWS // 2), (1, ROWS // 2, ROWS)],
        )
        expected = MonetDBSequential(db.catalog).resolve(f"aggr.{agg}")(*args)
        np.testing.assert_array_equal(merged.values, expected.values)
        assert np.isinf(merged.values).sum() == 1
    finally:
        backend.shutdown()
