"""A constant has the type of the *result*, not of the column it meets.

``ewise_scalar`` cast its scalar to the input column's dtype, so an
int32 column times ``0.5`` was the column times ``int32(0.5) == 0``:
``SELECT sum(a * 0.5)`` answered 0.0 on every Ocelot engine at default
knobs — silently, since ``1 - l_discount`` and every other TPC-H
constant is float ∘ int.  With fusion on, a chain of two such operators
runs as one generated kernel that never had the bug, which is why both
settings are pinned.
"""

import numpy as np
import pytest

import repro

ENGINES = ("CPU", "GPU", "HET", "SHARD:2xCPU")
QUERIES = {
    # wrong at the parent commit
    "times a half": "SELECT sum(a * 0.5) AS s FROM t",
    "plus": "SELECT sum(a + 2.5) AS s FROM t",
    "minus, filtered": "SELECT sum(a - 0.25) AS s FROM t WHERE b < 10",
    "constant minus": "SELECT sum(1.5 - a) AS s FROM t",
    "a chain (unfused)": "SELECT sum((a + 0.5) * 0.5) AS s FROM t",
    # right at the parent commit, and still
    "wider int": "SELECT sum(a * 100000) AS s FROM t",
    "float column": "SELECT sum(f * 3) AS s FROM t",
}


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(0)
    with repro.Database() as database:
        database.create_table("t", {
            "a": rng.integers(0, 100, 1000).astype(np.int32),
            "b": rng.integers(0, 100, 1000).astype(np.int32),
            "f": rng.normal(size=1000).astype(np.float32),
        })
        yield database


@pytest.mark.parametrize("fusion", ("", ":fusion=off"))
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_answers_as_monetdb_does(db, engine, query, fusion):
    expected = db.connect("MS").execute(QUERIES[query]).columns["s"]
    got = db.connect(engine + fusion).execute(QUERIES[query]).columns["s"]
    assert got.dtype == expected.dtype
    assert np.allclose(got, expected, rtol=1e-6), (got, expected)
