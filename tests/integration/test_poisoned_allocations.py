"""Nothing reads what it did not write: answers under poisoned buffers.

A device buffer from ``Context.empty`` is uninitialised memory.  The
hash tables' value column, the radix ladder's first payload, the write
offsets of a bitmap materialisation and the outputs of the decoding
gathers are allocated that way and *not* initialised by any launch — a
value is defined only where a kernel wrote it.  The fixture makes the
uninitialised bytes hostile (``0x7FFFFFFF`` / NaN instead of whatever
numpy's allocator left, which is usually zero); every answer must be
exactly the unpoisoned one.  This is the permanent guard for the
launches that no longer exist (``fill(tvals, 0)``, the ``iota``s), where
a regenerated golden is not.

(The first slice of ROADMAP item 1 (c); test-only.)
"""

import os

import numpy as np
import pytest

import repro
from repro.cl.context import Context
from repro.ocelot.engine import OcelotEngine
from repro.tpch import WORKLOAD

ENGINES = ("CPU", "GPU")
ROWS = 40_000      # past both devices' local memory: the radix ladder


def poison_for(dtype: np.dtype):
    if dtype.kind == "f":
        return np.nan
    return 0x7FFFFFFF >> (8 * max(0, 4 - dtype.itemsize))


@pytest.fixture
def poisoned(monkeypatch):
    """``Context.empty`` hands out buffers full of poison."""
    def empty(self, shape, dtype, tag=""):
        dtype = np.dtype(dtype)
        return self.create_buffer(
            np.full(shape, poison_for(dtype), dtype=dtype), tag=tag)

    monkeypatch.setattr(Context, "empty", empty)


@pytest.fixture
def launched(monkeypatch):
    """Names of the kernels launched while the test runs."""
    names = []
    launch = OcelotEngine.launch

    def recording(self, kernel_name, *args, **kwargs):
        names.append(kernel_name)
        return launch(self, kernel_name, *args, **kwargs)

    monkeypatch.setattr(OcelotEngine, "launch", recording)
    return names


def same(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and np.array_equal(
            a[k], b[k], equal_nan=a[k].dtype.kind == "f") for k in a)


# -- operator paths -----------------------------------------------------------

def tables() -> dict:
    rng = np.random.default_rng(22)
    return {
        "fact": {
            "id": np.arange(ROWS, dtype=np.int32),
            "k": rng.integers(0, 300, ROWS).astype(np.int32),
            "j": rng.integers(0, 7, ROWS).astype(np.int32),
            # FOR: a narrow spread on a frame beyond the code's width
            "d": (rng.integers(0, 60_000, ROWS) + 19_940_101
                  ).astype(np.int32),
            # dict: a few distinct floats
            "p": rng.choice(np.array([0.5, 1.25, 7.0, 99.5], np.float32),
                            ROWS),
            "v": rng.normal(0, 100, ROWS).astype(np.float32),
        },
        "dim": {      # a key build side; misses on both sides
            "k": (np.arange(250, dtype=np.int32) * 2),
            "w": rng.integers(-50, 50, 250).astype(np.int32),
        },
        "dup": {      # a build side with runs
            "k": rng.integers(0, 400, 900).astype(np.int32),
            "u": np.arange(900, dtype=np.int32),
        },
    }


QUERIES = {
    "group": "SELECT k, count(*) AS c, sum(v) AS s FROM fact GROUP BY k "
             "ORDER BY k",
    "subgroup": "SELECT k, j, count(*) AS c, min(v) AS lo FROM fact "
                "GROUP BY k, j",
    "join, unique build": "SELECT fact.id AS id, dim.w AS w FROM fact "
                          "JOIN dim ON fact.k = dim.k ORDER BY id",
    "join, build with runs": "SELECT fact.id AS id, dup.u AS u FROM fact "
                             "JOIN dup ON fact.k = dup.k WHERE fact.id < 900",
    "semijoin": "SELECT fact.id AS id FROM fact SEMI JOIN dim "
                "ON fact.k = dim.k ORDER BY id",
    "antijoin": "SELECT fact.id AS id FROM fact ANTI JOIN dup "
                "ON fact.k = dup.k ORDER BY id",
    "FOR and dict projection": "SELECT id, d, p FROM fact WHERE v > 150 "
                               "ORDER BY id",
    "sort, the ladder": "SELECT id, v FROM fact ORDER BY v DESC",
    "sort, one launch": "SELECT id, v FROM fact WHERE id < 100 ORDER BY v",
    "selection only": "SELECT id FROM fact WHERE v < -250",
}


def answers(engine: str) -> dict:
    with repro.Database() as db:
        for name, columns in tables().items():
            db.create_table(name, columns)
        con = db.connect(engine)
        return {name: con.execute(sql).columns
                for name, sql in QUERIES.items()}


@pytest.fixture(scope="module")
def clean():
    return {engine: answers(engine) for engine in ENGINES}


@pytest.mark.parametrize("engine", ENGINES)
def test_operator_paths_answer_as_unpoisoned(engine, clean, poisoned,
                                             launched):
    got = answers(engine)
    wrong = [name for name in QUERIES
             if not same(got[name], clean[engine][name])]
    assert not wrong, wrong
    # the paths that stopped initialising really ran
    expected = {"ht_insert_optimistic", "ht_insert_pessimistic", "ht_probe",
                "bitmap_offsets", "radix_reorder_first", "local_sort",
                "gather2", "join_expand"}
    if os.environ.get("REPRO_COMPRESSION") != "off":
        expected.add("gather_add")
    assert expected <= set(launched), expected - set(launched)


def test_the_fixture_bites(poisoned):
    """Fresh scratch of every width holds the poison, not zeros."""
    from repro.monetdb import Catalog

    engine = OcelotEngine(Catalog(), "cpu")
    with engine.memory.operator_scope():
        table = engine.temp(16, np.uint32)
        assert (table.array == 0x7FFFFFFF).all()
        assert np.isnan(engine.temp(4, np.float32).array).all()
        assert (engine.temp(4, np.uint8).array == 0x7F).all()


# -- whole queries ------------------------------------------------------------

def tpch_answers(engine: str) -> dict:
    con = repro.tpch_database(sf=0.1).connect(engine)
    return {name: con.execute(sql, name=name).columns
            for name, sql in WORKLOAD.items()}


@pytest.fixture(scope="module")
def tpch_clean():
    return {engine: tpch_answers(engine) for engine in ENGINES}


@pytest.mark.parametrize("engine", ENGINES)
def test_tpch_answers_as_unpoisoned(engine, tpch_clean, poisoned):
    got = tpch_answers(engine)
    wrong = [name for name in WORKLOAD
             if not same(got[name], tpch_clean[engine][name])]
    assert not wrong, wrong
