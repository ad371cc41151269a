"""Shared fixtures for the observability suite (PR 9).

TPC-H data is generated once per session and shared read-only; every
test gets a fresh :class:`~repro.api.Database` so plan caches, metric
registries and breaker state never leak between tests.
"""

import numpy as np
import pytest

from repro.api import Database
from repro.tpch.dbgen import generate
from repro.tpch.schema import DICTIONARIES, TABLES

OBS_SF = 0.1


@pytest.fixture(autouse=True)
def _unforced_tracing(monkeypatch):
    """This suite exercises both trace modes through explicit specs and
    ``analyze=``; a global ``REPRO_TRACE`` (the CI knob-ab job)
    would force every connection and break the off-mode assertions."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


@pytest.fixture(scope="session")
def tpch_data():
    return generate(sf=OBS_SF, seed=7)


@pytest.fixture
def tpch_dbs(tpch_data):
    """A factory of fresh TPC-H databases over the session's shared
    columns (all closed at teardown)."""
    opened = []

    def make() -> Database:
        db = Database(data_scale=tpch_data.data_scale)
        for name, columns in tpch_data.tables.items():
            dictionaries = {}
            for column in TABLES[name].columns:
                if column.dictionary is not None:
                    dictionaries[column.name] = DICTIONARIES.get(
                        column.dictionary, []
                    )
            db.create_table(name, columns, dictionaries or None)
        opened.append(db)
        return db

    yield make
    for db in opened:
        db.close()


@pytest.fixture
def tpch_db(tpch_dbs):
    """A fresh TPC-H database."""
    return tpch_dbs()


@pytest.fixture
def points_db():
    """A small synthetic table, big enough to range-partition."""
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table("points", {
        "x": rng.integers(0, 8, 4000).astype(np.int32),
        "y": rng.random(4000).astype(np.float32),
    })
    yield db
    db.close()


@pytest.fixture(scope="session")
def assert_results_equal():
    def check(expected, got, context=""):
        assert got.n_rows == expected.n_rows, context
        assert list(got.columns) == list(expected.columns), context
        for col in expected.columns:
            np.testing.assert_allclose(
                got.columns[col].astype(np.float64),
                expected.columns[col].astype(np.float64),
                rtol=1e-5, atol=1e-9,
                err_msg=f"{context}: column {col!r}",
            )
    return check
