"""Morsel A/B safety net: TPC-H returns identical results with the
morsel pass on and off.  A fast subset runs in every tier-1 pass; the
full 14-query x six-family matrix is the slow sweep (and the CI
``knob-ab`` job runs the whole correctness suite with
``REPRO_MORSEL=off``, exercising the whole-column path end to end)."""

import numpy as np
import pytest

import repro
from repro.tpch import WORKLOAD

FAMILIES = ("MS", "MP", "CPU", "GPU", "HET", "SHARD:2xMS")

FAST_ENGINES = ("MS", "CPU", "SHARD:2xMS")
FAST_QUERIES = ("Q1", "Q3", "Q6")


@pytest.fixture(autouse=True)
def _morsel_gate_neutral(monkeypatch):
    """The A/B picks its switch per spec; neutralise the global gate so
    the on-side stays morselized under the CI REPRO_MORSEL=off run."""
    monkeypatch.delenv("REPRO_MORSEL", raising=False)


@pytest.fixture(scope="module")
def db():
    return repro.tpch_database(sf=0.2)


def _with_param(engine: str, param: str) -> str:
    return f"{engine},{param}" if ":" in engine else f"{engine}:{param}"


def _assert_equal(on, off, context):
    assert set(on.columns) == set(off.columns), context
    for column in on.columns:
        a, b = on.columns[column], off.columns[column]
        assert a.shape == b.shape, (context, column)
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            np.testing.assert_allclose(
                a.astype(np.float64), b.astype(np.float64),
                rtol=1e-4, atol=1e-6, err_msg=f"{context}:{column}",
            )
        else:
            np.testing.assert_array_equal(
                a, b, err_msg=f"{context}:{column}"
            )


def _run_pair(db, engine, query_id):
    on = db.connect(_with_param(engine, "morsel=1000")).execute(
        WORKLOAD[query_id], name=query_id
    )
    off = db.connect(_with_param(engine, "morsel=off")).execute(
        WORKLOAD[query_id], name=query_id
    )
    _assert_equal(on, off, f"{engine}/{query_id}")


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("query_id", FAST_QUERIES)
def test_morsel_on_off_fast_subset(db, engine, query_id):
    _run_pair(db, engine, query_id)


@pytest.mark.slow
@pytest.mark.parametrize("engine", FAMILIES)
@pytest.mark.parametrize("query_id", list(WORKLOAD))
def test_morsel_on_off_full_matrix(db, engine, query_id):
    _run_pair(db, engine, query_id)
