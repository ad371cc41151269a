"""Auto-parameterisation properties (hypothesis).

The front door normalises literals into bind parameters before the
plan-cache lookup (:mod:`repro.sql.params`).  Three contracts:

* **literal variants collapse** — any set of literal variations of one
  query shape shares a single template, a single cache entry, and N-1
  cache hits — as long as no two literals of one statement are equal:
  placeholders are numbered by value (see ``parameterise``), so a
  statement whose literals coincide is a template of its own;
* **shapes never collide** — structurally different statements always
  produce different templates (no false sharing);
* **binding is exact** — executing through the parameterised + bound
  template returns exactly what compiling the literal SQL directly
  returns, on every TPC-H workload query.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.api import Database
from repro.sql.lower import compile_sql
from repro.sql.params import parameterise
from repro.tpch.queries import WORKLOAD

N_ROWS = 1 << 12


def _database(ngroups: int = 8) -> Database:
    rng = np.random.default_rng(47)
    db = Database()
    db.create_table("t", {
        "v": rng.integers(0, 1 << 30, N_ROWS).astype(np.int32),
        "g": rng.integers(0, ngroups, N_ROWS).astype(np.int32),
    })
    return db


def _compare(expected, got, context=""):
    assert set(expected.columns) == set(got.columns), context
    for col in expected.columns:
        assert np.allclose(
            expected.columns[col].astype(np.float64),
            got.columns[col].astype(np.float64),
            rtol=1e-5, atol=1e-9,
        ), (context, col)


@given(
    # drawn apart from ``threshold``: equal literals share a placeholder
    literals=st.lists(st.integers(64, 1 << 30), min_size=2, max_size=8,
                      unique=True),
    threshold=st.integers(1, 63),
)
# the documented cost of numbering by value: ``v <= 1 AND g < 1`` is
# ``?0i … ?0i``, ``v <= 0 AND g < 1`` is ``?0i … ?1i`` — two templates
@example(literals=[0, 1], threshold=1)
@settings(max_examples=10, deadline=None)
def test_literal_variants_share_one_cache_entry(literals, threshold):
    templates = {
        parameterise(
            f"SELECT g, sum(v) AS s FROM t "
            f"WHERE v <= {lit} AND g < {threshold} GROUP BY g"
        )[0]
        for lit in literals
    }
    shapes = len({lit == threshold for lit in literals})
    assert len(templates) == shapes
    db = _database(64)
    con = db.connect("MS")
    for lit in literals:
        sql = (f"SELECT g, sum(v) AS s FROM t "
               f"WHERE v <= {lit} AND g < {threshold} GROUP BY g")
        cached = con.execute(sql)
        fresh = con.run_plan(compile_sql(sql, db.schema))
        _compare(fresh, cached, lit)
    assert len(db.plan_cache) == shapes
    assert db.plan_cache.stats.misses == shapes
    assert db.plan_cache.stats.hits == len(literals) - shapes


_AGGS = ("sum(v)", "min(v)", "max(v)", "count(*)", "avg(v)")
_SHAPES = st.tuples(
    st.integers(0, len(_AGGS) - 1),   # aggregate
    st.booleans(),                    # WHERE clause?
    st.booleans(),                    # GROUP BY?
)


def _statement(shape, literal: int) -> str:
    agg, filtered, grouped = shape
    sql = f"SELECT {'g, ' if grouped else ''}{_AGGS[agg]} AS s FROM t"
    if filtered:
        sql += f" WHERE v <= {literal}"
    if grouped:
        sql += " GROUP BY g"
    return sql


@given(
    a=_SHAPES, b=_SHAPES,
    lit_a=st.integers(0, 1 << 30), lit_b=st.integers(0, 1 << 30),
)
@settings(max_examples=30, deadline=None)
def test_structurally_different_statements_never_collide(
    a, b, lit_a, lit_b
):
    template_a = parameterise(_statement(a, lit_a))[0]
    template_b = parameterise(_statement(b, lit_b))[0]
    if a == b:
        assert template_a == template_b
    else:
        assert template_a != template_b


def test_every_distinct_shape_gets_its_own_entry():
    """End-to-end collision check: executing one literal variant of
    every shape fills the cache with exactly one entry per shape."""
    db = _database()
    con = db.connect("MS")
    shapes = [(agg, filtered, grouped)
              for agg in range(len(_AGGS))
              for filtered in (False, True)
              for grouped in (False, True)]
    for i, shape in enumerate(shapes):
        # literals near mid-range keep every filter non-empty (min/max
        # over an empty selection is an error, not a value)
        con.execute(_statement(shape, literal=(1 << 29) + i))
    assert len(db.plan_cache) == len(shapes)
    assert db.plan_cache.stats.hits == 0


class TestTPCHBinding:
    """Bound execution is indistinguishable from direct execution on
    the full paper workload."""

    @pytest.fixture(scope="class")
    def tpch(self):
        db = repro.tpch_database(sf=0.2)
        yield db
        db.close()

    @pytest.mark.parametrize("qid", sorted(WORKLOAD))
    def test_bound_equals_direct(self, tpch, qid):
        sql = WORKLOAD[qid]
        con = tpch.connect("MS")
        bound = con.execute(sql)       # parameterised template + bind
        direct = con.run_plan(compile_sql(sql, tpch.schema))
        _compare(direct, bound, qid)
