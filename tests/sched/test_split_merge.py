"""A device split answers as one device does.

``execute_split`` runs one operator per device share and merges every
output by kind through ``repro.monetdb.partials``.  Each operator class
here is split by hand — in halves, and unevenly with the GPU share
first — and compared with the same operator on one device's share of
the whole column: oid lists, value columns and grouped tables must
agree (floats to a tolerance, since a split sums in another order), as
must roles, tags and dtypes.  Then whole queries the placer splits by
itself.
"""

import numpy as np
import pytest

import repro
from repro.fuse.expr import FConst, FIn, FOp, FusedOutput, FusedPipe
from repro.monetdb import Catalog
from repro.monetdb.mal import Var
from repro.sched import HeterogeneousBackend
from repro.sched.partition import execute_split

ROWS = 40_000


@pytest.fixture
def catalog():
    rng = np.random.default_rng(23)
    cat = Catalog()
    cat.create_table("t", {
        "a": rng.integers(0, 1 << 30, ROWS).astype(np.int32),
        "b": rng.random(ROWS).astype(np.float32),
        "g": rng.integers(0, 64, ROWS).astype(np.int32),
    })
    return cat


def described(out):
    bats = out if isinstance(out, tuple) else (out,)
    return [(bat.tag, bat.role, str(bat.values.dtype), bat.values)
            for bat in bats]


def outcome(catalog, function, args, plan):
    """``(tag, role, dtype, values)`` per merged output of one forced
    split."""
    backend = HeterogeneousBackend(catalog)
    try:
        return described(execute_split(backend.pool, function, args, plan))
    finally:
        backend.shutdown()


def pipe(*exprs) -> FusedPipe:
    """A fused region over ``(a, b)`` with one value output per expr."""
    return FusedPipe(
        outputs=tuple(FusedOutput(f"X_{k}", expr)
                      for k, expr in enumerate(exprs)),
        inputs=(Var("X_a"), Var("X_b")),
    )


DISCOUNT = FOp("mul", (FIn(0), FOp("sub", (FConst(1), FIn(1)))))

PLANS = {
    "halves": [(0, 0, ROWS // 2), (1, ROWS // 2, ROWS)],
    "uneven": [(1, 0, 1000), (0, 1000, ROWS)],
}
#: one device's share of the whole column: the reference
WHOLE = [(0, 0, ROWS)]


class TestForcedSplit:
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("function, build", [
        ("thetaselect", lambda t: (t("a"), None, 1 << 29, "<")),
        ("thetaselect", lambda t: (t("a"), None, -1, "<")),   # no hit
        ("select", lambda t: (t("b"), None, 0.25, 0.5, True, False, False)),
        ("mul", lambda t: (t("b"), t("b"))),
        ("add", lambda t: (t("a"), 7)),
        ("subsum", lambda t: (t("b"), t("g"), 64)),
        ("subsum", lambda t: (t("a"), t("g"), 64)),
        ("submin", lambda t: (t("b"), t("g"), 64)),
        ("submax", lambda t: (t("a"), t("g"), 64)),
        ("subcount", lambda t: (t("g"), 64)),
        ("subavg", lambda t: (t("b"), t("g"), 64)),
        ("subavg", lambda t: (t("a"), t("g"), 64)),
        ("pipe", lambda t: (pipe(DISCOUNT), t("a"), t("b"))),
        ("pipe", lambda t: (pipe(DISCOUNT, FOp("add", (FIn(0), FIn(1))),
                                 FOp("gt", (FIn(1), FConst(0.5)))),
                            t("a"), t("b"))),
    ])
    def test_forced_split(self, catalog, function, build, plan):
        args = build(lambda column: catalog.bat("t", column))
        split = outcome(catalog, function, args, PLANS[plan])
        whole = outcome(catalog, function, args, WHOLE)
        assert [meta[:3] for meta in split] == [meta[:3] for meta in whole]
        for (*_meta, got), (*_same, want) in zip(split, whole):
            if got.dtype.kind == "f":
                np.testing.assert_allclose(got, want, rtol=1e-5)
            else:
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("sql", [
    "SELECT g, sum(b * 2) AS s, avg(b) AS m, count(*) AS n FROM t "
    "WHERE a > 100 GROUP BY g",
    "SELECT a * 2 AS x, b + 1 AS y FROM t WHERE b < 0.5",
])
def test_queries_the_placer_splits(monkeypatch, sql):
    """Whole queries on HET with the placer's own plans (columns that
    outgrow the simulated GPU, so the scan fans out): the one place a
    whole query splits, answering as MS does."""
    monkeypatch.delenv("REPRO_MORSEL", raising=False)
    rng = np.random.default_rng(3)
    rows = 200_000
    table = {
        "a": rng.integers(0, 1 << 20, rows).astype(np.int32),
        "b": rng.random(rows).astype(np.float32),
        "g": rng.integers(0, 16, rows).astype(np.int32),
    }
    with repro.Database(data_scale=2000) as db:
        db.create_table("t", table)
        con = db.connect("HET:morsel=off")
        got = con.execute(sql)
        assert any(where == "split"
                   for _function, where in con.backend.decision_log)
        expected = db.connect("MS").execute(sql)
    assert list(got.columns) == list(expected.columns)
    for name, values in expected.columns.items():
        assert got.columns[name].dtype == values.dtype, name
        np.testing.assert_allclose(got.columns[name], values, rtol=1e-5,
                                   err_msg=name)
