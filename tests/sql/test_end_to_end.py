"""SQL end-to-end: golden results against straight numpy, all 4 engines."""

import numpy as np
import pytest

from repro.api import Database

ENGINES = ("MS", "MP", "CPU", "GPU")


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(21)
    n = 8000
    database = Database()
    database.create_table(
        "orders",
        {
            "okey": np.arange(n, dtype=np.int32),
            "cust": rng.integers(0, 50, n).astype(np.int32),
            "price": rng.uniform(1, 1000, n).astype(np.float32),
            "status": rng.integers(0, 3, n).astype(np.int32),
            "odate": rng.integers(19940101, 19941231, n).astype(np.int32),
        },
        dictionaries={"status": ["open", "shipped", "returned"]},
    )
    database.create_table(
        "customers",
        {
            "ckey": np.arange(50, dtype=np.int32),
            "segment": rng.integers(0, 4, 50).astype(np.int32),
        },
    )
    return database


@pytest.fixture(scope="module")
def raw(db):
    orders = {k: db.catalog.bat("orders", k).values
              for k in db.catalog.columns("orders")}
    customers = {k: db.catalog.bat("customers", k).values
                 for k in db.catalog.columns("customers")}
    return orders, customers


def run_everywhere(db, sql):
    results = {}
    for engine in ENGINES:
        results[engine] = db.execute(sql, engine=engine)
    base = results["MS"]
    for engine in ENGINES[1:]:
        other = results[engine]
        for col in base.columns:
            a, b = base.columns[col], other.columns[col]
            assert a.shape == b.shape, (engine, col)
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                assert np.allclose(a.astype(np.float64),
                                   b.astype(np.float64),
                                   rtol=1e-5, atol=1e-8), (engine, col)
            else:
                assert np.array_equal(a, b), (engine, col)
    return base


def test_filtered_sum(db, raw):
    orders, _ = raw
    got = run_everywhere(
        db,
        "SELECT sum(price) AS total FROM orders "
        "WHERE status = 'returned' AND odate >= 19940601",
    )
    mask = (orders["status"] == 2) & (orders["odate"] >= 19940601)
    expected = orders["price"][mask].astype(np.float64).sum()
    assert got.columns["total"][0] == pytest.approx(expected, rel=1e-6)


def test_group_by_with_order(db, raw):
    orders, _ = raw
    got = run_everywhere(
        db,
        "SELECT cust, sum(price) AS total, count(*) AS n FROM orders "
        "GROUP BY cust ORDER BY total DESC",
    )
    sums = np.bincount(orders["cust"], weights=orders["price"],
                       minlength=50)
    counts = np.bincount(orders["cust"], minlength=50)
    order = np.argsort(-sums, kind="stable")
    assert np.allclose(got.columns["total"], sums[order], rtol=1e-6)
    assert np.array_equal(got.columns["n"], counts[order])
    assert np.array_equal(got.columns["cust"], order.astype(np.int32))


def test_join_with_group(db, raw):
    orders, customers = raw
    got = run_everywhere(
        db,
        "SELECT segment, sum(price) AS rev FROM orders "
        "JOIN customers ON cust = ckey GROUP BY segment ORDER BY segment",
    )
    seg_of_order = customers["segment"][orders["cust"]]
    expected = np.bincount(seg_of_order, weights=orders["price"],
                           minlength=4)
    assert np.allclose(got.columns["rev"], expected, rtol=1e-6)


def test_case_when_aggregation(db, raw):
    orders, _ = raw
    got = run_everywhere(
        db,
        "SELECT sum(CASE WHEN status = 'open' THEN price ELSE 0 END) "
        "AS open_rev, sum(price) AS rev FROM orders",
    )
    mask = orders["status"] == 0
    assert got.columns["open_rev"][0] == pytest.approx(
        orders["price"][mask].astype(np.float64).sum(), rel=1e-6
    )


def test_semi_join(db, raw):
    orders, customers = raw
    got = run_everywhere(
        db,
        "SELECT count(*) AS n FROM orders SEMI JOIN "
        "(SELECT ckey FROM customers WHERE segment = 2) s2 "
        "ON cust = s2.ckey",
    )
    wanted = customers["ckey"][customers["segment"] == 2]
    expected = int(np.isin(orders["cust"], wanted).sum())
    assert got.columns["n"][0] == expected


def test_scalar_subquery_filter(db, raw):
    orders, _ = raw
    got = run_everywhere(
        db,
        "SELECT okey FROM orders WHERE price = "
        "(SELECT max(price) FROM orders)",
    )
    expected = orders["okey"][orders["price"] == orders["price"].max()]
    assert np.array_equal(got.columns["okey"], expected)


def test_year_extraction_grouping(db, raw):
    orders, _ = raw
    got = run_everywhere(
        db,
        "SELECT EXTRACT(YEAR FROM odate) AS y, count(*) AS n FROM orders "
        "GROUP BY EXTRACT(YEAR FROM odate) ORDER BY y",
    )
    years = orders["odate"] // 10000
    uniq = np.unique(years)
    assert np.array_equal(got.columns["y"], uniq)
    assert np.array_equal(
        got.columns["n"],
        [int((years == y).sum()) for y in uniq],
    )


def test_grouping_by_an_expression_with_a_literal(db, raw):
    """SELECT and GROUP BY expressions are matched structurally, so the
    two ``1`` s must become the *same* bind parameter: ``parameterise``
    numbers placeholders by value, not by position (positional
    numbering makes this ``BindError: expression Column('cust') is
    neither a group key nor an aggregate``).  The second text shares
    the template and shows the bound value reaches both sites."""
    orders, _ = raw
    for shift in (1, 7):
        got = run_everywhere(
            db,
            f"SELECT cust + {shift} AS x, sum(okey) AS s FROM orders "
            f"GROUP BY cust + {shift} ORDER BY x",
        )
        keys = np.unique(orders["cust"])
        assert np.array_equal(got.columns["x"], keys + shift)
        assert np.array_equal(
            got.columns["s"],
            [int(orders["okey"][orders["cust"] == k].sum()) for k in keys],
        )


def test_explain_shows_rewritten_plan(db):
    connection = db.connect("GPU")
    sql = "SELECT sum(price) AS p FROM orders WHERE price >= 0.0"
    text = connection.explain(sql)
    assert "ocelot." in text
    # the base-column selection takes the compressed-execution form
    assert "compress." in text
    ms_text = db.connect("MS").explain(sql)
    assert "ocelot." not in ms_text
    off = db.connect("GPU:compression=off").explain(sql)
    assert "compress." not in off


def test_unknown_engine_rejected(db):
    with pytest.raises(ValueError):
        db.connect("TPU")
