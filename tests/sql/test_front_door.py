"""Malformed SQL at the front door: a statement is parsed once, as
submitted, so every ``SQLSyntaxError`` names an offset into the text the
user sent, and a literal the parser cannot read is a syntax error there,
not an answer or a bare ``ValueError`` further in."""

import numpy as np
import pytest

from repro.api import Database
from repro.sql import SQLSyntaxError

ENGINES = ("MS", "CPU")

#: (statement, the text whose last occurrence its error's offset names)
MALFORMED = [
    ("SELECT sum(y) AS s FROM points WHERE x < 3 AND AND y > 2",
     "AND y > 2"),
    ("SELECT x, sum(y) AS s FROM points WHERE y > 1.5 GROUP x", "x"),
    ("SELECT sum(y) AS s FROM points WHERE x IN (1, 2, )", ")"),
    ("SELECT sum(y) AS s FROM points WHERE x < ?0i", "?0i"),
    ("SELECT sum(y) AS s FROM points WHERE x < DATE '1995-13-01'",
     "'1995-13-01'"),
    ("SELECT sum(y) AS s FROM points WHERE x < DATE '1995-02-29'",
     "'1995-02-29'"),
    ("SELECT sum(y) AS s FROM points WHERE x < DATE 'abc'", "'abc'"),
    ("SELECT sum(y) AS s FROM points "
     "WHERE x < DATE '1995-01-01' + INTERVAL 'one' DAY", "'1995-01-01'"),
    ("SELECT sum(y) AS s FROM points "
     "WHERE x < DATE '9999-12-31' + INTERVAL '1' DAY", "'9999-12-31'"),
    ("SELECT sum(y) AS s FROM points "
     "WHERE x < DATE '1995-01-01' + INTERVAL '1' WHERE", "WHERE"),
]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(5)
    database = Database()
    database.create_table("points", {
        "x": rng.integers(19940101, 19961231, 500).astype(np.int32),
        "y": rng.random(500).astype(np.float32),
    })
    return database


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql, at", MALFORMED)
def test_errors_point_into_the_submitted_text(db, engine, sql, at):
    with pytest.raises(SQLSyntaxError) as caught:
        db.connect(engine).execute(sql)
    assert str(caught.value).endswith(
        f"at offset {sql.rindex(at)}"), (str(caught.value), sql)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_calendar_date_still_answers(db, engine):
    """The leap day a year has, and the month fold across a year end."""
    x = db.catalog.bat("points", "x").values
    for sql, bound in (
        ("SELECT count(*) AS n FROM points WHERE x < DATE '1996-02-29'",
         19960229),
        ("SELECT count(*) AS n FROM points "
         "WHERE x < DATE '1994-12-15' + INTERVAL '1' MONTH", 19950114),
    ):
        got = db.connect(engine).execute(sql).column("n")
        assert int(got[0]) == int((x < bound).sum()), sql
