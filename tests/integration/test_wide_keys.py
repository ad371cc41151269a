"""Eight-byte keys run on MonetDB — on every Ocelot-family engine.

Ocelot's hash tables store and compare four-byte keys, but
``_encode_keys`` makes eight-byte keys of an int64 / float64 column: on
CPU, GPU, HET and SHARD over them a join on such a column silently
returned **no rows** and a ``GROUP BY`` raised ``TableFull`` — for any
eight-byte key, wide values or not.  The paper's own answer is mixed
execution (§3.2): the operator table says which operands an operator
hashes (:attr:`repro.monetdb.ops.Op.hashed`), and an eight-byte one
sends the operator to its MonetDB form — decided from the dtype alone,
and visible where placement is visible.
"""

import numpy as np
import pytest

import repro
from repro.monetdb import MALBuilder
from repro.monetdb.ops import OPS

SPECS = ("CPU", "GPU", "HET", "SHARD:2xCPU", "SHARD:2xHET")
JOIN = "SELECT a.x AS x, b.y AS y FROM a JOIN b ON a.k = b.k ORDER BY x"
QUERIES = {
    "join": JOIN,
    "group": "SELECT k, count(*) AS c FROM a GROUP BY k ORDER BY k",
    "subgroup": "SELECT k, f, sum(x) AS s FROM a GROUP BY k, f",
    "semijoin": "SELECT a.x AS x FROM a SEMI JOIN b ON a.k = b.k ORDER BY x",
    "antijoin": "SELECT a.x AS x FROM a ANTI JOIN b ON a.k = b.k ORDER BY x",
    "float_join": "SELECT a.x AS x, b.y AS y FROM a JOIN b ON a.f = b.f "
                  "ORDER BY x",
    # four-byte keys keep their device forms
    "narrow": "SELECT a.x AS x, b.y AS y FROM a JOIN b ON a.x = b.n "
              "ORDER BY x",
}


@pytest.fixture(scope="module")
def db():
    with repro.Database() as database:
        database.create_table("a", {
            "k": np.array([1, 2, 3, 5, 5], np.int64),
            "f": np.array([0.5, 1.5, 0.5, 2.5, -0.0], np.float64),
            "x": np.arange(5, dtype=np.int32),
        })
        database.create_table("b", {
            "k": np.array([1, 2, 5, 7], np.int64),
            "f": np.array([2.5, 0.0, 9.0, 0.5], np.float64),
            "n": np.array([4, 0, 9, 1], np.int32),
            "y": (np.arange(4) * 10).astype(np.int32),
        })
        yield database


def rows(result) -> list:
    return sorted(zip(*(column.tolist()
                        for column in result.columns.values())))


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("spec", SPECS)
def test_answers_as_ms_does(db, spec, query):
    expected = rows(db.connect("MS").execute(QUERIES[query]))
    assert expected and rows(db.connect(spec).execute(QUERIES[query])) \
        == expected


def test_the_table_says_which_operands_are_hashed():
    assert {row.function for row in OPS.values() if row.hashed} == {
        "join", "semijoin", "antijoin", "group", "subgroup", "hashbuild"}
    # sort encodes eight-byte keys and handles them: untouched
    assert not OPS["sort"].hashed


def test_hashbuild_over_an_eight_byte_column(db):
    builder = MALBuilder("q")
    program = builder.returns([("n", builder.emit(
        "algebra", "hashbuild", (builder.bind("a", "k"),)))])
    for spec in ("MS", "CPU", "HET"):
        result = db.connect(spec).run_plan(program)
        assert result.columns["n"].tolist() == [4], spec


def test_het_logs_the_decision_and_four_byte_keys_stay_on_the_devices(db):
    con = db.connect("HET")
    con.execute(QUERIES["join"])
    assert ("join", "monetdb") in con.backend.decision_log
    con.execute(QUERIES["narrow"])
    log = con.backend.decision_log
    assert "join" in dict(log) and "monetdb" not in dict(log).values()


@pytest.mark.parametrize("spec", SPECS)
def test_explain_analyze_shows_monetdb_ran_it(db, spec):
    profile = db.connect(spec).explain(JOIN, analyze=True)
    row = next(line for line in profile.splitlines()
               if line.startswith("ocelot.join"))
    assert "MonetDB" in row, profile
    narrow = db.connect(spec).explain(QUERIES["narrow"], analyze=True)
    assert "MonetDB" not in next(line for line in narrow.splitlines()
                                 if line.startswith("ocelot.join"))


def test_decided_from_the_dtype_alone_no_launch(db):
    """The eight-byte join launches nothing for the join itself: what
    the query launches is what its sort and projections launch."""
    con = db.connect("CPU")

    def launches(sql):
        queue = con.backend.engine.queue
        before = queue.stats.kernels_launched
        con.execute(sql)
        return queue.stats.kernels_launched - before

    for warm in ("join", "narrow"):
        con.execute(QUERIES[warm])
    assert launches(QUERIES["join"]) < launches(QUERIES["narrow"])
