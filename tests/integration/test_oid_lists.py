"""Two oid lists combine on MonetDB — on every Ocelot-family engine.

Ocelot combines selection results as bitmaps (paper §4.1.1), so its
``oidunion`` / ``oidintersect`` needs a bitmap operand.  Two oid lists —
two ``bat.mirror``s, merged fan-out selections, the positions a morsel
region emits — are host work: the Ocelot engines' one hand-back rule
(``MixedExecutionBackend._hand_back``) runs the combination's MonetDB
form, where single-device CPU and GPU raised ``TypeError`` on a plan MS
and HET answered.  Beside ``test_wide_keys.py``, the rule's other cases.

The morsel pass no longer knows about it: a region whose positions
escape into an oid combination outside it stays a region on every
engine (the pass used to drop it for the Ocelot vocabulary).

SHARD combines two oid lists shard by shard, which is right only while
both are shard-local.  An ``algebra.firstn`` output is valued in the
gathered layout; a combination that meets one gathers its other
operand and runs replicated (``ShardedBackend._fan_oidcombine``) —
it used to pair gathered oids with each shard's local positions and
answer too many rows, or raise ``IndexError``.
"""

import numpy as np
import pytest

import repro
from repro.monetdb import MALBuilder
from repro.obs import Tracer, render_profile
from repro.serve.plancache import CachedPlan

SPECS = ("CPU", "GPU", "HET", "SHARD:2xCPU")
COMBINATIONS = ("oidunion", "oidintersect")


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(32)
    with repro.Database() as database:
        database.create_table("t", {
            "a": rng.integers(0, 100, 1000).astype(np.int32),
            "b": rng.integers(0, 100, 1000).astype(np.int32),
        })
        yield database


def two_mirrors(function: str):
    """``function`` over two mirrors of one column, then a gather."""
    q = MALBuilder("two_mirrors")
    a = q.bind("t", "a")
    both = q.emit("algebra", function, (q.emit("bat", "mirror", (a,)),
                                        q.emit("bat", "mirror", (a,))))
    return q.returns([("a", q.emit("algebra", "projection", (both, a)))])


def escaping_positions(function: str):
    """Two selections a morsel region takes, their positions combined
    outside it with a mirror, and a sum through the combination."""
    q = MALBuilder("escaping_positions")
    a, b = q.bind("t", "a"), q.bind("t", "b")
    low = q.emit("algebra", "thetaselect", (a, None, 50, "<"))
    both = q.emit("algebra", "thetaselect", (b, low, 10, ">"))
    combined = q.emit("algebra", function,
                      (both, q.emit("bat", "mirror", (b,))))
    values = q.emit("algebra", "projection", (combined, a))
    return q.returns([("n", q.emit("aggr", "count", (values,))),
                      ("s", q.emit("aggr", "sum", (values,)))])


def first_rows_with(function: str, n: int, other: str):
    """``function`` over the first ``n`` rows of ``t`` (a ``firstn`` of
    a mirror: gathered on SHARD) and ``other`` — a mirror of ``t.a``
    or the selection ``a < 5`` — then a gather."""
    q = MALBuilder("first_rows_with")
    a = q.bind("t", "a")
    first = q.emit("algebra", "firstn",
                   (q.emit("bat", "mirror", (a,)), n, True))
    rows = (q.emit("bat", "mirror", (a,)) if other == "mirror"
            else q.emit("algebra", "thetaselect", (a, None, 5, "<")))
    both = q.emit("algebra", function, (first, rows))
    return q.returns([("a", q.emit("algebra", "projection", (both, a)))])


def answers(con, program) -> dict:
    return {name: column.tolist()
            for name, column in con.run_plan(program).columns.items()}


def profile(con, program) -> str:
    """The EXPLAIN ANALYZE profile of a MAL plan."""
    tracer = Tracer(engine=con.engine)
    con.scheduler.submit(CachedPlan(key=(), program=con.config.plan(program)),
                         name=program.name, tracer=tracer).result()
    return render_profile(tracer)


@pytest.mark.parametrize("function", COMBINATIONS)
@pytest.mark.parametrize("spec", SPECS)
def test_two_mirrors_answer_as_ms_does(db, spec, function):
    program = two_mirrors(function)
    expected = answers(db.connect("MS"), program)
    assert len(expected["a"]) == 1000
    assert answers(db.connect(spec), program) == expected


@pytest.mark.parametrize("spec", SPECS)
def test_the_profile_shows_monetdb_ran_it(db, spec):
    text = profile(db.connect(spec), two_mirrors("oidunion"))
    row = next(line for line in text.splitlines()
               if line.startswith("ocelot.oidunion"))
    assert "MonetDB" in row, text


def test_het_logs_the_decision(db):
    con = db.connect("HET")
    con.run_plan(two_mirrors("oidintersect"))
    assert ("oidintersect", "monetdb") in con.backend.decision_log


@pytest.mark.parametrize("function", COMBINATIONS)
@pytest.mark.parametrize("spec", ("CPU", "GPU", "HET", "CPU:morsel=64",
                                  "HET:morsel=64"))
def test_escaping_positions_stay_a_region(db, spec, function):
    """The combination reads a ``morsel.run`` output on every engine
    (with morsels on; under ``REPRO_MORSEL=off`` only the answer is
    checked)."""
    program = escaping_positions(function)
    con = db.connect(spec)
    plan = con.config.plan(program)
    made_by = {var.name: instruction.op
               for instruction in plan.instructions
               for var in instruction.results}
    (combination,) = [i for i in plan.instructions
                      if i.function == function]
    if con.config.effective("morsel"):
        assert made_by[combination.args[0].name] == "morsel.run", \
            plan.format()
    expected = answers(db.connect("MS"), program)
    assert expected["n"][0] > 0
    assert answers(con, program) == expected


@pytest.mark.parametrize("function", COMBINATIONS)
@pytest.mark.parametrize("n, other", ((4, "mirror"), (600, "selection")))
@pytest.mark.parametrize("spec", ("CPU", "SHARD:2xMS", "SHARD:2xCPU",
                                  "SHARD:3xCPU", "SHARD:2xHET"))
def test_first_rows_combine_with_shard_local_oids_as_ms_does(
        db, spec, function, n, other):
    program = first_rows_with(function, n, other)
    expected = answers(db.connect("MS"), program)
    assert expected["a"]
    assert answers(db.connect(spec), program) == expected
