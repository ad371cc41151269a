"""The plan cache: keys, counters, invalidation, what a plan does not
hold, and the per-engine connection reuse it rides on."""

import numpy as np
import pytest

import repro
from repro.api import Database
from repro.serve import PlanCache
from repro.serve.faults import NodeFault, wrap_shard_node
from repro.sql.params import parameterise
from repro.tpch import WORKLOAD

SQL = "SELECT x, sum(y) AS total FROM points GROUP BY x"


@pytest.fixture
def db():
    rng = np.random.default_rng(17)
    database = Database()
    database.create_table("points", {
        "x": rng.integers(0, 16, 5000).astype(np.int32),
        "y": rng.random(5000).astype(np.float32),
    })
    return database


class TestKeying:
    def test_repeat_execute_hits(self, db):
        con = db.connect("CPU")
        first = con.execute(SQL)
        assert con.plan_cache.stats.misses == 1
        assert con.plan_cache.stats.hits == 0
        second = con.execute(SQL)
        assert con.plan_cache.stats.hits == 1
        assert np.allclose(first.column("total"), second.column("total"))
        # the very same compiled program object was reused
        assert first.program is second.program

    def test_key_is_whitespace_insensitive(self, db):
        con = db.connect("CPU")
        con.execute("SELECT sum(y) AS s FROM points")
        con.execute("SELECT   sum(y) AS s\n  FROM points")
        assert con.plan_cache.stats.hits == 1

    def test_string_literals_keep_their_spacing(self):
        """The template is the key: whitespace outside a literal goes,
        a literal's own spacing travels with its value."""
        spaced, plain = parameterise("SELECT 'a  b'"), parameterise(
            "SELECT 'a b'")
        assert spaced[0] == plain[0] and spaced[1] != plain[1]
        assert spaced[1] == ("a  b",)
        assert parameterise("SELECT  1") == parameterise("SELECT 1")

    def test_engines_do_not_share_entries(self, db):
        db.connect("MS").execute(SQL)
        db.connect("CPU").execute(SQL)
        assert db.plan_cache.stats.hits == 0
        assert db.plan_cache.stats.misses == 2

    def test_literal_variants_share_one_template_plan(self, db):
        """The headline parameterisation effect: N literal variations
        of one query shape are N-1 cache hits on a single entry."""
        con = db.connect("MS")
        results = [
            con.execute(f"SELECT sum(y) AS s FROM points WHERE x < {k}")
            for k in range(8)
        ]
        assert len(db.plan_cache) == 1
        assert con.plan_cache.stats.misses == 1
        assert con.plan_cache.stats.hits == 7
        # and the bound plans still see their own literal
        sums = [float(r.column("s")[0]) for r in results]
        assert sums == sorted(sums)
        assert sums[0] == 0.0 and sums[-1] > sums[1]

    def test_lru_eviction_bounds_entries(self, db):
        db.plan_cache.max_entries = 4
        con = db.connect("MS")
        # structurally distinct statements (literal variations would
        # collapse into one parameterised template)
        statements = [
            "SELECT sum(y) AS s FROM points",
            "SELECT sum(x) AS s FROM points",
            "SELECT count(*) AS s FROM points",
            "SELECT min(y) AS s FROM points",
            "SELECT max(y) AS s FROM points",
            "SELECT avg(y) AS s FROM points",
            "SELECT sum(y) AS s FROM points WHERE x < 4",
            "SELECT sum(y) AS s FROM points GROUP BY x",
        ]
        for sql in statements:
            con.execute(sql)
        assert len(db.plan_cache) == 4


def sole_entry(db):
    (entry,) = db.plan_cache._entries.values()
    return entry


def recreate(db, table):
    """DDL on ``table``: dropped and created again over the same rows."""
    columns = {name: db.catalog.bat(table, name).values
               for name in db.catalog.columns(table)}
    db.drop_table(table)
    db.create_table(table, columns)


class TestInvalidation:
    """A DDL statement invalidates the plans that read the table it
    touched — and no others."""

    def test_ddl_on_a_table_invalidates_the_plans_that_read_it(self, db):
        con = db.connect("CPU")
        con.execute(SQL)
        entry = sole_entry(db)
        stats = db.plan_cache.stats
        # DDL on a table the statement never reads: the plan stays
        stamp = db.catalog.table_version("points")
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        assert db.catalog.table_version("other") > stamp
        assert db.catalog.table_version("points") == stamp
        con.execute(SQL)
        assert (stats.hits, stats.misses, stats.invalidations) == (1, 1, 0)
        assert sole_entry(db) is entry
        # a shard key is layout, not schema: nothing is stamped
        db.declare_shard_key("points", "x")
        assert db.catalog.table_version("points") == stamp
        con.execute(SQL)
        assert (stats.hits, stats.misses, stats.invalidations) == (2, 1, 0)
        assert sole_entry(db) is entry
        # DDL on the table it reads: one invalidation, one miss
        recreate(db, "points")
        assert db.catalog.table_version("points") > stamp
        assert stats.invalidations == 1 and len(db.plan_cache) == 0
        con.execute(SQL)
        assert (stats.hits, stats.misses, stats.invalidations) == (2, 2, 1)
        assert sole_entry(db) is not entry

    def test_ddl_mid_batch_invalidates_without_breaking_in_flight(self, db):
        """DDL landing *mid-submit-batch*: on an unrelated table the
        next admission shares the in-flight query's plan; on the table
        being read it invalidates the cache for future compiles while
        the in-flight query — already bound to the old plan — still
        completes correctly."""
        con = db.connect("HET")
        baseline = con.execute(SQL)
        entry = sole_entry(db)
        stats = db.plan_cache.stats

        def underway():
            future = con.submit(SQL)
            for _ in range(3):
                assert con.scheduler.step()   # underway, not finished
            return future

        in_flight = underway()
        misses = stats.misses
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        after_other = con.submit(SQL)     # a hit on the very same entry
        con.drain()
        assert (stats.misses, stats.invalidations) == (misses, 0)
        assert sole_entry(db) is entry

        in_flight_2 = underway()
        recreate(db, "points")
        assert stats.invalidations == 1
        after_ddl = con.submit(SQL)       # recompiles (stale entry gone)
        con.drain()
        assert (stats.misses, stats.invalidations) == (misses + 1, 1)
        assert sole_entry(db) is not entry
        for future in (in_flight, after_other, in_flight_2, after_ddl):
            assert future.exception() is None
            assert np.allclose(future.result().column("total"),
                               baseline.column("total"))

    def test_recreated_table_serves_fresh_data(self, db):
        con = db.connect("CPU")
        before = con.execute("SELECT sum(x) AS s FROM points").column("s")[0]
        db.drop_table("points")
        db.create_table("points", {
            "x": np.array([100, 200], dtype=np.int32),
            "y": np.array([1.0, 2.0], dtype=np.float32),
        })
        after = con.execute("SELECT sum(x) AS s FROM points").column("s")[0]
        assert after == 300
        assert after != before


# -- a plan does not know the devices -----------------------------------------

#: columns that outgrow the simulated GPU at ``data_scale=2000``: what the
#: placer decides depends on what the first run left resident
SPLIT_TEXTS = [
    "SELECT a * 2 AS x, b + 1 AS y FROM t WHERE b < 0.5",
    "SELECT g, sum(b * 2) AS s, avg(b) AS m, count(*) AS n FROM t "
    "WHERE a > 100 GROUP BY g",
    "SELECT g, sum(b * 2) AS s FROM t WHERE a > 100 GROUP BY g",
]


def second_run(sql: str, recompile: bool):
    """The second run of ``sql`` on HET: ``(plan-cache hits, elapsed,
    decision log, columns)`` — as a cache hit, or after the cache was
    cleared."""
    rng = np.random.default_rng(3)
    rows = 200_000
    with Database(data_scale=2000) as database:
        database.create_table("t", {
            "a": rng.integers(0, 1 << 20, rows).astype(np.int32),
            "b": rng.random(rows).astype(np.float32),
            "g": rng.integers(0, 16, rows).astype(np.int32),
        })
        con = database.connect("HET:morsel=off")
        con.execute(sql)
        if recompile:
            database.plan_cache.clear()
        result = con.execute(sql)
        return (database.plan_cache.stats.hits, repr(result.elapsed),
                list(con.backend.decision_log),
                {name: values.tobytes()
                 for name, values in result.columns.items()})


@pytest.mark.parametrize("sql", SPLIT_TEXTS)
def test_a_cache_hit_runs_as_a_recompile_would(monkeypatch, sql):
    """A hit carries no placement from the run before: HET places it
    from what it finds, as it places a fresh compile.  (A hit that
    replayed the cold run's split cost 1 320.9 ms against the
    recompile's 1 261.9 ms on the first text.)"""
    monkeypatch.delenv("REPRO_MORSEL", raising=False)
    hits, *hit = second_run(sql, recompile=False)
    recompiled_hits, *recompiled = second_run(sql, recompile=True)
    assert (hits, recompiled_hits) == (1, 0)
    assert hit == recompiled


@pytest.fixture(scope="module")
def tpch_warm_passes():
    """``{recompiled: {query: (repr(elapsed), decision log)}}``: the warm
    TPC-H pass on HET, served from the plan cache and compiled again
    after the cache was cleared."""
    passes = {}
    for recompile in (False, True):
        with repro.tpch_database(sf=0.1) as database:
            con = database.connect("HET")
            for name, sql in WORKLOAD.items():
                con.execute(sql, name=name)
            if recompile:
                database.plan_cache.clear()
            passes[recompile] = {}
            for name, sql in WORKLOAD.items():
                result = con.execute(sql, name=name)
                passes[recompile][name] = (repr(result.elapsed),
                                           list(con.backend.decision_log))
    return passes


@pytest.mark.parametrize("query", WORKLOAD)
def test_a_warm_tpch_hit_runs_as_a_recompile_would(tpch_warm_passes, query):
    assert tpch_warm_passes[False][query] == tpch_warm_passes[True][query]


def test_a_het_hit_survives_a_schema_change_elsewhere(db):
    con = db.connect("HET")
    con.execute(SQL)
    log = list(con.backend.decision_log)
    db.create_table("extra", {"z": np.arange(4, dtype=np.int32)})
    result = con.execute(SQL)   # same plan, placed again
    assert result.n_rows == 16
    assert con.plan_cache.stats.hits == 1
    assert con.backend.decision_log == log


# -- a plan does not know the cluster -----------------------------------------

JOIN = ("SELECT sum(v * w) AS s FROM fact JOIN dim ON fact.k = dim.k "
        "WHERE w < 0.5")


def grow(db, shard):
    shard.execute(JOIN)
    db.add_shard()
    assert shard.backend.partitioner.n_shards == 4


def kill(db, shard):
    shard.execute(JOIN)
    for wrapper in wrap_shard_node(shard.backend, 0):
        wrapper.always = NodeFault("node 0 down")
    shard.execute(JOIN)             # rides the failover out
    assert shard.backend.cluster.stats.promotions >= 1


def adopt(db, shard):
    shard.execute(JOIN)             # observes the join, adopts both keys
    assert shard.backend.partitioner.key_of("fact") is not None


#: ``(event, the spec it happens to, a fresh spec with the layout it
#: leaves behind)``
ROSTER_EVENTS = [
    (grow, "SHARD:3xCPU,replicas=2", "SHARD:4xCPU,replicas=2"),
    (kill, "SHARD:4xCPU,replicas=2", "SHARD:4xCPU"),
    (adopt, "SHARD:2xCPU,keys=infer", "SHARD:2xCPU,key=fact.k,key=dim.k"),
]


@pytest.mark.parametrize("event, spec, fresh_spec", ROSTER_EVENTS,
                         ids=[event.__name__ for event, *_ in ROSTER_EVENTS])
def test_a_roster_change_touches_no_other_engine(event, spec, fresh_spec):
    """A resize, a failover and a ``keys=infer`` adoption concern the
    SHARD connection they happen to, and not even its plans: HET's and
    CPU's next statements are hits (HET's placed as before), and so is
    the SHARD connection's own — which decides its joins as a fresh
    connection on that layout does.  (With a catalog-wide epoch each of
    the three recompiled every engine's plans: a miss per HET Q3 on
    ``tpch_database(0.1)``.)"""
    rng = np.random.default_rng(41)
    db = Database()
    db.create_table("fact", {
        "k": rng.integers(0, 500, 6000).astype(np.int32),
        "v": rng.random(6000).astype(np.float32),
    })
    db.create_table("dim", {
        "k": np.arange(500, dtype=np.int32),
        "w": rng.random(500).astype(np.float32),
    })
    het, cpu, shard = db.connect("HET"), db.connect("CPU"), db.connect(spec)
    expected = [con.execute(JOIN).column("s") for con in (het, cpu)
                for _ in range(2)]
    placed = list(het.backend.decision_log)
    assert placed
    others = dict(db.plan_cache._entries)
    stats = db.plan_cache.stats

    event(db, shard)

    assert stats.invalidations == 0
    before = (stats.hits, stats.misses)
    for con, want in zip((het, cpu), expected[1::2]):
        assert np.array_equal(con.execute(JOIN).column("s"), want)
    assert (stats.hits, stats.misses, stats.invalidations) == (
        before[0] + 2, before[1], 0)
    assert het.backend.decision_log == placed
    for key, entry in others.items():
        assert db.plan_cache._entries[key] is entry
    # the SHARD connection's own plan survived what happened to it
    got = shard.execute(JOIN)
    assert (stats.hits, stats.misses, stats.invalidations) == (
        before[0] + 3, before[1], 0)
    assert np.allclose(got.column("s"), expected[-1], rtol=1e-5)
    fresh = db.connect(fresh_spec)
    fresh.execute(JOIN)
    assert shard.backend.decision_log == fresh.backend.decision_log
    assert shard.backend.decision_log      # a join site was decided
    db.close()


class TestConnectionReuse:
    """Regression: ``Database.execute`` used to build a fresh backend
    (cold device caches, re-probed devices) on every call."""

    def test_two_executes_share_a_backend(self, db):
        db.execute("SELECT sum(y) AS s FROM points", engine="CPU")
        first = db.connect("CPU").backend
        db.execute("SELECT sum(y) AS s FROM points", engine="CPU")
        assert db.connect("CPU").backend is first

    def test_connect_returns_the_cached_connection(self, db):
        assert db.connect("HET") is db.connect("HET")
        assert db.connect("MS") is not db.connect("MP")

    def test_unknown_engine_still_rejected(self, db):
        with pytest.raises(ValueError, match="unknown engine"):
            db.connect("TPU")


class TestPlanCacheUnit:
    def test_invalidate_counts_only_stale_entries(self, db):
        cache = PlanCache(db.catalog, max_entries=8)
        config = db.connect("MS").config
        points = "SELECT sum(y) AS s FROM points"
        db.catalog.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        entry = cache.lookup(points, config, db.schema)
        cache.lookup("SELECT sum(z) AS s FROM other", config, db.schema)
        assert cache.invalidate_schema() == 0
        # DDL on `other` stales the plan that reads it, not its neighbour
        db.catalog.drop_table("other")
        assert cache.invalidate_schema() == 1
        assert len(cache) == 1
        assert cache.lookup(points, config, db.schema) is entry
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        # a key declaration stamps nothing: still the same entry
        db.catalog.declare_shard_key("points", "x")
        assert cache.invalidate_schema() == 0
        assert cache.lookup(points, config, db.schema) is entry
        # DDL on `points` (no purge in between): the lookup itself finds
        # the entry stale — one invalidation, one miss, replaced in place
        recreate(db, "points")
        assert cache.lookup(points, config, db.schema) is not entry
        assert (cache.stats.hits, cache.stats.misses) == (2, 3)
        assert len(cache) == 1
        # nothing is catalog-wide: what is left stays valid
        assert cache.invalidate_schema() == 0
        assert cache.stats.invalidations == 2

    def test_constant_arithmetic_shares_one_template(self, db):
        """Arithmetic between literals binds like a lone literal: three
        variants are one compile and one entry (each used to compile its
        literal text beside a negative-cache verdict), and the entry
        lives and dies with its table like any other."""
        cache = db.plan_cache
        con = db.connect("MS")
        base = "SELECT sum(y) AS s FROM points WHERE x < "
        variants = [base + f"{a} + {a + 1}" for a in (1, 3, 5)]
        got = [con.execute(sql).column("s") for sql in variants]
        assert (cache.stats.misses, cache.stats.hits, len(cache)) == (1, 2, 1)
        for answer, bound in zip(got, (3, 7, 11)):
            assert np.array_equal(answer,
                                  con.execute(base + str(bound)).column("s"))
        # DDL elsewhere keeps the entry; DDL on `points` stales it once
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        hits = cache.stats.hits
        assert np.array_equal(con.execute(variants[0]).column("s"), got[0])
        assert cache.stats.hits == hits + 1
        # ... the template and the lone literal's plan both read `points`
        misses = cache.stats.misses
        recreate(db, "points")
        assert (len(cache), cache.stats.invalidations) == (0, 2)
        assert np.array_equal(con.execute(variants[1]).column("s"), got[1])
        assert cache.stats.misses == misses + 1
