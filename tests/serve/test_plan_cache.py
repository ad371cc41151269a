"""The plan cache: keys, counters, invalidation, placement replay, and
the per-engine connection reuse it rides on."""

import numpy as np
import pytest

from repro.api import Database
from repro.serve import PlanCache, sql_cache_key

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
        assert sql_cache_key("SELECT 'a  b'") != sql_cache_key("SELECT 'a b'")
        assert sql_cache_key("SELECT  1") == sql_cache_key("SELECT 1")

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


class TestInvalidation:
    """A DDL statement invalidates the plans that read the table it
    touched — and no others."""

    def test_ddl_bumps_schema_version_and_invalidates(self, db):
        con = db.connect("CPU")
        con.execute(SQL)
        entry = sole_entry(db)
        stats = db.plan_cache.stats
        # DDL on a table the statement never reads: the catalog version
        # still moves, the plan stays
        version = db.catalog.version
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        assert db.catalog.version == version + 1
        con.execute(SQL)
        assert (stats.hits, stats.misses, stats.invalidations) == (1, 1, 0)
        assert sole_entry(db) is entry
        # DDL on the table it reads: one invalidation, one miss
        db.declare_shard_key("points", "x")
        assert db.catalog.version == version + 2
        assert stats.invalidations == 1 and len(db.plan_cache) == 0
        con.execute(SQL)
        assert (stats.hits, stats.misses, stats.invalidations) == (1, 2, 1)
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
        db.declare_shard_key("points", "x")
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


class TestPlacementReplay:
    def test_repeat_het_query_replays_placements(self, db):
        con = db.connect("HET")
        first = con.execute(SQL)
        assert con.plan_cache.stats.placement_reuses == 0
        log_first = list(con.backend.decision_log)
        second = con.execute(SQL)
        # every dispatched instruction reused the recorded decision
        assert con.plan_cache.stats.placement_reuses == len(log_first)
        assert con.backend.decision_log == log_first
        assert np.allclose(first.column("total"), second.column("total"))

    def test_replay_survives_a_schema_change_elsewhere(self, db):
        con = db.connect("HET")
        con.execute(SQL)
        decisions = len(con.backend.decision_log)
        db.create_table("extra", {"z": np.arange(4, dtype=np.int32)})
        result = con.execute(SQL)   # same plan, placements replayed
        assert result.n_rows == 16
        assert con.plan_cache.stats.placement_reuses == decisions


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
        # DDL on `points` (no purge in between): the lookup itself finds
        # the entry stale — one invalidation, one miss, replaced in place
        db.catalog.declare_shard_key("points", "x")
        assert cache.lookup(points, config, db.schema) is not entry
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)
        assert len(cache) == 1
        # the epoch stales everything
        db.catalog.bump_version()
        assert cache.invalidate_schema() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_no_param_verdicts_do_not_pile_up(self, db):
        """Regression: the negative cache of non-parameterisable
        templates held one ``(template, version)`` pair per DDL, for
        ever.  A verdict now stands exactly as long as a plan over the
        same tables would."""
        cache = db.plan_cache
        con = db.connect("MS")
        sql = "SELECT sum(y) AS s FROM points WHERE x < 1 + 2"
        columns = {name: db.catalog.bat("points", name).values
                   for name in ("x", "y")}
        expected = con.execute(sql).column("s")
        assert len(cache._no_param) == 1
        for _ in range(200):
            db.drop_table("points")
            db.create_table("points", columns)
            assert np.array_equal(con.execute(sql).column("s"), expected)
        assert len(cache._no_param) <= 1
        # ... survives DDL elsewhere (no re-probe of the template:
        # the literal text is a straight hit) ...
        misses = cache.stats.misses
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        con.execute(sql)
        assert cache.stats.misses == misses
        # ... and is bounded like the entries are
        cache.max_entries = 4
        for terms in range(2, 10):      # eight distinct templates
            con.execute("SELECT sum(y) AS s FROM points WHERE x < "
                        + " + ".join(["1"] * terms))
        assert len(cache._no_param) == 4
