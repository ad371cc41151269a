"""The SHARD engine: partitioning, result equivalence against the
single-node engines, plan-cache behaviour, and DDL propagation."""

import numpy as np
import pytest

import repro
from repro.shard import ShardPartitioner, ShardedBackend
from repro.monetdb.interpreter import UnsupportedOperator
from repro.tpch import WORKLOAD


def assert_results_equal(expected, got, rtol=1e-6):
    assert set(expected.columns) == set(got.columns)
    for column in expected.columns:
        a = expected.columns[column].astype(np.float64)
        b = got.columns[column].astype(np.float64)
        assert a.shape == b.shape, column
        np.testing.assert_allclose(b, a, rtol=rtol, atol=1e-9,
                                   err_msg=column)


@pytest.fixture
def db():
    rng = np.random.default_rng(41)
    database = repro.Database()
    database.create_table("points", {
        "x": rng.integers(0, 8, 4000).astype(np.int32),
        "y": rng.random(4000).astype(np.float32),
        "g": rng.integers(0, 5, 4000).astype(np.int32),
    })
    database.create_table("tiny", {             # replicated (small)
        "k": np.arange(5, dtype=np.int32),
        "w": np.linspace(0.0, 1.0, 5).astype(np.float32),
    })
    return database


class TestPartitioner:
    def test_range_partitioning_covers_all_rows(self, db):
        part = ShardPartitioner(db.catalog, 3)
        assert part.is_partitioned("points")
        counts = [c.row_count("points") for c in part.catalogs]
        assert sum(counts) == 4000
        merged = np.concatenate(
            [c.bat("points", "x").values for c in part.catalogs]
        )
        np.testing.assert_array_equal(
            merged, db.catalog.bat("points", "x").values
        )

    def test_hash_partitioning_covers_all_rows(self, db):
        part = ShardPartitioner(db.catalog, 3, mode="hash")
        counts = [c.row_count("points") for c in part.catalogs]
        assert sum(counts) == 4000
        assert max(counts) - min(counts) <= 1

    def test_small_tables_replicated(self, db):
        part = ShardPartitioner(db.catalog, 3)
        assert not part.is_partitioned("tiny")
        for catalog in part.catalogs:
            assert catalog.row_count("tiny") == 5

    def test_bad_modes_rejected(self, db):
        with pytest.raises(ValueError):
            ShardPartitioner(db.catalog, 2, mode="zigzag")
        with pytest.raises(ValueError):
            ShardPartitioner(db.catalog, 0)


QUERIES = [
    "SELECT x, sum(y) AS s, count(*) AS n, avg(y) AS a "
    "FROM points GROUP BY x ORDER BY x",
    "SELECT sum(y) AS s FROM points WHERE x < 4",
    "SELECT min(y) AS lo, max(y) AS hi FROM points",
    "SELECT g, x, sum(y) AS s FROM points GROUP BY g, x",
    "SELECT x, sum(y * w) AS s FROM points "
    "JOIN tiny ON g = k GROUP BY x ORDER BY x",
    "SELECT x, count(*) AS n FROM points WHERE y < 0.25 "
    "GROUP BY x ORDER BY n DESC",
]


class TestEquivalence:
    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:3xMS",
                                      "SHARD:2xMS,hash"])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_single_node(self, db, spec, sql):
        expected = db.connect("MS").execute(sql)
        got = db.connect(spec).execute(sql)
        assert_results_equal(expected, got, rtol=1e-10)

    def test_result_attribution(self, db):
        result = db.connect("SHARD:2xMS").execute(
            "SELECT count(*) AS n FROM points"
        )
        assert result.backend == "SHARD:2xMS"

    def test_elapsed_is_slowest_shard_plus_merge(self, db):
        con = db.connect("SHARD:2xMS")
        result = con.execute("SELECT sum(y) AS s FROM points WHERE x < 3")
        backend = con.backend
        assert result.elapsed >= max(
            child.elapsed() for child in backend.children
        )


class TestEmptyShards:
    """A range filter can zero out entire shards (range partitioning
    puts whole value runs on one node); empty shards must contribute
    fold identities, never phantom rows or single-shard errors."""

    @pytest.fixture
    def skewed(self):
        database = repro.Database()
        database.create_table("t", {
            "k": np.repeat([0, 1], 500).astype(np.int32),
            "v": np.arange(1000, dtype=np.int32),
        })
        return database

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:2xCPU"])
    def test_rows_from_one_shard_only(self, skewed, spec):
        expected = skewed.connect("MS").execute(
            "SELECT v FROM t WHERE k > 0"
        )
        got = skewed.connect(spec).execute("SELECT v FROM t WHERE k > 0")
        assert_results_equal(expected, got, rtol=0)

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:2xCPU"])
    def test_scalar_aggregates_skip_empty_shards(self, skewed, spec):
        sql = ("SELECT min(v) AS lo, max(v) AS hi, sum(v) AS s, "
               "count(*) AS n, avg(v) AS a FROM t WHERE k > 0")
        expected = skewed.connect("MS").execute(sql)
        got = skewed.connect(spec).execute(sql)
        assert_results_equal(expected, got, rtol=1e-10)

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:2xCPU"])
    def test_grouped_aggregates_with_empty_shard(self, skewed, spec):
        sql = ("SELECT k, sum(v) AS s, count(*) AS n FROM t "
               "WHERE k > 0 GROUP BY k")
        expected = skewed.connect("MS").execute(sql)
        got = skewed.connect(spec).execute(sql)
        assert_results_equal(expected, got, rtol=1e-10)

    def test_all_shards_empty_keeps_single_node_semantics(self, skewed):
        sql = "SELECT sum(v) AS s, count(*) AS n FROM t WHERE k > 99"
        expected = skewed.connect("MS").execute(sql)
        got = skewed.connect("SHARD:2xMS").execute(sql)
        assert_results_equal(expected, got, rtol=0)


class TestGroupKeysKeepTheirWidth:
    """Shard-local groups align by key tuple, column by column at each
    column's own width.  Stacked into one matrix the keys took their
    common numpy type — float64 for (int64, float32) — where adjacent
    int64 values beyond 2**53 collide: two of the eight groups vanished
    and their partial sums with them.

    MS children only: Ocelot's hash grouping refuses int64 keys (CHANGES
    PR 17, "seen, not fixed")."""

    SQL = "SELECT k1, k2, sum(v) AS s FROM t GROUP BY k1, k2"

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(7)
        database = repro.Database()
        database.create_table("t", {
            "k1": ((1 << 53) + rng.integers(0, 4, 600)).astype(np.int64),
            "k2": rng.integers(0, 2, 600).astype(np.float32),
            "v": np.ones(600, dtype=np.int32),
        })
        return database

    @pytest.mark.parametrize("spec", [
        "SHARD:2xMS", "SHARD:3xMS:replicas=2",
        "SHARD:2xMS:hash", "SHARD:3xMS:hash:replicas=2",
    ])
    def test_int64_beyond_2_53_with_a_float32_key(self, wide, spec):
        expected = wide.connect("MS").execute(self.SQL)
        got = wide.connect(spec).execute(self.SQL)
        assert len(expected.columns["s"]) == 8
        assert int(expected.columns["s"].sum()) == 600
        for name, values in expected.columns.items():
            assert got.columns[name].dtype == values.dtype, name
            np.testing.assert_array_equal(got.columns[name], values,
                                          err_msg=name)


class TestTPCH:
    """The acceptance queries on the composed engine (HET children)."""

    @pytest.fixture(scope="class")
    def tpch(self):
        return repro.tpch_database(sf=1)

    @pytest.mark.parametrize("query", ["Q1", "Q6"])
    def test_q1_q6_match_cpu_engine(self, tpch, query):
        expected = tpch.connect("CPU").execute(WORKLOAD[query], name=query)
        got = tpch.connect("SHARD:4xHET").execute(
            WORKLOAD[query], name=query
        )
        assert_results_equal(expected, got, rtol=1e-5)

    def test_repeat_queries_hit_plan_cache(self, tpch):
        con = tpch.connect("SHARD:4xHET")
        before = con.plan_cache.stats.hits
        con.execute(WORKLOAD["Q6"], name="Q6")
        first = con.plan_cache.stats.hits
        con.execute(WORKLOAD["Q6"], name="Q6")
        assert con.plan_cache.stats.hits == first + 1
        assert first >= before

    def test_specs_do_not_share_plans(self, tpch):
        misses = tpch.plan_cache.stats.misses
        tpch.connect("SHARD:2xMS").execute(WORKLOAD["Q6"], name="Q6X")
        tpch.connect("SHARD:3xMS").execute(WORKLOAD["Q6"], name="Q6X")
        assert tpch.plan_cache.stats.misses == misses + 2

    @pytest.mark.slow
    @pytest.mark.parametrize("query", ["Q3", "Q5", "Q7", "Q10", "Q12",
                                       "Q15", "Q17", "Q19", "Q21"])
    def test_join_workload_matches_ms(self, tpch, query):
        """Broadcast joins + grouped merges cover the join workload."""
        expected = tpch.connect("MS").execute(WORKLOAD[query], name=query)
        got = tpch.connect("SHARD:2xMS").execute(WORKLOAD[query], name=query)
        assert_results_equal(expected, got)


class TestDDL:
    def test_ddl_propagates_to_every_shard(self, db):
        con = db.connect("SHARD:3xMS")
        backend = con.backend
        versions = [c.version for c in backend.partitioner.catalogs]
        rows = np.arange(3000, dtype=np.int32)
        db.create_table("extra", {"v": rows})
        for shard_catalog, before in zip(
                backend.partitioner.catalogs, versions):
            assert shard_catalog.has_table("extra")
            assert shard_catalog.version > before
        assert backend.partitioner.is_partitioned("extra")
        result = con.execute("SELECT sum(v) AS s FROM extra")
        assert int(result.column("s")[0]) == int(rows.sum())

    def test_drop_propagates_and_invalidates_plans(self, db):
        con = db.connect("SHARD:2xMS")
        con.execute("SELECT count(*) AS n FROM points")
        db.drop_table("points")
        for shard_catalog in con.backend.partitioner.catalogs:
            assert not shard_catalog.has_table("points")
        with pytest.raises(Exception):
            con.execute("SELECT count(*) AS n FROM points")

    def test_ddl_invalidates_cached_plans(self, db):
        con = db.connect("SHARD:2xMS")
        sql = "SELECT count(*) AS n FROM points"
        stats = con.plan_cache.stats
        con.execute(sql)
        (entry,) = db.plan_cache._entries.values()
        misses = stats.misses
        # unrelated table: every shard gets it, the plan is a hit
        db.create_table("other", {"z": np.arange(4, dtype=np.int32)})
        con.execute(sql)
        assert (stats.misses, stats.invalidations) == (misses, 0)
        assert list(db.plan_cache._entries.values()) == [entry]
        # the table the statement reads: one invalidation, one miss
        columns = {name: db.catalog.bat("points", name).values
                   for name in db.catalog.columns("points")}
        db.drop_table("points")
        assert stats.invalidations == 1
        db.create_table("points", columns)
        assert int(con.execute(sql).column("n")[0]) == 4000
        assert (stats.misses, stats.invalidations) == (misses + 1, 1)


class TestLimitsAreExplicit:
    def test_unmergeable_partitioned_scalar_raises(self, db):
        """hashbuild's distinct count cannot fold across shards; the
        engine refuses loudly instead of returning a wrong number."""
        from repro.monetdb.mal import MALBuilder

        con = db.connect("SHARD:2xMS")
        builder = MALBuilder("hb")
        col = builder.bind("points", "x")
        n = builder.emit("algebra", "hashbuild", (col,))
        out = builder.emit("calc", "add", (n, 0))
        program = builder.returns([("n", out)])
        with pytest.raises(UnsupportedOperator):
            con.run_plan(program)


class TestPositionColumns:
    """Plans SQL does not produce: a *position* column gathered and
    re-broadcast (shard-local positions translate by their space's row
    counts) and a row map fetched through remotely behind a shuffle
    join."""

    @pytest.fixture
    def joined(self):
        rng = np.random.default_rng(11)
        database = repro.Database()
        database.create_table("fact", {
            "f_key": rng.integers(0, 600, 3000).astype(np.int32),
            "v": rng.random(3000).astype(np.float32),
        })
        database.create_table("dim", {       # partitioned: >= 256 rows
            "d_key": np.arange(600, dtype=np.int32),
            "w": rng.random(600).astype(np.float32),
        })
        return database

    @staticmethod
    def sorted_candidates():
        from repro.monetdb.mal import MALBuilder

        b = MALBuilder("sorted_candidates")
        cand = b.emit("algebra", "thetaselect",
                      (b.bind("fact", "v"), None, 0.1, "<"))
        positions, order = b.emit("algebra", "sort", (cand, True),
                                  n_results=2)
        return b.returns([("p", positions), ("o", order)])

    @staticmethod
    def row_map_behind_a_shuffle():
        """The dim side of the pair list points into a selection of
        ``dim``, whose row map is fetched remotely, then ``w`` through
        that."""
        from repro.monetdb.mal import MALBuilder

        b = MALBuilder("row_map")
        w = b.bind("dim", "w")
        cand = b.emit("algebra", "thetaselect", (w, None, 0.5, "<"))
        keys = b.emit("algebra", "projection", (cand, b.bind("dim", "d_key")))
        _lpos, rpos = b.emit("algebra", "join",
                             (b.bind("fact", "f_key"), keys), n_results=2)
        dim_rows = b.emit("algebra", "projection", (rpos, cand))
        picked = b.emit("algebra", "projection", (dim_rows, w))
        return b.returns([("w", picked)])

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:3xMS:hash",
                                      "SHARD:2xCPU"])
    def test_a_gathered_position_column(self, joined, spec):
        program = self.sorted_candidates()
        expected = joined.connect("MS").run_plan(program)
        con = joined.connect(spec)
        got = con.run_plan(program)
        if "hash" in spec:
            # positions into the shard-order layout, not the base order
            assert got.n_rows == expected.n_rows
        else:
            assert_results_equal(expected, got, rtol=0)
        # translated positions are charged at the int64 they are
        # computed in (ROADMAP item 4), gathered and re-broadcast
        rows, n = got.n_rows, con.backend.n_shards
        assert con.backend.traffic.query.bytes_broadcast == \
            rows * 8 * (1 + n)

    @pytest.mark.parametrize("spec", ["SHARD:2xMS", "SHARD:3xMS:hash",
                                      "SHARD:2xCPU"])
    def test_a_row_map_fetched_through_remotely(self, joined, spec):
        program = self.row_map_behind_a_shuffle()
        expected = joined.connect("MS").run_plan(program)
        con = joined.connect(spec)
        got = con.run_plan(program)
        [(op, strategy)] = con.backend.decision_log
        assert op.endswith(".join") and strategy.startswith("shuffle")
        # pairs come back in shard order: the same rows, reordered
        np.testing.assert_array_equal(np.sort(got.column("w")),
                                      np.sort(expected.column("w")))
        assert con.backend.traffic.query.bytes_shuffled > 0


class TestSessions:
    def test_submit_works_fifo(self, db):
        con = db.connect("SHARD:2xMS")
        serial = con.execute("SELECT x, sum(y) AS s FROM points GROUP BY x")
        future = con.submit("SELECT x, sum(y) AS s FROM points GROUP BY x")
        con.drain()
        assert_results_equal(serial, future.result(), rtol=1e-10)

    def test_a_lone_submit_pays_the_framework_overhead_each_time(self):
        """Regression: sessions never reached the children's ``begin()``,
        so a submitted Q6 on CPU shards cost 0.026 s where ``execute()``
        — which pays the Intel SDK's 0.6 s per query (§5.3.2) — costs
        0.625 s."""
        with repro.tpch_database(sf=0.1) as db:
            con = db.connect("SHARD:2xCPU")
            con.execute(WORKLOAD["Q6"], name="Q6")          # warm caches
            price = con.execute(WORKLOAD["Q6"], name="Q6").elapsed
            overhead = con.backend.query_overhead_s()
            assert overhead >= 0.6
            for _ in range(2):
                lone = con.submit(WORKLOAD["Q6"], name="Q6").result()
                assert lone.elapsed >= overhead
                assert lone.elapsed == pytest.approx(price, rel=1e-9)

    def test_het_children_charge_first_use_on_every_session(self):
        """Regression: a HET child clears the devices it has charged in
        ``begin()`` only, so of all the sessions of a connection just
        the first paid the CPU's framework overhead."""
        rng = np.random.default_rng(31)
        with repro.Database(data_scale=12288.0) as db:
            db.create_table("big", {           # 3 GB a shard: CPU-bound
                "v": rng.integers(0, 1 << 30, 1 << 17).astype(np.int32),
            })
            con = db.connect("SHARD:2xHET")
            sql = "SELECT min(v) AS m FROM big"
            price = con.execute(sql).elapsed
            overhead = con.backend.query_overhead_s()
            assert overhead >= 0.6                      # placed on the CPU
            for _ in range(2):
                assert con.submit(sql).result().elapsed >= overhead
            assert con.execute(sql).elapsed == pytest.approx(price, rel=0.05)
