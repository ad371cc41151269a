"""Shard-key-aware partitioning and the join planner (PR 5).

Covers the key-placement schemes (hash mix / range bands over shared
domains), the partitioner edge cases (skew, the replication threshold
boundary, DDL re-sync under a declared key), the join strategies
(co-located / shuffle / broadcast) with their interconnect-traffic
counters, runtime key inference, and the rule that a join's strategy is
decided when it runs — a cached plan holds none.
"""

import numpy as np
import pytest

import repro
from repro.shard import ShardPartitioner, default_key_domain
from repro.shard.backend import (
    ShardedBackend,
    JOIN_BROADCAST,
    JOIN_COLOCATED,
    JOIN_SHUFFLE_BOTH,
)
from repro.shard.partition import hash_placement


def assert_results_equal(expected, got, rtol=1e-6):
    assert set(expected.columns) == set(got.columns)
    for column in expected.columns:
        a = expected.columns[column].astype(np.float64)
        b = got.columns[column].astype(np.float64)
        assert a.shape == b.shape, column
        np.testing.assert_allclose(b, a, rtol=rtol, atol=1e-9,
                                   err_msg=column)


def make_db(n_fact=3000, n_dim=600, seed=11):
    """Two co-partitionable tables: fact.f_key references dim.d_key."""
    rng = np.random.default_rng(seed)
    db = repro.Database()
    db.create_table("fact", {
        "f_key": rng.integers(0, n_dim, n_fact).astype(np.int32),
        "v": rng.random(n_fact).astype(np.float32),
        "g": rng.integers(0, 6, n_fact).astype(np.int32),
    })
    db.create_table("dim", {
        "d_key": np.arange(n_dim, dtype=np.int32),
        "w": rng.random(n_dim).astype(np.float32),
        "pad": np.zeros(n_dim, dtype=np.int32),
    })
    return db


JOIN_SQL = ("SELECT g, sum(v * w) AS s FROM fact "
            "JOIN dim ON f_key = d_key GROUP BY g ORDER BY g")


def join_trace(con):
    """The join-site decisions of the connection's last query."""
    return list(con.backend.decision_log)


def query_traffic(con, scope="interconnect.query"):
    """Interconnect bytes by pattern (the last query's by default, the
    connection's cumulative ones under ``scope="interconnect"``)."""
    snap = con.metrics.snapshot()
    moved = {kind: snap[f"{scope}.bytes_{kind}"]
             for kind in ("broadcast", "shuffled", "gathered")}
    moved["total"] = sum(moved.values())
    return moved


class TestPlacementFunctions:
    def test_hash_placement_depends_only_on_the_value(self):
        a = np.array([3, 17, 3, 99], dtype=np.int32)
        b = np.array([99, 3], dtype=np.int64)
        pa = hash_placement(a, 4)
        pb = hash_placement(b, 4)
        assert pa[0] == pa[2] == pb[1]
        assert pa[3] == pb[0]
        assert set(hash_placement(np.arange(1000), 4)) == {0, 1, 2, 3}

    def test_non_numeric_keys_rejected(self):
        with pytest.raises(ValueError):
            hash_placement(np.array(["a", "b"]), 2)

    def test_default_key_domain_strips_table_prefix(self):
        assert default_key_domain("l_orderkey") == "orderkey"
        assert default_key_domain("o_orderkey") == "orderkey"
        assert default_key_domain("custkey") == "custkey"


class TestKeyedPartitioner:
    @pytest.mark.parametrize("mode", ["range", "hash"])
    def test_declared_keys_co_partition(self, mode):
        db = make_db()
        part = ShardPartitioner(
            db.catalog, 3, mode=mode,
            shard_keys={"fact": "f_key", "dim": "d_key"},
        )
        assert part.co_located(("fact", "f_key"), ("dim", "d_key"))
        # every fact row's key must live with the matching dim row
        for shard, catalog in enumerate(part.catalogs):
            fact_keys = set(catalog.bat("fact", "f_key").values.tolist())
            dim_keys = set(catalog.bat("dim", "d_key").values.tolist())
            assert fact_keys <= dim_keys
        total = sum(c.row_count("fact") for c in part.catalogs)
        assert total == 3000

    def test_rows_keep_their_columns_together(self):
        db = make_db()
        part = ShardPartitioner(
            db.catalog, 3, mode="hash", shard_keys={"fact": "f_key"},
        )
        merged = np.concatenate(
            [c.bat("fact", "v").values for c in part.catalogs]
        )
        np.testing.assert_array_equal(
            np.sort(merged), np.sort(db.catalog.bat("fact", "v").values)
        )

    def test_keys_in_different_domains_do_not_co_locate(self):
        db = make_db()
        part = ShardPartitioner(
            db.catalog, 2, shard_keys={"fact": "f_key", "dim": "pad"},
        )
        assert not part.co_located(("fact", "f_key"), ("dim", "pad"))
        assert part.is_key_aligned("fact", "f_key")
        assert not part.is_key_aligned("fact", "v")

    def test_hash_skew_all_rows_one_key(self):
        """Every row carries one key value: keyed hash placement puts
        the whole table on a single shard, and queries stay correct
        through the empty-shard fold paths."""
        db = repro.Database()
        db.create_table("skew", {
            "k": np.full(1000, 7, dtype=np.int32),
            "v": np.arange(1000, dtype=np.int32),
        })
        part = ShardPartitioner(
            db.catalog, 3, mode="hash", shard_keys={"skew": "k"},
        )
        counts = sorted(c.row_count("skew") for c in part.catalogs)
        assert counts[:2] == [0, 0] and counts[2] == 1000
        con = db.connect("SHARD:3xMS,hash,key=skew.k")
        expected = db.connect("MS").execute(
            "SELECT k, sum(v) AS s, count(*) AS n FROM skew GROUP BY k"
        )
        got = con.execute(
            "SELECT k, sum(v) AS s, count(*) AS n FROM skew GROUP BY k"
        )
        assert_results_equal(expected, got, rtol=0)

    def test_range_skew_splits_hot_band_instead_of_folding(self):
        """Satellite fix (PR 10): a heavily skewed key distribution
        used to leave range shards empty — equal-width bands over the
        key domain folded nearly every row into the hot band's shard.
        Band boundaries now come from the *observed* key histogram
        (recursive weighted-median splits of the heaviest band), so the
        hot band is split and every shard holds rows whenever there are
        at least as many distinct keys as shards."""
        rng = np.random.default_rng(17)
        db = repro.Database()
        hot = rng.integers(0, 10, 2900)           # 97% of rows, keys 0..9
        tail = rng.integers(10, 10_000, 100)      # thin tail to 10k
        keys = np.concatenate([hot, tail]).astype(np.int64)
        db.create_table("skew", {
            "k": keys,
            "v": np.arange(keys.size, dtype=np.int32),
        })
        part = ShardPartitioner(
            db.catalog, 4, shard_keys={"skew": "k"},
        )
        counts = [c.row_count("skew") for c in part.catalogs]
        assert sum(counts) == keys.size
        assert min(counts) > 0, f"empty shard under skew: {counts}"
        assert max(counts) < keys.size
        con = db.connect("SHARD:4xMS,key=skew.k")
        expected = db.connect("MS").execute(
            "SELECT k, sum(v) AS s, count(*) AS n FROM skew GROUP BY k"
        )
        got = con.execute(
            "SELECT k, sum(v) AS s, count(*) AS n FROM skew GROUP BY k"
        )
        assert_results_equal(expected, got, rtol=0)

    def test_skew_bands_weighted_median_properties(self):
        from repro.shard.partition import band_placement, skew_bands

        values = np.array([1.0] * 90 + [2.0] * 5 + [3.0] * 5)
        cuts = skew_bands(values, 3)
        assert cuts.size == 2
        counts = np.bincount(band_placement(values, cuts), minlength=3)
        assert (counts > 0).all()
        # fewer distinct keys than bands: bands collapse to the
        # distinct values instead of manufacturing empty ones
        assert skew_bands(np.full(100, 5.0), 4).size == 0
        two = skew_bands(np.array([1.0] * 99 + [9.0]), 4)
        assert two.size == 1
        placed = band_placement(np.array([1.0, 9.0]), two)
        assert placed.tolist() == [0, 1]

    def test_replication_threshold_boundary(self):
        """255 rows replicate, 256 partition (the documented policy
        boundary), and a declared key on a replicated table is moot."""
        db = repro.Database()
        db.create_table("just_under", {
            "k": np.arange(255, dtype=np.int32),
        })
        db.create_table("just_at", {
            "k": np.arange(256, dtype=np.int32),
        })
        part = ShardPartitioner(
            db.catalog, 2,
            shard_keys={"just_under": "k", "just_at": "k"},
        )
        assert not part.is_partitioned("just_under")
        assert part.is_partitioned("just_at")
        for catalog in part.catalogs:
            assert catalog.row_count("just_under") == 255
        assert part.key_of("just_under") is None
        assert part.key_of("just_at") == ("k", "k")

    def test_ddl_resync_repartitions_under_declared_key(self):
        """Declaring a key on a live partitioner re-slices the already
        installed tables (the layout signature changed); without the
        re-partition, stale row-id slices would satisfy co-location
        checks they no longer honour."""
        db = make_db()
        part = ShardPartitioner(db.catalog, 2, mode="hash")
        before = [c.bat("fact", "f_key").values.copy()
                  for c in part.catalogs]
        versions = [c.version for c in part.catalogs]
        part.declare_key("fact", "f_key")
        part.declare_key("dim", "d_key")
        assert part.co_located(("fact", "f_key"), ("dim", "d_key"))
        after = [c.bat("fact", "f_key").values for c in part.catalogs]
        assert any(
            a.shape != b.shape or not np.array_equal(a, b)
            for a, b in zip(before, after)
        )
        for catalog, version in zip(part.catalogs, versions):
            assert catalog.version > version
        ids = hash_placement(after[0], 2) if len(after[0]) else []
        assert all(i == 0 for i in ids)

    def test_range_domain_bounds_are_shared(self):
        """Range-mode bands come from the union of every member table's
        key range, so the tables agree even when one side's keys span a
        subset of the other's."""
        rng = np.random.default_rng(5)
        db = repro.Database()
        db.create_table("wide", {
            "k": np.arange(1000, dtype=np.int32),
        })
        db.create_table("narrow", {
            "k": rng.integers(400, 600, 500).astype(np.int32),
        })
        part = ShardPartitioner(
            db.catalog, 4, mode="range",
            shard_keys={"wide": "k", "narrow": "k"},
        )
        assert part.domains["k"] == (0.0, 999.0)
        for catalog in part.catalogs:
            w = set(catalog.bat("wide", "k").values.tolist())
            n = set(catalog.bat("narrow", "k").values.tolist())
            assert n <= w

    def test_catalog_declaration_validates_the_column(self):
        db = make_db()
        with pytest.raises(KeyError):
            db.declare_shard_key("fact", "nope")
        with pytest.raises(KeyError):
            db.declare_shard_key("ghost", "k")

    def test_unknown_key_column_rejected(self):
        db = make_db()
        with pytest.raises(ValueError, match="no such column"):
            ShardPartitioner(db.catalog, 2, shard_keys={"fact": "zz"})


class TestJoinStrategies:
    def test_colocated_join_moves_zero_join_bytes(self):
        db = make_db()
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:3xMS,key=fact.f_key,key=dim.d_key")
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]
        traffic = query_traffic(con)
        assert traffic["shuffled"] == 0
        # only the ngroups-wide grouped-aggregate merge remains
        assert traffic["broadcast"] < 10_000

    def test_shuffle_beats_broadcast_on_bytes(self):
        # a selective filter on the probe side, as in the TPC-H join
        # workload — the shuffle then moves a few hundred (key, oid)
        # pairs where the broadcast re-distributes whole columns
        sql = ("SELECT g, sum(v * w) AS s FROM fact "
               "JOIN dim ON f_key = d_key WHERE v < 0.2 "
               "GROUP BY g ORDER BY g")
        db = make_db()
        expected = db.connect("MS").execute(sql)
        broadcast = db.connect("SHARD:3xMS,join=broadcast")
        rb = broadcast.execute(sql)
        shuffle = db.connect("SHARD:3xMS")
        rs = shuffle.execute(sql)
        assert_results_equal(expected, rb, rtol=1e-5)
        assert_results_equal(expected, rs, rtol=1e-5)
        assert join_trace(broadcast) == [
            ("algebra.join", JOIN_BROADCAST)
        ]
        assert join_trace(shuffle) == [
            ("algebra.join", JOIN_SHUFFLE_BOTH)
        ]
        tb = query_traffic(broadcast)
        ts = query_traffic(shuffle)
        assert ts["total"] < tb["total"]
        assert ts["broadcast"] < tb["broadcast"]
        assert ts["shuffled"] > 0 and tb["shuffled"] == 0

    def test_one_aligned_side_shuffles_only_the_other(self):
        db = make_db()
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:3xMS,key=fact.f_key")
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert join_trace(con) == [
            ("algebra.join", "shuffle-right")
        ]

    @pytest.mark.parametrize("params, strategy", [
        (",key=fact.f_key,key=dim.d_key", JOIN_COLOCATED),
        (",key=dim.d_key", "shuffle-left"),
        (",key=fact.f_key", "shuffle-right"),
        ("", JOIN_SHUFFLE_BOTH),
        ("", JOIN_BROADCAST),           # the fallback: keys cannot shuffle
        (",join=broadcast", JOIN_BROADCAST),
    ])
    def test_explain_analyze_prints_the_strategy_of_every_join_site(
            self, monkeypatch, params, strategy):
        if (params, strategy) == ("", JOIN_BROADCAST):
            monkeypatch.setattr(ShardedBackend, "_shuffleable",
                                staticmethod(lambda value: False))
        db = make_db()
        con = db.connect("SHARD:3xMS" + params)
        assert "# joins:" not in con.explain(JOIN_SQL)      # runtime truth
        text = con.explain(JOIN_SQL, analyze=True)
        assert f"# joins: algebra.join={strategy}\n" in text + "\n"
        assert join_trace(con) == [("algebra.join", strategy)]
        # two sites, in execution order; a replicated side joins locally
        db.create_table("tiny", {"t_key": np.arange(6, dtype=np.int32),
                                 "z": np.arange(6, dtype=np.int32)})
        both = ("SELECT sum(v * w) AS s, sum(z) AS sz FROM fact "
                "JOIN dim ON f_key = d_key JOIN tiny ON g = t_key")
        text = con.explain(both, analyze=True)
        assert (f"# joins: algebra.join={strategy}, algebra.join=local"
                in text)
        # engines that decide no join print no such line
        assert "# joins:" not in db.connect("MS").explain(JOIN_SQL,
                                                          analyze=True)

    def test_traffic_counters_accumulate_and_reset(self):
        db = make_db()
        con = db.connect("SHARD:2xMS,join=broadcast")
        con.execute(JOIN_SQL)
        first = query_traffic(con)["total"]
        total1 = query_traffic(con, "interconnect")["total"]
        assert first > 0 and total1 >= first
        assert con.metrics.snapshot()["interconnect.bytes_total"] == total1
        con.execute("SELECT sum(v) AS s FROM fact")
        assert query_traffic(con)["broadcast"] == 0
        assert query_traffic(con, "interconnect")["total"] > total1

    def test_single_node_engines_report_no_traffic(self):
        db = make_db()
        snap = db.connect("MS").metrics.snapshot()
        assert not any(key.startswith("interconnect.") for key in snap)

    def test_shuffle_moves_rows_by_value(self):
        """The shuffle join's primitive re-partitions a column by value
        and maps every shuffled row back to its source position; it is
        no operator a plan can name."""
        from repro.monetdb import partials
        from repro.monetdb.mal import ColumnRef

        db = make_db()
        con = db.connect("SHARD:3xMS")
        backend = con.backend
        backend.begin()
        assert not backend.supports("shard.shuffle")
        column = backend.resolve("sql.bind")(ColumnRef("fact", "f_key"))
        place = backend.partitioner.default_placement
        shuffled, mapping = backend._shuffle(column, place)
        assert shuffled.partitioned and len(mapping) == 3
        # shard-to-shard moves were charged
        assert backend.traffic.query.bytes_shuffled > 0

        def host(value):
            return [partials.host_array(child, part)
                    for child, part in zip(backend.children, value.parts)]

        for dest, keys in enumerate(host(shuffled)):
            assert np.all(place(keys) == dest)
        merged = np.concatenate(host(shuffled))
        parent = db.catalog.bat("fact", "f_key").values
        np.testing.assert_array_equal(np.sort(merged), np.sort(parent))
        # the mapping sends every shuffled row back to its source position
        concat = np.concatenate(host(column))
        np.testing.assert_array_equal(concat[np.concatenate(mapping)], merged)

    def test_thetajoin_still_broadcasts(self):
        db = make_db()
        sql = ("SELECT count(*) AS n FROM fact JOIN dim ON f_key = d_key "
               "WHERE v < w")
        expected = db.connect("MS").execute(sql)
        con = db.connect("SHARD:2xMS,key=fact.f_key,key=dim.d_key")
        got = con.execute(sql)
        assert_results_equal(expected, got, rtol=0)


class TestKeyInference:
    def test_infer_adopts_keys_and_second_run_colocates(self):
        db = make_db()
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:3xMS,keys=infer")
        first = con.execute(JOIN_SQL)
        assert_results_equal(expected, first, rtol=1e-5)
        assert join_trace(con)[0][1] != JOIN_COLOCATED
        assert con.backend.partitioner.co_located(
            ("fact", "f_key"), ("dim", "d_key")
        )
        second = con.execute(JOIN_SQL)
        assert_results_equal(expected, second, rtol=1e-5)
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]
        assert query_traffic(con)["shuffled"] == 0

    def test_adoption_recompiles_nothing(self):
        """An adopted key is layout: the plan that observed the join is
        the plan that runs it co-located — on this connection and on
        every other engine's."""
        db = make_db()
        con = db.connect("SHARD:2xMS,keys=infer")
        other = db.connect("CPU")
        other.execute(JOIN_SQL)
        stats = db.plan_cache.stats
        con.execute(JOIN_SQL)
        (entry,) = [e for key, e in db.plan_cache._entries.items()
                    if key[1] == con.engine]
        before = (stats.misses, stats.invalidations)
        assert con.backend.partitioner.key_of("fact") is not None
        con.execute(JOIN_SQL)
        other.execute(JOIN_SQL)
        assert (stats.misses, stats.invalidations) == before
        assert entry in db.plan_cache._entries.values()
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]

    def test_adoption_happens_once(self):
        db = make_db()
        con = db.connect("SHARD:2xMS,keys=infer")
        con.execute(JOIN_SQL)
        partitioner = con.backend.partitioner
        keys = (partitioner.key_of("fact"), partitioner.key_of("dim"))
        assert None not in keys
        slices = [catalog.version for catalog in partitioner.catalogs]
        con.execute(JOIN_SQL)
        con.execute(JOIN_SQL)
        assert (partitioner.key_of("fact"), partitioner.key_of("dim")) == keys
        # ... and nothing was re-sliced again
        assert [c.version for c in partitioner.catalogs] == slices

    def test_adoption_waits_for_statements_in_flight(self):
        """Regression (found by the DDL-interleaving property): a
        statement ending while a join was mid-flight adopted the join's
        observed key and re-sliced both tables under it — the join then
        finished over a mix of layouts and silently returned wrong
        sums."""
        db = make_db()
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:2xCPU,keys=infer")
        in_flight = con.submit(JOIN_SQL)
        for _ in range(3):
            assert con.scheduler.step()     # the join site is planned
        partitioner = con.backend.partitioner
        slices = [catalog.version for catalog in partitioner.catalogs]
        con.execute("SELECT sum(v) AS s FROM fact")
        # not adopted mid-join: no key, and no table re-sliced
        assert partitioner.key_of("fact") is None
        assert partitioner.key_of("dim") is None
        assert [c.version for c in partitioner.catalogs] == slices
        con.drain()
        assert_results_equal(expected, in_flight.result(), rtol=1e-5)
        # the observation kept: adopted once the connection went quiet
        assert partitioner.key_of("fact") is not None
        assert partitioner.key_of("dim") is not None
        assert [c.version for c in partitioner.catalogs] != slices
        assert_results_equal(expected, con.execute(JOIN_SQL), rtol=1e-5)

    def test_adoption_is_a_queued_layout_change(self):
        """An observed join queues the adoption as a roster change is
        queued: ``cluster.pending`` while the statement is in flight,
        nothing re-sliced, and the ``settle()`` of the drained batch
        lands it."""
        db = make_db()
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:2xCPU,keys=infer")
        cluster, partitioner = con.backend.cluster, con.backend.partitioner
        slices = [catalog.version for catalog in partitioner.catalogs]
        assert not cluster.pending
        landed = []
        settle = cluster.settle

        def watched_settle():
            before = partitioner.key_of("fact")
            settle()
            landed.append((before, partitioner.key_of("fact")))

        cluster.settle = watched_settle
        future = con.submit(JOIN_SQL)
        while not cluster.pending:
            assert con.scheduler.step()     # up to the join site
        assert not future.done()
        assert partitioner.key_of("fact") is None
        assert [c.version for c in partitioner.catalogs] == slices
        con.drain()
        assert_results_equal(expected, future.result(), rtol=1e-5)
        (before, after), = landed
        assert before is None and after is not None
        assert partitioner.key_of("dim") is not None
        assert [c.version for c in partitioner.catalogs] != slices
        assert not cluster.pending

    def test_keys_off_ignores_declarations(self):
        db = make_db()
        db.declare_shard_key("fact", "f_key")
        db.declare_shard_key("dim", "d_key")
        expected = db.connect("MS").execute(JOIN_SQL)
        con = db.connect("SHARD:2xMS,keys=off")
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert join_trace(con)[0][1] != JOIN_COLOCATED
        assert con.backend.partitioner.key_of("fact") is None


class TestStrategyDecidedAtRunTime:
    """A cached SHARD plan is its program and nothing else: every join
    site is decided from the operands and the live partitioner when it
    runs, so there is no strategy to record, replay or invalidate."""

    def test_repeat_query_decides_again_and_replays_nothing(self):
        db = make_db()
        con = db.connect("SHARD:2xMS,key=fact.f_key,key=dim.d_key")
        con.execute(JOIN_SQL)
        stats = con.plan_cache.stats
        hits = stats.hits
        con.execute(JOIN_SQL)
        assert stats.hits == hits + 1
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]

    def test_a_key_declaration_keeps_the_plan_and_moves_the_decision(self):
        db = make_db()
        con = db.connect("SHARD:2xMS")
        stats = con.plan_cache.stats
        expected = db.connect("MS").execute(JOIN_SQL)
        con.execute(JOIN_SQL)
        assert join_trace(con)[0][1] != JOIN_COLOCATED
        entry = db.plan_cache._entries[
            next(k for k in db.plan_cache._entries if k[1] == con.engine)]
        misses = stats.misses
        # a shard key is layout, not schema: same plan, new decision
        db.declare_shard_key("fact", "f_key")
        db.declare_shard_key("dim", "d_key")
        got = con.execute(JOIN_SQL)
        assert (stats.misses, stats.invalidations) == (misses, 0)
        assert entry in db.plan_cache._entries.values()
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]
        assert query_traffic(con)["shuffled"] == 0
        assert_results_equal(expected, got, rtol=1e-5)
        # DDL on a table the join reads: recompiled (both engines' plans)
        columns = {name: db.catalog.bat("dim", name).values
                   for name in db.catalog.columns("dim")}
        db.drop_table("dim")
        db.create_table("dim", columns)
        assert stats.invalidations == 2
        assert_results_equal(expected, con.execute(JOIN_SQL), rtol=1e-5)
        assert stats.misses == misses + 1
        # the re-created table lost its declared key with the drop
        assert join_trace(con)[0][1] != JOIN_COLOCATED

    def test_an_entry_holds_the_plan_and_nothing_a_run_decided(self):
        """A plan-cache entry is the compiled program, the table stamps
        it compiled against and its bound copies: no slot for a join
        strategy (or a HET placement) a run could leave behind."""
        db = make_db()
        con = db.connect("SHARD:2xMS,key=fact.f_key,key=dim.d_key")
        con.execute(JOIN_SQL)
        entry, _ = db.plan_cache.prepare(JOIN_SQL, con.config, db.schema)
        assert set(vars(entry)) == {"key", "program", "versions", "hits",
                                    "binds"}
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]


class TestStaleLayoutRegression:
    """Satellite: no cached layout or broadcast may survive DDL.

    ``ShardedValue._gathered`` broadcasts are per-value and die with
    the query run, so they cannot leak across queries; the *real*
    cross-DDL hazard was the partitioner's sync skipping tables it had
    already installed — a key declared after first contact would leave
    row-id slices behind while ``co_located`` started saying yes.
    These tests pin the fixed behaviour end to end."""

    def test_key_declared_on_live_connection_repartitions(self):
        db = make_db()
        con = db.connect("SHARD:2xMS")
        expected = db.connect("MS").execute(JOIN_SQL)
        assert_results_equal(expected, con.execute(JOIN_SQL), rtol=1e-5)
        # DDL while the sharded backend is live and warm
        db.declare_shard_key("fact", "f_key")
        db.declare_shard_key("dim", "d_key")
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]
        # the shard slices really are keyed now, not stale row-id runs
        part = con.backend.partitioner
        for catalog in part.catalogs:
            fact_keys = set(catalog.bat("fact", "f_key").values.tolist())
            dim_keys = set(catalog.bat("dim", "d_key").values.tolist())
            assert fact_keys <= dim_keys

    def test_drop_and_recreate_does_not_reuse_old_broadcast(self):
        db = make_db(n_dim=600)
        con = db.connect("SHARD:2xMS,join=broadcast")
        first = con.execute(JOIN_SQL)
        rng = np.random.default_rng(99)
        db.drop_table("dim")
        db.create_table("dim", {
            "d_key": np.arange(600, dtype=np.int32),
            "w": rng.random(600).astype(np.float32),
            "pad": np.zeros(600, dtype=np.int32),
        })
        expected = db.connect("MS").execute(JOIN_SQL)
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert not np.allclose(
            got.column("s"), first.column("s"), rtol=1e-5
        )

    def test_domain_widening_ddl_repartitions_members(self):
        """Range mode: a new table joining a key domain widens its
        bounds; existing member tables must re-slice to the new bands
        or co-location would silently mis-join."""
        db = make_db()
        db.declare_shard_key("fact", "f_key")
        db.declare_shard_key("dim", "d_key")
        con = db.connect("SHARD:2xMS")
        expected = db.connect("MS").execute(JOIN_SQL)
        assert_results_equal(expected, con.execute(JOIN_SQL), rtol=1e-5)
        # a third table in the same domain, with a far wider key range
        db.create_table("extra", {
            "xk": np.arange(0, 60_000, 10, dtype=np.int32),
        })
        db.declare_shard_key("extra", "xk", domain="d_key")
        part = con.backend.partitioner
        assert part.domains["d_key"] == (0.0, 59_990.0)
        got = con.execute(JOIN_SQL)
        assert_results_equal(expected, got, rtol=1e-5)
        assert join_trace(con) == [("algebra.join", JOIN_COLOCATED)]


class TestTPCHKeyModes:
    """The acceptance matrix: every TPC-H query matches single-node
    results with shard keys declared, inferred, and absent, on range
    and hash partitioning."""

    FAST = ("Q3", "Q12")

    @pytest.fixture(scope="class")
    def tpch(self):
        return repro.tpch_database(sf=1)

    SPECS = (
        "SHARD:2xMS,join=broadcast",
        "SHARD:2xMS",
        "SHARD:2xMS,hash",
        "SHARD:2xMS,key=lineitem.l_orderkey,key=orders.o_orderkey",
        "SHARD:2xMS,hash,key=lineitem.l_orderkey,key=orders.o_orderkey",
        "SHARD:2xMS,keys=infer",
    )

    def _check(self, tpch, spec, query):
        from repro.tpch import WORKLOAD

        expected = tpch.connect("MS").execute(WORKLOAD[query], name=query)
        got = tpch.connect(spec).execute(WORKLOAD[query], name=query)
        assert set(expected.columns) == set(got.columns)
        for column in expected.columns:
            np.testing.assert_allclose(
                got.columns[column].astype(np.float64),
                expected.columns[column].astype(np.float64),
                rtol=1e-5, atol=1e-8, err_msg=f"{spec} {query} {column}",
            )

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("query", FAST)
    def test_join_queries_fast(self, tpch, spec, query):
        self._check(tpch, spec, query)

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("query", [
        "Q1", "Q4", "Q5", "Q6", "Q7", "Q8", "Q10", "Q11", "Q15",
        "Q17", "Q19", "Q21",
    ])
    def test_whole_workload(self, tpch, spec, query):
        self._check(tpch, spec, query)
