"""Online re-sharding (PR 10): ``Database.add_shard`` /
``remove_shard`` queue a new roster of nodes, installed at the first
query boundary with nothing in flight — in-flight ``submit()`` batches
drain against the old layout while new admissions route to the new one
— and the installed layout is indistinguishable from a freshly-built
cluster of the same size.  A node keeps its id, child, breaker and
fault wrapper through a resize: a dead node stays dead.
"""

import numpy as np
import pytest

from repro.api import Database
from repro.serve.faults import NodeFault, wrap_shard_child, wrap_shard_node
from repro.serve.resilience import DEFAULT_COOLDOWN
from repro.serve.session import QueryCancelled


def assert_results_equal(expected, got, rtol=1e-6):
    assert got.n_rows == expected.n_rows
    assert list(got.columns) == list(expected.columns)
    for name in expected.columns:
        np.testing.assert_allclose(
            got.columns[name].astype(np.float64),
            expected.columns[name].astype(np.float64),
            rtol=rtol, err_msg=name,
        )


@pytest.fixture
def db():
    rng = np.random.default_rng(59)
    database = Database()
    database.create_table("fact", {
        "k": rng.integers(0, 400, 5000).astype(np.int64),
        "v": rng.random(5000).astype(np.float64),
    })
    yield database
    database.close()


AGG = "SELECT sum(v) AS s, count(*) AS n FROM fact"
GROUPED = "SELECT k, sum(v) AS s FROM fact GROUP BY k"


def fresh_result(sql, n_shards, replicas, seed_db_args=59):
    """The same query on a freshly-built cluster of the target size —
    the committed layout must be indistinguishable from it."""
    rng = np.random.default_rng(seed_db_args)
    with Database() as other:
        other.create_table("fact", {
            "k": rng.integers(0, 400, 5000).astype(np.int64),
            "v": rng.random(5000).astype(np.float64),
        })
        spec = f"SHARD:{n_shards}xCPU,replicas={replicas}"
        return other.connect(spec).execute(sql)


class TestResize:
    def test_add_shard_matches_fresh_layout(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(GROUPED)
        db.add_shard()
        backend = con.backend
        assert backend.cluster.nodes == 5
        assert not backend.cluster.pending
        assert backend.partitioner.n_shards == 5
        assert len(backend.children) == 5
        assert_results_equal(
            fresh_result(GROUPED, 5, 2), con.execute(GROUPED)
        )
        stats = backend.cluster.stats
        assert stats.ranges_migrated > 0
        assert stats.topology_changes >= 1
        assert stats.nodes == 5

    def test_remove_shard_matches_fresh_layout(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        before = con.execute(GROUPED)
        db.remove_shard()
        assert con.backend.cluster.nodes == 3
        after = con.execute(GROUPED)
        assert_results_equal(fresh_result(GROUPED, 3, 2), after)
        assert_results_equal(before, after, rtol=1e-5)

    def test_resizes_compose(self, db):
        con = db.connect("SHARD:3xCPU,replicas=2")
        con.execute(AGG)
        db.add_shard()
        db.add_shard()
        assert con.backend.cluster.nodes == 5
        db.remove_shard()
        assert con.backend.cluster.nodes == 4
        assert_results_equal(
            fresh_result(AGG, 4, 2), con.execute(AGG)
        )

    def test_replicas_clamped_to_one_node(self, db):
        con = db.connect("SHARD:2xCPU,replicas=2")
        con.execute(AGG)
        db.remove_shard()
        backend = con.backend
        assert backend.cluster.nodes == 1
        assert backend.replicas == 1
        assert_results_equal(
            fresh_result(AGG, 1, 1), con.execute(AGG)
        )
        with pytest.raises(ValueError):
            db.remove_shard()

    def test_resize_without_sharded_connection_raises(self, db):
        db.connect("CPU").execute(AGG)
        with pytest.raises(RuntimeError):
            db.add_shard()


class TestResizeUnderTraffic:
    def test_in_flight_batches_drain_against_old_layout(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        futures = [con.submit(GROUPED) for _ in range(4)]
        db.add_shard()                              # mid-batch
        backend = con.backend
        # the resize is staged, not torn through the running batch
        assert backend.cluster.pending
        assert backend.partitioner.n_shards == 4
        for future in futures:
            assert_results_equal(clean, future.result())
        con.drain()
        # the drained batch let the migration finish and commit
        assert not backend.cluster.pending
        assert backend.partitioner.n_shards == 5
        assert_results_equal(
            fresh_result(GROUPED, 5, 2), con.execute(GROUPED)
        )

    def test_new_admissions_route_to_new_layout(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        db.add_shard()
        futures = [con.submit(GROUPED) for _ in range(3)]
        results = [future.result() for future in futures]
        for result in results:
            assert_results_equal(clean, result, rtol=1e-5)
        assert con.backend.partitioner.n_shards == 5

    def test_cancel_mid_migration_leaves_no_partial_layout(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        futures = [con.submit(GROUPED) for _ in range(3)]
        db.add_shard()
        backend = con.backend
        assert backend.cluster.pending
        assert futures[1].cancel()
        with pytest.raises(QueryCancelled):
            futures[1].result()
        assert_results_equal(clean, futures[0].result())
        assert_results_equal(clean, futures[2].result())
        con.drain()
        # no half-migrated layout survives the cancelled batch
        assert not backend.cluster.pending
        assert backend.partitioner.n_shards == 5
        assert backend.partitioner.roster == backend.cluster.roster
        assert_results_equal(
            fresh_result(GROUPED, 5, 2), con.execute(GROUPED)
        )

    def test_cancel_everything_still_commits(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(AGG)
        futures = [con.submit(AGG) for _ in range(2)]
        db.remove_shard()
        for future in futures:
            future.cancel()
        con.drain()
        backend = con.backend
        assert not backend.cluster.pending
        assert backend.partitioner.n_shards == 3
        assert_results_equal(
            fresh_result(AGG, 3, 2), con.execute(AGG)
        )


class TestResizeKeepsPlans:
    def test_commit_recompiles_nothing(self, db):
        """A committed resize replaces every child and recompiles no
        plan: the next statement is a hit on the entry it had, and
        decides its joins as a fresh connection on the new layout."""
        db.create_table("dim", {
            "k": np.arange(400, dtype=np.int64),
            "w": np.linspace(0.0, 1.0, 400),
        })
        join = ("SELECT sum(v) AS s FROM fact JOIN dim "
                "ON fact.k = dim.k WHERE w < 0.5")
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(join)
        con.execute(join)
        spec = con.engine
        entries = {key: entry for key, entry
                   in db.plan_cache._entries.items() if key[1] == spec}
        assert entries
        stats = db.plan_cache.stats
        before = (stats.hits, stats.misses, stats.invalidations)
        changes = con.backend.cluster.stats.topology_changes
        db.add_shard()
        assert con.backend.cluster.stats.topology_changes == changes + 1
        assert con.backend.partitioner.n_shards == 5
        assert_results_equal(
            db.connect("CPU").execute(join), con.execute(join),
            rtol=1e-5,
        )
        assert (stats.hits, stats.misses, stats.invalidations) == (
            before[0] + 1, before[1] + 1, before[2])    # the miss: CPU's
        for key, entry in entries.items():
            assert db.plan_cache._entries[key] is entry
        fresh = db.connect("SHARD:5xCPU,replicas=2")
        fresh.execute(join)
        assert con.backend.decision_log == fresh.backend.decision_log


class TestDDLReslicesANeighbour:
    """A DDL on one table re-slices every table keyed in its domain.
    The statements in flight over those neighbours held slices of the
    old layout (positions into rows that moved), so they park and re-run
    on the new one — the failover path — instead of crashing
    (``IndexError`` in the next gather) or answering from a mix."""

    JOIN = ("SELECT sum(v) AS s, count(*) AS n FROM a JOIN b "
            "ON a.k = b.k WHERE w < 5")

    @staticmethod
    def keyed(spec):
        rng = np.random.default_rng(3)
        database = Database()
        database.create_table("a", {
            "k": rng.integers(0, 1000, 4000).astype(np.int32),
            "v": rng.integers(0, 10, 4000).astype(np.int32),
        })
        database.create_table("b", {
            "k": np.arange(1000, dtype=np.int32),
            "w": rng.integers(0, 100, 1000).astype(np.int32),
        })
        database.declare_shard_key("a", "k", "kd")
        database.declare_shard_key("b", "k", "kd")
        return database, database.connect(spec)

    @staticmethod
    def wide():
        return {"k": np.arange(-50000, 50000, 50, dtype=np.int32)}

    def ddl(self, database, variant):
        if variant == "create":
            database.create_table("c", self.wide())
            database.declare_shard_key("c", "k", "kd")
        elif variant == "drop":
            database.drop_table("c")
        else:
            database.create_table("c", self.wide())     # keyed nowhere

    @pytest.mark.parametrize("spec, variant, parks", [
        ("SHARD:3xCPU", "create", 3),
        ("SHARD:3xCPU", "drop", 3),
        ("SHARD:3xCPU", "unkeyed", 0),
        ("CPU", "create", 0),
    ])
    def test_statements_in_flight_re_run(self, spec, variant, parks):
        database, con = self.keyed(spec)
        with database:
            expected = database.connect("MS").execute(self.JOIN)
            if variant == "drop":
                database.create_table("c", self.wide())
                database.declare_shard_key("c", "k", "kd")
            futures = [con.submit(self.JOIN) for _ in range(3)]
            for _ in range(7):
                con.scheduler.step()
            self.ddl(database, variant)
            for future in futures:
                assert_results_equal(expected, future.result(), rtol=0)
            assert con.scheduler.parked == parks


class TestResizeKeepsNodes:
    """A resize adds or retires node ids; it never rebuilds the nodes
    that stay, so it cannot "heal" one whose breaker is still open."""

    @staticmethod
    def exclude_node_1(db):
        con = db.connect("SHARD:3xCPU")
        clean = con.execute(GROUPED)
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        assert_results_equal(clean, con.execute(GROUPED))
        assert con.backend.cluster.excluded == {1}
        return con, clean, sick

    def test_excluded_node_stays_out_through_add_shard(self, db):
        con, clean, sick = self.exclude_node_1(db)
        backend = con.backend
        db.add_shard()
        assert backend.cluster.excluded == {1}
        assert backend.partitioner.roster == (0, 2, 3)
        assert backend.health.breaker(("shard", 1)).state == "open"
        assert backend.grid[1][0] is sick
        assert_results_equal(clean, con.execute(GROUPED), rtol=1e-5)
        # the breaker cools down: the node rejoins as itself
        for _ in range(DEFAULT_COOLDOWN):
            con.execute(GROUPED)
        assert backend.cluster.excluded == set()
        assert backend.partitioner.roster == (0, 1, 2, 3)
        assert backend.grid[1][0] is sick
        assert_results_equal(
            fresh_result(GROUPED, 4, 1), con.execute(GROUPED)
        )

    def test_promoted_cluster_stays_degraded_through_add_shard(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        backend = con.backend
        wrappers = wrap_shard_node(backend, 2)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 2 down")
        assert_results_equal(clean, con.execute(GROUPED))
        assert backend.cluster.routing.degraded
        db.add_shard()
        assert backend.cluster.routing.degraded
        assert backend.partitioner.roster == (0, 1, 2, 3, 4)
        assert backend.grid[2] == wrappers
        assert backend.health.breaker(("shard", 2)).state == "open"
        assert not any(child in wrappers for child in backend.children)
        assert_results_equal(clean, con.execute(GROUPED), rtol=1e-5)

    def test_remove_shard_retires_the_excluded_node(self, db):
        con, clean, _sick = self.exclude_node_1(db)
        backend = con.backend
        db.remove_shard()
        assert backend.cluster.nodes == 2
        assert backend.cluster.excluded == set()
        assert backend.partitioner.roster == (0, 2)
        assert sorted(backend.grid) == [0, 2]
        assert_results_equal(clean, con.execute(GROUPED))

    def test_remove_shard_retires_the_highest_id(self, db):
        con = db.connect("SHARD:4xCPU")
        clean = con.execute(GROUPED)
        db.remove_shard()
        backend = con.backend
        assert backend.partitioner.roster == (0, 1, 2)
        assert sorted(backend.grid) == [0, 1, 2]
        db.add_shard()                  # a fresh id, never a reused one
        assert backend.partitioner.roster == (0, 1, 2, 4)
        assert_results_equal(clean, con.execute(GROUPED), rtol=1e-5)

    def test_shrink_leaving_no_healthy_node_is_refused(self, db):
        con = db.connect("SHARD:2xCPU,replicas=2")
        clean = con.execute(GROUPED)
        backend = con.backend
        for wrapper in wrap_shard_node(backend, 0):
            wrapper.always = NodeFault("node 0 down")
        assert_results_equal(clean, con.execute(GROUPED))
        with pytest.raises(ValueError, match="no healthy node"):
            db.remove_shard()
        assert backend.cluster.nodes == 2
        assert not backend.cluster.pending
        assert_results_equal(clean, con.execute(GROUPED))
