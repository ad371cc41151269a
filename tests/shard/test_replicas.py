"""Replicated shard topology (PR 10): chained-declustered copies,
re-partition-free failover, read balancing, and the ``cluster.*``
counters.

The load-bearing property: killing a node on a ``replicas=2`` cluster
changes *routing*, never *placement* — the layout signatures and the
active node set are bit-identical across the failover, and the results
match the clean run exactly (the promoted copy holds the same slice).
"""

import numpy as np
import pytest

from repro.api import Database
from repro.serve.faults import (
    NodeFault,
    RetryableFault,
    wrap_shard_child,
    wrap_shard_node,
)
from repro.shard.replica import ClusterStats, ReplicaRouting


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
    rng = np.random.default_rng(41)
    database = Database()
    database.create_table("fact", {
        "k": rng.integers(0, 500, 6000).astype(np.int64),
        "v": rng.random(6000).astype(np.float64),
    })
    database.create_table("dim", {
        "k": np.arange(500, dtype=np.int64),
        "w": rng.random(500).astype(np.float64),
    })
    yield database
    database.close()


AGG = "SELECT sum(v) AS s, count(*) AS n FROM fact"
GROUPED = "SELECT k, sum(v) AS s FROM fact GROUP BY k"
JOIN = ("SELECT sum(v) AS s FROM fact JOIN dim ON fact.k = dim.k "
        "WHERE w < 0.5")


class TestReplicaRouting:
    def test_chained_declustering_hosts(self):
        routing = ReplicaRouting(4, replicas=3)
        # copy k of slot s lives on node (s + k) % n
        assert routing.host(0, 0) == 0
        assert routing.host(0, 2) == 2
        assert routing.host(3, 1) == 0
        assert routing.host(3, 2) == 1
        # every copy of one slot is on a distinct node
        for slot in range(4):
            hosts = {routing.host(slot, k) for k in range(3)}
            assert len(hosts) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaRouting(2, replicas=3)
        with pytest.raises(ValueError):
            ReplicaRouting(2, replicas=0)

    def test_failover_is_a_routing_change(self):
        routing = ReplicaRouting(4, replicas=2)
        plan = routing.plan_failover(1, healthy=lambda n: n != 1)
        # node 1 serves exactly its primary slot; the replica of slot 1
        # lives on node 2
        assert plan == {1: 1}
        promoted, recovered = routing.apply(plan)
        assert (promoted, recovered) == (1, 0)
        assert routing.degraded
        assert routing.host(1) == 2
        # everything else still routes to its primary
        assert routing.slots_on(1) == []
        assert routing.promoted == {1}

    def test_failover_unservable_slot_returns_none(self):
        routing = ReplicaRouting(2, replicas=2)
        routing.apply({1: 1})                       # slot 1 -> node 0
        # now node 0 dies and node 1 is also unhealthy: slot 0 has no
        # healthy copy anywhere
        assert routing.plan_failover(0, healthy=lambda n: False) is None

    def test_rejoin_demotes_back_to_primaries(self):
        routing = ReplicaRouting(4, replicas=2)
        routing.apply(routing.plan_failover(1, lambda n: n != 1))
        assert routing.rejoin_plan(healthy=lambda n: n != 1) == {}
        plan = routing.rejoin_plan(healthy=lambda n: True)
        assert plan == {1: 0}
        promoted, recovered = routing.apply(plan)
        assert (promoted, recovered) == (0, 1)
        assert not routing.degraded

    def test_rotate_round_robins_the_copies(self):
        routing = ReplicaRouting(4, replicas=2)
        assert routing.rotate(1) is True
        assert routing.copy_of == [1, 1, 1, 1]
        assert routing.rotate(1) is False           # already there
        assert routing.rotate(2) is True
        assert routing.copy_of == [0, 0, 0, 0]
        # single-copy clusters never change
        assert ReplicaRouting(4, replicas=1).rotate(7) is False


class TestReplicatedExecution:
    @pytest.mark.parametrize("sql", [AGG, GROUPED, JOIN])
    def test_matches_unreplicated_layout(self, db, sql):
        plain = db.connect("SHARD:4xCPU").execute(sql)
        replicated = db.connect("SHARD:4xCPU,replicas=2").execute(sql)
        assert_results_equal(plain, replicated)

    def test_copies_hold_identical_slices(self, db):
        backend = db.connect("SHARD:4xCPU,replicas=3").backend
        partitioner = backend.partitioner
        for slot in range(partitioner.n_shards):
            primary, *row = partitioner.copies(slot)
            for copy_catalog in row:
                assert copy_catalog.row_count("fact") == \
                    primary.row_count("fact")
        # the primary list stays the catalogs alias older code uses
        assert partitioner.catalogs == [
            partitioner.copies(slot)[0]
            for slot in range(partitioner.n_shards)
        ]

    def test_read_balancing_rotates_without_recompiling(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        backend = con.backend
        for _ in range(4):
            con.execute(AGG)
        stats = backend.cluster.stats
        assert stats.reads_balanced >= 2
        # rotation swaps which copy serves reads...
        for slot in range(4):
            copy = backend.cluster.routing.copy_of[slot]
            host = backend.partitioner.host(slot, copy)
            assert backend.children[slot] is backend.grid[host][copy]
        # ...but never re-partitions or invalidates plans
        cache = db.plan_cache.stats
        assert (cache.misses, cache.hits, cache.invalidations) == (1, 3, 0)
        assert stats.topology_changes == 0


class TestFailover:
    def test_promotion_without_repartition(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        backend = con.backend
        signatures = dict(backend.partitioner._signatures)
        roster = backend.partitioner.roster

        wrappers = wrap_shard_node(backend, 2)
        assert len(wrappers) == 2                   # primary + a replica
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 2 down")
        assert_results_equal(clean, con.execute(GROUPED))

        stats = backend.cluster.stats
        assert stats.promotions >= 1
        assert stats.topology_changes >= 1
        assert backend.cluster.routing.degraded
        # the acceptance assertion: failover is a pure routing change
        assert dict(backend.partitioner._signatures) == signatures
        assert backend.partitioner.roster == roster
        assert backend.health.breaker(("shard", 2)).trips >= 1

    def test_degraded_reads_are_counted(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(AGG)
        backend = con.backend
        for wrapper in wrap_shard_node(backend, 1):
            wrapper.always = NodeFault("node 1 down")
        con.execute(AGG)
        before = backend.cluster.stats.degraded_reads
        assert before >= 1
        con.execute(AGG)
        assert backend.cluster.stats.degraded_reads > before

    def test_promotion_keeps_cached_plans(self, db):
        """A failover is a routing change and a plan holds no routing:
        the statement that rode it out, and the next one, run the plan
        compiled before the node died — and decide their joins as a
        fresh connection on the same layout does."""
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(JOIN)
        con.execute(JOIN)
        spec = con.engine
        entries = {key: entry for key, entry
                   in db.plan_cache._entries.items() if key[1] == spec}
        assert entries
        for wrapper in wrap_shard_node(con.backend, 0):
            wrapper.always = NodeFault("node 0 down")
        fresh = db.connect("SHARD:4xCPU")
        clean = fresh.execute(JOIN)
        stats = db.plan_cache.stats
        before = (stats.misses, stats.invalidations)
        assert_results_equal(clean, con.execute(JOIN))
        assert con.backend.cluster.stats.promotions >= 1
        assert con.backend.decision_log == fresh.backend.decision_log
        hits = stats.hits
        assert_results_equal(clean, con.execute(JOIN))
        assert stats.hits == hits + 1
        assert (stats.misses, stats.invalidations) == before
        for key, entry in entries.items():
            assert db.plan_cache._entries[key] is entry

    def test_recovery_rejoins_the_primary(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(GROUPED)
        backend = con.backend
        wrappers = wrap_shard_node(backend, 3)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 3 down")
        assert_results_equal(clean, con.execute(GROUPED))
        assert backend.cluster.routing.degraded

        for wrapper in wrappers:
            wrapper.always = None                   # node heals
        for _ in range(10):                         # cooldown ticks
            backend.query_boundary()
        assert not backend.cluster.routing.degraded
        stats = backend.cluster.stats
        assert stats.recoveries >= 1
        assert_results_equal(clean, con.execute(GROUPED))

    def test_losing_every_copy_fails_the_query(self, db):
        con = db.connect("SHARD:2xCPU,replicas=2")
        con.execute(AGG)
        for node in (0, 1):
            for wrapper in wrap_shard_node(con.backend, node):
                wrapper.always = NodeFault(f"node {node} down")
        with pytest.raises(NodeFault):
            con.execute(AGG)

    def test_single_replica_keeps_exclusion_semantics(self, db):
        """replicas=1 (the default) still re-partitions over the
        healthy remainder — the PR-7 arc is unchanged."""
        con = db.connect("SHARD:3xCPU")
        clean = con.execute(AGG)
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        assert_results_equal(clean, con.execute(AGG))
        assert len(sick.injected) == 3
        assert con.backend.cluster.stats.promotions == 0


class TestRetryableBlips:
    def test_blip_absorbed_before_the_breaker(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(AGG)
        backend = con.backend
        faulty = wrap_shard_child(backend, 0, schedule={
            2: RetryableFault("network blip"),
        })
        trips = sum(b.trips for b in backend.health)
        assert_results_equal(clean, con.execute(AGG))
        assert len(faulty.injected) == 1
        assert backend.cluster.stats.retries >= 1
        # absorbed in place: no breaker charge, no promotion
        assert sum(b.trips for b in backend.health) == trips
        assert not backend.cluster.routing.degraded

    def test_persistent_blip_escalates_to_the_breaker(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(AGG)
        backend = con.backend
        for wrapper in wrap_shard_node(backend, 1):
            wrapper.always = RetryableFault("stuck blip")
        assert_results_equal(clean, con.execute(AGG))
        # outlived the in-place retry budget: charged like a hard fault
        assert backend.cluster.stats.retries >= 1
        assert backend.health.breaker(("shard", 1)).trips >= 1
        assert backend.cluster.stats.promotions >= 1


class TestClusterMetricsSurface:
    def test_snapshot_exposes_cluster_namespace(self, db):
        con = db.connect("SHARD:4xCPU,replicas=2")
        con.execute(AGG)
        snapshot = con.metrics.snapshot()
        assert snapshot["cluster.nodes"] == 4
        assert snapshot["cluster.replicas"] == 2
        for field in ("promotions", "recoveries", "degraded_reads",
                      "retries", "ranges_migrated", "topology_changes",
                      "reads_balanced"):
            assert f"cluster.{field}" in snapshot

    def test_single_node_engines_have_no_cluster_section(self, db):
        con = db.connect("CPU")
        con.execute(AGG)
        assert con.backend.cluster is None
        assert not any(k.startswith("cluster.")
                       for k in con.metrics.snapshot())

    def test_stats_default_shape(self):
        stats = ClusterStats()
        assert stats.nodes == 0 and stats.replicas == 1
        assert stats.promotions == 0 and stats.ranges_migrated == 0
