"""Breaker recovery under pipelined sessions (PR 10).

The half-open probe does not get a quiet machine: these tests race the
cooldown probe against concurrent ``submit()`` batches and assert the
trip → degraded service → rejoin arc never changes results, whether the
probe finds the node healed or re-trips on a still-sick primary.
"""

import numpy as np
import pytest

from repro.serve.faults import NodeFault, wrap_shard_node

SQL = "SELECT x, sum(y) AS s, count(*) AS n FROM points GROUP BY x"


def _batch(con, n=4):
    futures = [con.submit(SQL) for _ in range(n)]
    return [future.result() for future in futures]


class TestHalfOpenUnderTraffic:
    def test_recovery_races_concurrent_batches(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:2xCPU,replicas=2")
        clean = con.execute(SQL)
        backend = con.backend

        wrappers = wrap_shard_node(backend, 1)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 1 down")
        for result in _batch(con):
            assert_results_equal(clean, result, "degraded batch")
        # (routing.degraded itself may already have flipped back: the
        # half-open probe rejoins optimistically between batches)
        assert backend.cluster.stats.promotions >= 1

        # the node heals, but the probe has to fire *between* batches
        # of in-flight sessions — never a quiet boundary
        for wrapper in wrappers:
            wrapper.always = None
        for round_index in range(10):
            for result in _batch(con):
                assert_results_equal(
                    clean, result, f"recovery round {round_index}"
                )
            if not backend.cluster.routing.degraded:
                break
        assert not backend.cluster.routing.degraded, "probe never rejoined"
        assert backend.cluster.stats.recoveries >= 1
        # layout never moved through the whole arc
        assert backend.partitioner.roster == (0, 1)

    def test_failed_probe_retrips_without_wrong_results(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:2xCPU,replicas=2")
        clean = con.execute(SQL)
        backend = con.backend
        breaker = backend.health.breaker(("shard", 0))

        wrappers = wrap_shard_node(backend, 0)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 0 stays down")
        # keep the traffic coming while the cooldown elapses: the
        # half-open probe routes back to the sick primary, fails, and
        # re-trips with an escalated backoff — results never waver
        rounds = 0
        while breaker.trips < 2 and rounds < 15:
            for result in _batch(con, n=3):
                assert_results_equal(clean, result, f"round {rounds}")
            rounds += 1
        assert breaker.trips >= 2, "the probe never re-tripped"
        # each re-trip promoted away from the sick primary again
        assert backend.cluster.stats.promotions >= 2

        for wrapper in wrappers:
            wrapper.always = None
        for _ in range(60):
            if not backend.cluster.routing.degraded:
                break
            backend.query_boundary()
        assert not backend.cluster.routing.degraded
        assert_results_equal(clean, con.execute(SQL), "after rejoin")

    def test_cancel_during_recovery_batch(
        self, points_db, assert_results_equal
    ):
        from repro.serve.session import QueryCancelled

        con = points_db.connect("SHARD:2xCPU,replicas=2")
        clean = con.execute(SQL)
        backend = con.backend
        wrappers = wrap_shard_node(backend, 1)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 1 down")
        for result in _batch(con):
            assert_results_equal(clean, result, "trip batch")
        for wrapper in wrappers:
            wrapper.always = None

        futures = [con.submit(SQL) for _ in range(4)]
        assert futures[2].cancel()
        with pytest.raises(QueryCancelled):
            futures[2].result()
        for index in (0, 1, 3):
            assert_results_equal(
                clean, futures[index].result(), f"future {index}"
            )
        con.drain()
        for _ in range(60):
            if not backend.cluster.routing.degraded:
                break
            backend.query_boundary()
        assert not backend.cluster.routing.degraded
        assert not backend.cluster.pending


class TestPipelinedFailoverBatch:
    def test_mid_batch_kill_parks_and_reroutes_everyone(
        self, points_db, assert_results_equal
    ):
        """A node dies while a batch is in flight: the tripping query
        and every concurrently parked session re-run against the
        promoted routing, and all of them return the clean answer."""
        con = points_db.connect("SHARD:2xCPU,replicas=2")
        clean = con.execute(SQL)
        backend = con.backend
        futures = [con.submit(SQL) for _ in range(5)]
        wrappers = wrap_shard_node(backend, 1)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 1 down")
        for index, future in enumerate(futures):
            assert_results_equal(
                clean, future.result(), f"future {index}"
            )
        assert backend.cluster.stats.promotions >= 1
        parked = sum(1 for _, op in con.scheduler.turn_log
                     if op == "parked")
        assert parked >= 1
