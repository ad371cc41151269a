"""Seeded chaos: the elastic cluster under randomized fire (PR 10).

Every TPC-H workload query must return the clean run's answer while
nodes are killed, promoted or excluded, recovered, and the cluster is
grown and shrunk mid-workload.  The schedule is randomized but
reproducible: the seed comes from ``REPRO_CHAOS_SEED`` (CI sets it per
run and prints it), defaults to a fixed value locally, and is embedded
in every assertion context so a failure names the exact schedule that
broke.
"""

import os

import numpy as np
import pytest

from repro.serve.faults import NodeFault, wrap_shard_node
from repro.tpch.queries import WORKLOAD

#: reproducible chaos: export REPRO_CHAOS_SEED=<n> to replay a failure
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1307"))


def _kill(backend, node):
    wrappers = wrap_shard_node(backend, node)
    for wrapper in wrappers:
        wrapper.always = NodeFault(f"node {node} down")
    return wrappers


def _heal(wrappers):
    for wrapper in wrappers:
        wrapper.always = None


def _await_rejoin(backend, bound=80):
    for _ in range(bound):
        if not backend.cluster.routing.degraded:
            return
        backend.query_boundary()


class TestSeededChaos:
    def test_workload_survives_kill_promote_grow_shrink(
        self, tpch_db, assert_results_equal
    ):
        """One full arc — kill, recover, ``add_shard``,
        ``remove_shard`` — at seeded positions inside a seeded
        permutation of all 14 workload queries."""
        rng = np.random.default_rng(SEED)
        con = tpch_db.connect("SHARD:4xCPU,replicas=2")
        clean = {qid: con.execute(sql) for qid, sql in WORKLOAD.items()}
        backend = con.backend

        qids = sorted(WORKLOAD)
        order = [qids[i] for i in rng.permutation(len(qids))]
        kill_at = int(rng.integers(0, 4))
        recover_at = kill_at + int(rng.integers(2, 5))
        grow_at = recover_at + int(rng.integers(1, 3))
        shrink_at = grow_at + int(rng.integers(1, 3))
        victim = int(rng.integers(0, 4))
        events: list = []
        wrappers: list = []

        for index, qid in enumerate(order):
            if index == kill_at:
                wrappers = _kill(backend, victim)
                events.append(f"kill node {victim}")
            elif index == recover_at:
                _heal(wrappers)
                _await_rejoin(backend)
                events.append(f"recover node {victim}")
            elif index == grow_at:
                tpch_db.add_shard()
                events.append("add_shard -> 5")
            elif index == shrink_at:
                tpch_db.remove_shard()
                events.append("remove_shard -> 4")
            context = (f"REPRO_CHAOS_SEED={SEED} step {index} "
                       f"query {qid} after {events}")
            assert_results_equal(
                clean[qid], con.execute(WORKLOAD[qid]), context
            )

        stats = backend.cluster.stats
        detail = f"REPRO_CHAOS_SEED={SEED} events {events}"
        assert stats.promotions >= 1, f"no failover exercised: {detail}"
        assert stats.recoveries >= 1, f"no rejoin exercised: {detail}"
        assert stats.ranges_migrated > 0, detail
        assert stats.topology_changes >= 2, detail
        assert backend.cluster.nodes == 4, detail

    def test_workload_survives_exclude_grow_rejoin_shrink(
        self, tpch_db, assert_results_equal
    ):
        """The ``replicas=1`` arc — kill (the node is excluded),
        ``add_shard`` while it is out, heal (it rejoins as itself),
        ``remove_shard`` — at seeded positions inside a seeded
        permutation of all 14 workload queries."""
        rng = np.random.default_rng(SEED + 2)
        con = tpch_db.connect("SHARD:4xCPU")
        clean = {qid: con.execute(sql) for qid, sql in WORKLOAD.items()}
        backend = con.backend

        qids = sorted(WORKLOAD)
        order = [qids[i] for i in rng.permutation(len(qids))]
        kill_at = int(rng.integers(0, 4))
        grow_at = kill_at + int(rng.integers(1, 3))
        recover_at = grow_at + int(rng.integers(1, 3))
        shrink_at = recover_at + int(rng.integers(1, 3))
        victim = int(rng.integers(0, 4))
        events: list = []
        wrappers: list = []

        for index, qid in enumerate(order):
            if index == kill_at:
                wrappers = _kill(backend, victim)
                events.append(f"kill node {victim}")
            elif index == grow_at:
                tpch_db.add_shard()
                assert backend.cluster.excluded == {victim}, events
                events.append("add_shard -> 5")
            elif index == recover_at:
                _heal(wrappers)
                for _ in range(80):
                    if not backend.cluster.excluded:
                        break
                    backend.query_boundary()
                events.append(f"recover node {victim}")
            elif index == shrink_at:
                tpch_db.remove_shard()
                events.append("remove_shard -> 4")
            context = (f"REPRO_CHAOS_SEED={SEED + 2} step {index} "
                       f"query {qid} after {events}")
            assert_results_equal(
                clean[qid], con.execute(WORKLOAD[qid]), context
            )

        stats = backend.cluster.stats
        detail = f"REPRO_CHAOS_SEED={SEED + 2} events {events}"
        assert backend.health.breaker(("shard", victim)).trips >= 1, detail
        assert stats.ranges_migrated > 0, detail
        assert stats.topology_changes >= 4, detail
        assert backend.cluster.nodes == 4, detail
        assert backend.cluster.excluded == set(), detail
        # the rejoined node is the one that was killed, wrapper and all
        assert backend.grid[victim] == wrappers, detail
        assert victim in backend.partitioner.roster, detail

    def test_rolling_kills_every_node(
        self, points_db, assert_results_equal
    ):
        """Rolling restart: every node is killed and recovered once, in
        seeded order, with queries landing inside every window."""
        rng = np.random.default_rng(SEED + 1)
        sql = "SELECT x, sum(y) AS s, count(*) AS n FROM points GROUP BY x"
        con = points_db.connect("SHARD:4xCPU,replicas=2")
        clean = con.execute(sql)
        backend = con.backend
        signatures = dict(backend.partitioner._signatures)

        killed = []
        for victim in rng.permutation(4):
            victim = int(victim)
            wrappers = _kill(backend, victim)
            killed.append(victim)
            context = f"REPRO_CHAOS_SEED={SEED + 1} kill order {killed}"
            assert_results_equal(clean, con.execute(sql), context)
            _heal(wrappers)
            _await_rejoin(backend)
            assert not backend.cluster.routing.degraded, context
            assert_results_equal(clean, con.execute(sql), context)

        stats = backend.cluster.stats
        assert stats.promotions >= 4
        assert stats.recoveries >= 4
        # the whole rolling restart never re-partitioned anything
        assert dict(backend.partitioner._signatures) == signatures
        assert backend.partitioner.roster == (0, 1, 2, 3)
