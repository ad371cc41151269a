"""Differential fault injection: every TPC-H workload query must
return *identical* results with faults injected vs clean — retries,
re-routes, and breaker trips may change when and where work runs,
never what it computes."""

import pytest

from repro.serve import FaultyBackend, NodeFault, TransientFault
from repro.serve.faults import wrap_shard_child
from repro.tpch.queries import WORKLOAD


class TestMSDifferential:
    """Single-node baseline: transient blips at the head of every
    query are absorbed by the retry loop (two per query stays below
    the breaker threshold of three; success resets the count)."""

    def test_whole_workload_matches_clean_run(
        self, tpch_db, assert_results_equal
    ):
        con = tpch_db.connect("MS")
        clean = {qid: con.execute(sql) for qid, sql in WORKLOAD.items()}
        faulty = FaultyBackend(con.backend)
        con.backend = faulty
        con._scheduler = None
        for qid, sql in WORKLOAD.items():
            faulty.schedule = {
                faulty.ops_seen + 1: TransientFault(f"{qid} blip 1"),
                faulty.ops_seen + 2: TransientFault(f"{qid} blip 2"),
            }
            assert_results_equal(clean[qid], con.execute(sql), qid)
        # every scheduled fault really fired, and none of them tripped
        assert len(faulty.injected) == 2 * len(WORKLOAD)
        board = con.backend.health
        assert board.breaker("self").trips == 0


class TestShardDifferential:
    """Sharded engine: a node that keeps failing trips its breaker,
    the tables re-partition over the healthy remainder, and — once the
    cooldown probe finds it healthy — the node rejoins.  Results match
    the clean run through the whole trip/exclude/rejoin arc."""

    def test_whole_workload_routes_around_sick_node(
        self, tpch_db, assert_results_equal
    ):
        con = tpch_db.connect("SHARD:2xCPU")
        clean = {qid: con.execute(sql) for qid, sql in WORKLOAD.items()}
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        backend = con.backend
        excluded_during = []
        for qid, sql in WORKLOAD.items():
            assert_results_equal(clean[qid], con.execute(sql), qid)
            excluded_during.append(bool(backend.cluster.excluded))
        # the first query tripped the breaker and excluded the shard...
        breaker = backend.health.breaker(("shard", 1))
        assert breaker.trips == 1
        assert len(sick.injected) == 3
        assert excluded_during[0], "the trip never happened"
        # ...and the cooldown probe re-admitted it mid-workload
        assert not excluded_during[-1], "the shard never rejoined"
        assert backend.partitioner.roster == (0, 1)
        assert breaker.state == "closed"


@pytest.mark.parametrize("qid", sorted(WORKLOAD))
def test_each_query_survives_a_mid_plan_fault(
    tpch_db, assert_results_equal, qid
):
    """Per-query granularity: a fault landing *mid-plan* (not on the
    first operator) still yields the clean answer — the retry re-runs
    the whole program, and no partial state leaks into the result."""
    con = tpch_db.connect("MS")
    sql = WORKLOAD[qid]
    clean = con.execute(sql)
    faulty = FaultyBackend(con.backend)
    con.backend = faulty
    con._scheduler = None
    # land one fault roughly halfway through the plan
    n_ops = len(clean.program.instructions)
    faulty.schedule = {max(1, n_ops // 2): TransientFault("mid-plan")}
    assert_results_equal(clean, con.execute(sql), qid)
    assert len(faulty.injected) == 1
