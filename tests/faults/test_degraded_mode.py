"""Failover and degraded-mode service on a replicated cluster.

``perf/`` supersedes the per-PR benchmark smokes metric for metric,
except here: no perf workload kills a node.  A
``SHARD:4xCPU,replicas=2`` cluster loses node 2 mid-service; the first
statement rides through the breaker trip and the promotion of the dead
node's slots onto surviving copies, every statement keeps its healthy
answer, and the degraded makespan stays bounded — two slots pile onto
one survivor, so it may stretch toward twice that node's share, never
collapse or blow up.  Recovery returns the cluster to primaries.
"""

import repro
from repro import tpch
from repro.serve.faults import NodeFault, wrap_shard_node

SF = 0.05
QUERIES = ("Q1", "Q6", "Q12")
SPEC = "SHARD:4xCPU,replicas=2"


def test_failover_keeps_answers_and_bounds_the_degraded_makespan(
        assert_results_equal):
    with repro.tpch_database(sf=SF) as db:
        con = db.connect(SPEC)
        sqls = {q: tpch.WORKLOAD[q] for q in QUERIES}
        clean = {q: con.execute(sql) for q, sql in sqls.items()}
        healthy_s = sum(result.elapsed for result in clean.values())

        backend = con.backend
        wrappers = wrap_shard_node(backend, 2)
        for wrapper in wrappers:
            wrapper.always = NodeFault("node 2 down")

        degraded_s = 0.0
        for q in QUERIES:       # the first rides through trip + promotion
            result = con.execute(sqls[q])
            assert_results_equal(clean[q], result, f"degraded {q}")
            degraded_s += result.elapsed
        stats = backend.cluster.stats
        assert stats.promotions >= 1
        assert stats.degraded_reads >= len(QUERIES) - 1
        assert backend.cluster.routing.degraded
        # plan-cache reuse can make the repeat marginally cheaper, hence
        # the slack below 1.0
        ratio = degraded_s / healthy_s
        assert 0.9 <= ratio < 3.0, f"degraded/healthy ratio {ratio:.3f}"

        for wrapper in wrappers:
            wrapper.always = None
        for _ in range(60):
            if not backend.cluster.routing.degraded:
                break
            backend.query_boundary()
        assert not backend.cluster.routing.degraded
        assert_results_equal(clean["Q1"], con.execute(sqls["Q1"]),
                             "recovered Q1")
