"""PR 10 perf smoke: failover latency and degraded-mode throughput.

Not a paper figure and *not* marked slow: this module runs in the fast
tier-1 loop so every push records the elastic cluster's headline
numbers into the machine-readable benchmark report
(``REPRO_BENCH_JSON``, archived by CI as ``BENCH_PR10.json``):

* per-query simulated latency on a healthy ``SHARD:4xCPU,replicas=2``
  cluster vs the same cluster serving *degraded* (one node killed, its
  slots promoted onto surviving copies) — failover must cost routing,
  not correctness, and the degraded makespan stays bounded because
  only the doubled-up node's timeline stretches;
* the online re-shard: wall time and migrated-range count for
  ``add_shard`` / ``remove_shard`` round-trips, with result equality
  at every step.
"""

import time

import numpy as np

import repro
from conftest import emit
from repro import tpch
from repro.bench.harness import Measurement, Series
from repro.serve.faults import NodeFault, wrap_shard_node

SF = 0.05
QUERIES = ("Q1", "Q6", "Q12")
SPEC = "SHARD:4xCPU,replicas=2"


def _results_equal(expected, got):
    assert list(expected.columns) == list(got.columns)
    for name in expected.columns:
        np.testing.assert_allclose(
            got.columns[name].astype(np.float64),
            expected.columns[name].astype(np.float64),
            rtol=1e-5, atol=1e-9, err_msg=name,
        )


def test_failover_latency_and_degraded_throughput():
    db = repro.tpch_database(sf=SF)
    con = db.connect(SPEC)
    sqls = {q: tpch.WORKLOAD[q] for q in QUERIES}
    clean = {q: con.execute(sql) for q, sql in sqls.items()}
    healthy_ms = {q: clean[q].elapsed * 1e3 for q in QUERIES}

    backend = con.backend
    wrappers = wrap_shard_node(backend, 2)
    for wrapper in wrappers:
        wrapper.always = NodeFault("node 2 down")

    # the first statement rides through trip + promotion
    wall0 = time.perf_counter()
    first = con.execute(sqls[QUERIES[0]])
    failover_wall_ms = (time.perf_counter() - wall0) * 1e3
    _results_equal(clean[QUERIES[0]], first)
    stats = backend.cluster.stats
    assert stats.promotions >= 1

    degraded_ms = {QUERIES[0]: first.elapsed * 1e3}
    for q in QUERIES[1:]:
        result = con.execute(sqls[q])
        _results_equal(clean[q], result)
        degraded_ms[q] = result.elapsed * 1e3

    ratio = sum(degraded_ms.values()) / sum(healthy_ms.values())
    emit(Series(
        name="pr10 smoke: degraded-mode latency vs healthy "
             f"({SPEC}, node 2 killed)",
        x_label="query",
        labels=("healthy_ms", "degraded_ms"),
        points=[
            Measurement(
                x=q,
                millis={"healthy_ms": healthy_ms[q],
                        "degraded_ms": degraded_ms[q]},
                extra={"ratio": round(degraded_ms[q] / healthy_ms[q], 4)},
            )
            for q in QUERIES
        ] + [Measurement(
            x="aggregate",
            millis={"healthy_ms": sum(healthy_ms.values()),
                    "degraded_ms": sum(degraded_ms.values())},
            extra={
                "ratio": round(ratio, 4),
                "failover_wall_ms": round(failover_wall_ms, 2),
                "promotions": stats.promotions,
                "degraded_reads": stats.degraded_reads,
            },
        )],
    ))
    # degraded service piles two slots onto one survivor: the makespan
    # may stretch toward 2x that node's share, never collapse or blow up
    # (plan-cache reuse can make the repeat marginally cheaper, hence
    # the slack below 1.0)
    assert 0.9 <= ratio < 3.0, f"degraded/healthy ratio {ratio:.3f}"

    for wrapper in wrappers:
        wrapper.always = None
    for _ in range(60):
        if not backend.cluster.routing.degraded:
            break
        backend.query_boundary()
    assert not backend.cluster.routing.degraded
    recovered = con.execute(sqls["Q1"])
    _results_equal(clean["Q1"], recovered)
    db.close()


def test_online_reshard_smoke():
    db = repro.tpch_database(sf=SF)
    con = db.connect(SPEC)
    sql = tpch.WORKLOAD["Q1"]
    before = con.execute(sql)
    backend = con.backend

    points = []
    for step, action in (("add_shard -> 5", db.add_shard),
                         ("remove_shard -> 4", db.remove_shard)):
        migrated_before = backend.cluster.stats.ranges_migrated
        wall0 = time.perf_counter()
        action()
        wall_ms = (time.perf_counter() - wall0) * 1e3
        result = con.execute(sql)
        _results_equal(before, result)
        points.append(Measurement(
            x=step,
            millis={"reshard_wall_ms": wall_ms},
            extra={
                "nodes": backend.cluster.nodes,
                "ranges_migrated": (
                    backend.cluster.stats.ranges_migrated
                    - migrated_before
                ),
            },
        ))
    emit(Series(
        name=f"pr10 smoke: online re-shard round-trip ({SPEC})",
        x_label="step",
        labels=("reshard_wall_ms",),
        points=points,
    ))
    stats = backend.cluster.stats
    assert stats.ranges_migrated > 0
    assert stats.topology_changes >= 2
    assert backend.cluster.nodes == 4
    db.close()
