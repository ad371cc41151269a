"""The sharded multi-node engine up close: ``SHARD:<N>x<CHILD>``.

One database, N simulated nodes.  The engine registry resolves the spec,
the partitioner splits big tables across per-node catalogs (small ones
are replicated), and every MAL instruction of the *unchanged* plan fans
out to the per-node backends — the paper's hardware-obliviousness lifted
one level: the plan is also topology-oblivious.  This demo walks:

1. **composition** — the child engine is any registered family; the
   same query runs on ``SHARD:4xMS`` and ``SHARD:2xHET`` unchanged;
2. **correctness** — scalar folds, key-aligned grouped merges and
   exact (sum, count) averages reproduce single-node results bit-for-
   bit (up to float summation order);
3. **scaling** — per-shard work shrinks ~1/N while the driver merge
   stays ngroups-wide, so makespan falls as nodes are added;
4. **join strategies** — with shard keys declared, co-partitioned
   joins run shard-local with zero driver traffic; without keys, a
   hash shuffle moves only (key, oid) pairs; ``join=broadcast`` keeps
   the gather-everything baseline, and the ``interconnect.query.*``
   keys of ``Connection.metrics`` show the difference in bytes;
5. **DDL** — creating a table partitions it onto every shard (bumping
   each shard's schema version) and leaves the cached plans of the
   statements that never read it in place: the repeat query after the
   DDL is a plan-cache hit.

    python examples/sharding.py
"""

import numpy as np

from repro.api import tpch_database
from repro.engines import engine_table_markdown
from repro.tpch import WORKLOAD


def main() -> None:
    print("== the engine registry ==")
    print(engine_table_markdown())

    db = tpch_database(sf=1)
    print("\n== TPC-H Q1 across topologies ==")
    reference = db.connect("MS").execute(WORKLOAD["Q1"], name="Q1")
    print(f"   {'MS':>12}: {reference.elapsed * 1e3:8.1f} simulated ms "
          f"(single node, ground truth)")
    for spec in ("SHARD:2xMS", "SHARD:4xMS", "SHARD:8xMS"):
        with db.connect(spec) as con:
            result = con.execute(WORKLOAD["Q1"], name="Q1")
            drift = max(
                float(np.max(np.abs(
                    result.columns[c].astype(np.float64)
                    - reference.columns[c].astype(np.float64)
                ))) for c in reference.columns
            )
            print(f"   {spec:>12}: {result.elapsed * 1e3:8.1f} simulated ms"
                  f"   (max |delta| vs MS: {drift:.2e})")

    print("\n== composition: heterogeneous nodes ==")
    con = db.connect("SHARD:2xHET")
    result = con.execute(WORKLOAD["Q6"], name="Q6")
    single = db.connect("CPU").execute(WORKLOAD["Q6"], name="Q6")
    print(f"   SHARD:2xHET Q6 revenue {float(result.column('revenue')[0]):.2f}"
          f"  (CPU engine: {float(single.column('revenue')[0]):.2f})")
    print(f"   each node fans its slice across its own CPU+GPU pool; "
          f"plan-cache stats: {db.plan_cache.stats}")

    print("\n== repeat queries hit the shared plan cache ==")
    hits = db.plan_cache.stats.hits
    con.execute(WORKLOAD["Q6"], name="Q6")
    print(f"   re-running Q6 on SHARD:2xHET: hits {hits} -> "
          f"{db.plan_cache.stats.hits}")

    print("\n== join strategies: broadcast vs shuffle vs co-located ==")
    keyed = ("SHARD:4xMS,key=lineitem.l_orderkey,"
             "key=orders.o_orderkey")
    for label, spec in (("broadcast", "SHARD:4xMS,join=broadcast"),
                        ("shuffle", "SHARD:4xMS"),
                        ("co-located", keyed)):
        with db.connect(spec) as shard_con:
            result = shard_con.execute(WORKLOAD["Q12"], name="Q12")
            snap = shard_con.metrics.snapshot()
            moved = {kind: snap[f"interconnect.query.bytes_{kind}"]
                     for kind in ("broadcast", "shuffled", "gathered")}
            print(f"   {label:>10}: {result.elapsed * 1e3:7.1f} ms   "
                  f"interconnect {sum(moved.values()) / 1e6:8.3f} MB  "
                  f"({moved})")

    print("\n== DDL propagates to every shard ==")
    versions = [c.version for c in con.backend.partitioner.catalogs]
    db.create_table("notes", {"n": np.arange(4096, dtype=np.int32)})
    after = [c.version for c in con.backend.partitioner.catalogs]
    print(f"   per-shard catalog versions {versions} -> {after}")
    hits = db.plan_cache.stats.hits
    con.execute(WORKLOAD["Q6"], name="Q6")
    print(f"   Q6 never reads `notes`: its plan survived the DDL "
          f"(plan-cache hits {hits} -> {db.plan_cache.stats.hits})")
    total = con.execute("SELECT sum(n) AS s FROM notes")
    print(f"   sum(notes.n) across shards: {int(total.column('s')[0])} "
          f"(expected {4095 * 4096 // 2})")

    db.close()
    print("\n(database closed: every node's device buffers released)")


if __name__ == "__main__":
    main()
