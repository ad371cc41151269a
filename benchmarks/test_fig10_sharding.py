"""Fig. 10 (extension): the sharded multi-node engine (ROADMAP).

Not a figure of the original paper — this is the multi-backend sharding
milestone: tables partitioned across N simulated nodes (each running a
full single-node engine), per-shard MAL plans through the unchanged
interpreter, mat.pack-style merges on the driver (see ARCHITECTURE.md,
"shard").

Three panels:

* (a) makespan vs shard count — TPC-H Q1 (selection + grouped
  aggregation over lineitem) on ``SHARD:NxMS``: per-shard work shrinks
  ~1/N while the driver merge stays ngroups-wide, so the simulated
  makespan falls as shards are added,
* (b) composed engines — the same sweep with heterogeneous children
  (``SHARD:NxHET``): composition over the registry, not a special case;
  every node still fans out across its own CPU+GPU pool,
* (c) join strategies — TPC-H Q12 (lineitem ⋈ orders on the order
  key) under the three join plans: the PR-3 broadcast-gather baseline
  (``join=broadcast``), the hash-shuffle re-partition, and the
  co-partitioned shard-local join with declared shard keys.
  Interconnect bytes (``interconnect.query.*`` metrics) drop by orders
  of magnitude from broadcast to co-located, and the makespan follows.
"""

import numpy as np
import pytest

from conftest import emit
from repro.api import tpch_database
from repro.bench.configs import SHARD_JOIN_SPECS
from repro.bench.harness import Measurement, Series
from repro.tpch import WORKLOAD

pytestmark = pytest.mark.slow

SHARD_COUNTS = (1, 2, 4, 8)


def _sweep(db, child: str, counts=SHARD_COUNTS, query: str = "Q1",
           runs: int = 3) -> dict:
    """shard count -> average hot simulated seconds for ``query``."""
    seconds = {}
    for n in counts:
        con = db.connect(f"SHARD:{n}x{child}")
        con.execute(WORKLOAD[query], name=query)      # warm caches
        total = 0.0
        for _ in range(runs):
            total += con.execute(WORKLOAD[query], name=query).elapsed
        seconds[n] = total / runs
        con.close()                # free the shard devices before the
        # next sweep point (8xHET would otherwise hold 16 live engines)
    return seconds


def test_fig10a_makespan_shrinks_with_shard_count(benchmark):
    db = tpch_database(sf=2)
    expected = db.connect("MS").execute(WORKLOAD["Q1"], name="Q1")
    seconds = benchmark.pedantic(
        lambda: _sweep(db, "MS"), rounds=1, iterations=1
    )
    series = Series(
        name="fig10a: TPC-H Q1 makespan vs shard count (MS nodes)",
        x_label="shards",
        labels=("SHARD",),
        points=[
            Measurement(x=n, millis={"SHARD": s * 1e3})
            for n, s in seconds.items()
        ],
    )
    emit(series)
    # more nodes, less makespan: every step down the sweep helps ...
    counts = sorted(seconds)
    for small, large in zip(counts, counts[1:]):
        assert seconds[large] < seconds[small]
    # ... and the scaling is substantial, not marginal (the merge is
    # ngroups-wide, so it cannot eat the per-shard win)
    assert seconds[8] < 0.4 * seconds[1]
    # sharded results stay exactly the single-node results
    got = db.connect("SHARD:4xMS").execute(WORKLOAD["Q1"], name="Q1")
    for column in expected.columns:
        np.testing.assert_allclose(
            got.columns[column].astype(np.float64),
            expected.columns[column].astype(np.float64),
            rtol=1e-9,
        )


#: the fig10c join-strategy sweep: one spec per strategy, same engine
#: shape (4 MS nodes) — only the join plan differs
JOIN_SPECS = SHARD_JOIN_SPECS


def test_fig10c_join_strategies_beat_broadcast():
    """Co-partitioned and shuffled joins beat broadcast-gather on both
    interconnect bytes and makespan (TPC-H Q12, orders ⋈ lineitem)."""
    db = tpch_database(sf=1)
    expected = db.connect("MS").execute(WORKLOAD["Q12"], name="Q12")
    seconds, bytes_moved, traffic = {}, {}, {}
    for name, spec in JOIN_SPECS:
        con = db.connect(spec)
        result = con.execute(WORKLOAD["Q12"], name="Q12")
        snap = con.metrics.snapshot()
        seconds[name] = result.elapsed
        traffic[name] = {
            f"bytes_{kind}": snap[f"interconnect.query.bytes_{kind}"]
            for kind in ("broadcast", "shuffled", "gathered")
        }
        bytes_moved[name] = sum(traffic[name].values())
        # every strategy must still be *correct*
        for column in expected.columns:
            np.testing.assert_allclose(
                result.columns[column].astype(np.float64),
                expected.columns[column].astype(np.float64),
                rtol=1e-6, err_msg=f"{name}: {column}",
            )
        con.close()
    series = Series(
        name="fig10c: TPC-H Q12 join strategies (4xMS nodes)",
        x_label="strategy",
        labels=("SHARD",),
        points=[
            Measurement(
                x=name, millis={"SHARD": seconds[name] * 1e3},
                extra={"bytes_total": bytes_moved[name],
                       **traffic[name]},
            )
            for name, _spec in JOIN_SPECS
        ],
    )
    emit(series)
    # the acceptance bar: a co-partitioned join moves >= 5x fewer
    # interconnect bytes than the broadcast baseline (it is orders of
    # magnitude here — only the ngroups-wide merges remain) ...
    assert bytes_moved["co-located"] * 5 <= bytes_moved["broadcast"]
    # ... and the shuffle path beats broadcast whenever neither side is
    # replicated (both Q12 sides are partitioned at sf=1)
    assert bytes_moved["shuffle"] < bytes_moved["broadcast"]
    assert traffic["shuffle"]["bytes_broadcast"] \
        < traffic["broadcast"]["bytes_broadcast"]
    # the byte savings shows up in the makespan, which is the point
    assert seconds["co-located"] < seconds["broadcast"]
    assert seconds["shuffle"] < seconds["broadcast"]


def test_fig10b_composed_heterogeneous_nodes():
    db = tpch_database(sf=2)
    seconds = _sweep(db, "HET", counts=(1, 2, 4))
    series = Series(
        name="fig10b: TPC-H Q1 makespan vs shard count (HET nodes)",
        x_label="shards",
        labels=("SHARD",),
        points=[
            Measurement(x=n, millis={"SHARD": s * 1e3})
            for n, s in seconds.items()
        ],
    )
    emit(series)
    assert seconds[4] < seconds[1]
    # Q6 equality on the composed engine (the acceptance check)
    cpu = db.connect("CPU").execute(WORKLOAD["Q6"], name="Q6")
    got = db.connect("SHARD:4xHET").execute(WORKLOAD["Q6"], name="Q6")
    np.testing.assert_allclose(
        got.column("revenue").astype(np.float64),
        cpu.column("revenue").astype(np.float64),
        rtol=1e-5,
    )
