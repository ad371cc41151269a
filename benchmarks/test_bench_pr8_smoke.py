"""PR 8 perf smoke: compressed storage, executed compressed.

Not a paper figure and *not* marked slow: this module runs in the fast
tier-1 loop so every push records the compression layer's headline
metrics into the machine-readable benchmark report
(``REPRO_BENCH_JSON``, archived by CI as ``BENCH_PR8.json``):

* the TPC-H storage compression ratio (nominal / physical bytes over
  the whole catalog);
* physical vs nominal interconnect bytes on a sharded scan and a
  sharded broadcast join — the encoded payload crosses the wire, the
  decoded width is what the pre-compression engine moved;
* device residency under a fixed HET budget — the same selection
  workload over encoded vs plain storage, counting base-column rows
  still resident on the budget-constrained GPU afterwards;
* the zero-decode guarantee along the way (covered operator paths
  never materialise an encoded tail).

Acceptance bars: >= 2x on the interconnect reduction and on the
GPU-resident rows, 0 full-column decodes on the covered workloads.
"""

import os

import numpy as np

import repro
from conftest import emit
from repro.bench.harness import Measurement, Series

N_ROWS = 1 << 15
N_DIM_ROWS = 4096

RES_ROWS = 1 << 14
RES_COLS = 12
RES_SCALE = 8192           # fixed simulated device budget (data_scale)


def _shard_db() -> repro.Database:
    rng = np.random.default_rng(5)
    db = repro.Database()
    db.create_table("facts", {
        "k": rng.integers(0, N_DIM_ROWS, N_ROWS).astype(np.int32),
        "v": rng.integers(0, 200, N_ROWS).astype(np.int32),
    })
    db.create_table("dims", {
        "k": np.arange(N_DIM_ROWS, dtype=np.int32),
        "rate": rng.choice(
            np.linspace(0.0, 0.2, 21).astype(np.float32), N_DIM_ROWS
        ),
    })
    return db


def _residency_db(plain: bool) -> repro.Database:
    previous = os.environ.get("REPRO_COMPRESSION")
    if plain:
        os.environ["REPRO_COMPRESSION"] = "off"
    try:
        rng = np.random.default_rng(3)
        db = repro.Database(data_scale=RES_SCALE)
        db.create_table("wide", {
            f"c{i}": rng.integers(0, 200, RES_ROWS).astype(np.int32)
            for i in range(RES_COLS)
        })
    finally:
        if plain:
            if previous is None:
                del os.environ["REPRO_COMPRESSION"]
            else:
                os.environ["REPRO_COMPRESSION"] = previous
    return db


def _gpu_resident_rows(db: repro.Database, con) -> int:
    """Rows of ``wide`` base columns still resident on the pool's
    budget-constrained device (smallest simulated memory)."""
    gpu = min(con.backend.pool.engines,
              key=lambda e: e.device.profile.global_mem_bytes)
    rows = 0
    for i in range(RES_COLS):
        bat = db.catalog.bat("wide", f"c{i}")
        candidates = [bat] + list(getattr(bat, "derived_bats", []))
        if any(gpu.memory.has_resident(b) for b in candidates):
            rows += int(bat.count)
    return rows


def test_tpch_storage_compression_ratio():
    db = repro.tpch_database(sf=0.1)
    stats = db.catalog.compression.snapshot()
    emit(Series(
        name="pr8 smoke: TPC-H storage compression (sf=0.1)",
        x_label="metric",
        labels=("ratio",),
        points=[Measurement(
            x="catalog",
            millis={"ratio": round(stats.ratio, 3)},
            extra={
                "columns_encoded": stats.columns_encoded,
                "columns_plain": stats.columns_plain,
                "bytes_nominal": stats.bytes_nominal,
                "bytes_physical": stats.bytes_physical,
            },
        )],
    ))
    assert stats.columns_encoded > stats.columns_plain
    assert stats.ratio >= 2.0
    db.close()


def test_shard_interconnect_moves_encoded_bytes():
    db = _shard_db()
    con = db.connect("SHARD:2xMS,join=broadcast")

    def moved() -> "tuple[int, int]":
        """The last query's (nominal, physical) interconnect bytes."""
        snap = con.metrics.snapshot()
        kinds = ("broadcast", "shuffled", "gathered")
        return (
            sum(snap[f"interconnect.query.bytes_{k}"] for k in kinds),
            sum(snap[f"interconnect.query.bytes_{k}_physical"]
                for k in kinds),
        )

    con.execute("SELECT v FROM facts")
    scan_nominal, scan_physical = moved()

    con.execute(
        "SELECT sum(d.rate) AS s FROM facts f JOIN dims d ON f.k = d.k"
    )
    join_nominal, join_physical = moved()

    emit(Series(
        name="pr8 smoke: SHARD interconnect, encoded vs nominal bytes",
        x_label="operation",
        labels=("nominal_kb", "physical_kb"),
        points=[
            Measurement(
                x="scan",
                millis={"nominal_kb": scan_nominal / 1024,
                        "physical_kb": scan_physical / 1024},
                extra={"reduction": round(scan_nominal
                                          / max(scan_physical, 1), 2)},
            ),
            Measurement(
                x="broadcast join",
                millis={"nominal_kb": join_nominal / 1024,
                        "physical_kb": join_physical / 1024},
                extra={"reduction": round(join_nominal
                                          / max(join_physical, 1), 2)},
            ),
        ],
    ))
    # acceptance: the encoded wire format halves physical traffic
    assert scan_nominal >= 2 * scan_physical
    assert join_nominal >= 2 * join_physical
    db.close()


def test_het_residency_under_fixed_budget():
    results = {}
    for mode, plain in (("auto", False), ("off", True)):
        db = _residency_db(plain)
        con = db.connect("HET")
        for _ in range(2):
            for i in range(RES_COLS):
                con.execute(
                    f"SELECT count(*) AS n FROM wide WHERE c{i} <= 57"
                )
        results[mode] = _gpu_resident_rows(db, con)
        if mode == "auto":
            # the covered selection path stays in the code domain
            assert con.metrics.snapshot()["compress.decode_events"] == 0
        db.close()

    emit(Series(
        name=f"pr8 smoke: GPU-resident rows under a fixed HET budget "
             f"(data_scale={RES_SCALE})",
        x_label="storage",
        labels=("rows_resident",),
        points=[
            Measurement(
                x=mode,
                millis={"rows_resident": float(rows)},
                extra={"rows_resident": rows,
                       "columns": RES_COLS,
                       "rows_per_column": RES_ROWS},
            )
            for mode, rows in results.items()
        ],
    ))
    # acceptance: compressed columns keep >= 2x the rows device-resident
    assert results["auto"] >= 2 * results["off"] > 0
