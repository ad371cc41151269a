"""The serving layer up close: plan cache + async sessions on HET.

The engine executes one operator-at-a-time plan per query; a serving
system faces *streams* of queries, most of them repeats.  This demo
walks the two serve-layer pieces (see ARCHITECTURE.md, "serve"):

1. the **plan cache** — repeating a statement skips parse, lowering
   and the Ocelot rewrite; the hit/miss counters and the wall clock
   both show it;
2. **async sessions** — ``Connection.submit`` returns a future; the
   round-robin session scheduler interleaves in-flight queries one MAL
   instruction per turn, and because cross-device sync points are
   session-scoped, a CPU-bound query and GPU-bound queries overlap on
   the device pool's two timelines: the batch's makespan lands well
   under the serial sum.

    python examples/concurrency.py
"""

import time

import numpy as np

from repro.api import Database


def serving_database() -> Database:
    """A mixed workload's worth of data: one table beyond the GPU's
    2 GB (its queries are CPU-bound) and one the GPU serves well."""
    rng = np.random.default_rng(47)
    db = Database(data_scale=6144.0)
    db.create_table("events", {                  # ~ 3 GB nominal
        "v": rng.integers(0, 1 << 30, 1 << 17).astype(np.int32),
    })
    db.create_table("metrics", {                 # ~ 400 MB nominal
        "w": rng.random(1 << 14).astype(np.float32),
        "g": rng.integers(0, 32, 1 << 14).astype(np.int32),
    })
    return db


WORKLOAD = [
    ("events (CPU-bound)", "SELECT min(v) AS m FROM events"),
    ("metrics (GPU)     ", "SELECT g, sum(w) AS s FROM metrics GROUP BY g"),
    ("metrics (GPU)     ", "SELECT sum(w) AS s FROM metrics WHERE w >= 0.25"),
    ("metrics (GPU)     ", "SELECT g, count(*) AS n FROM metrics GROUP BY g"),
]


def main() -> None:
    db = serving_database()
    con = db.connect("HET")

    print("== 1. the plan cache ==")
    print("  First run of each statement compiles (miss); the second run")
    print("  is a hit, which the placer still places from what is")
    print("  resident on each device.")
    for _label, sql in WORKLOAD:
        con.execute(sql)
    print(f"  after first pass : {con.plan_cache.stats}")
    t0 = time.perf_counter()
    for _label, sql in WORKLOAD:
        con.execute(sql)
    warm_wall = time.perf_counter() - t0
    print(f"  after second pass: {con.plan_cache.stats}")
    print(f"  (second pass wall clock: {warm_wall * 1e3:.1f} ms — no parse,"
          f" no rewrite)")

    print("\n== 2. serial baseline ==")
    print("  Executed one after another, each query joins both device")
    print("  timelines: the CPU-bound scan leaves the GPU idle and the")
    print("  GPU queries leave the CPU idle.")
    serial = 0.0
    for label, sql in WORKLOAD:
        r = con.execute(sql)
        placements = ", ".join(
            f"{fn}->{'CPU' if d == 0 else 'GPU' if d == 1 else d}"
            for fn, d in con.backend.decision_log
        )
        print(f"  {label}  {r.elapsed * 1e3:8.2f} ms   [{placements}]")
        serial += r.elapsed
    print(f"  serial sum: {serial * 1e3:8.2f} ms")

    print("\n== 3. the same four queries, submitted concurrently ==")
    print("  submit() opens one session per query; the scheduler advances")
    print("  them round-robin, one MAL instruction per turn, and only the")
    print("  owning session waits at its cross-device sync points.")
    con.scheduler.turn_log.clear()         # the executes were flights too
    futures = [con.submit(sql) for _label, sql in WORKLOAD]
    con.drain()
    for (label, _sql), future in zip(WORKLOAD, futures):
        r = future.result()
        print(f"  {label}  latency {r.elapsed * 1e3:8.2f} ms "
              f"(submit -> completion)")
    makespan = con.scheduler.last_batch_makespan
    print(f"  batch makespan: {makespan * 1e3:8.2f} ms   "
          f"({makespan / serial:.2f}x of serial — the GPU queries ran")
    print("   inside the CPU-bound query's window)")

    first_turns = ", ".join(s for s, _op in list(con.scheduler.turn_log)[:4])
    print(f"\n  fairness: first four scheduler turns went to [{first_turns}]")


if __name__ == "__main__":
    main()
