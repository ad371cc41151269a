"""Async sessions: futures, fairness, isolation, and pipelined overlap
on the heterogeneous engine's per-device timelines."""

import numpy as np
import pytest

from repro.api import Database
from repro.monetdb.mal import MALBuilder
from repro.monetdb.interpreter import UnsupportedOperator
from repro.serve.plancache import CachedPlan


@pytest.fixture
def db():
    rng = np.random.default_rng(29)
    database = Database()
    database.create_table("points", {
        "x": rng.integers(0, 8, 4000).astype(np.int32),
        "y": rng.random(4000).astype(np.float32),
    })
    return database


QUERIES = [
    "SELECT x, sum(y) AS s FROM points GROUP BY x",
    "SELECT sum(y) AS s FROM points WHERE x < 4",
    "SELECT x, count(*) AS n FROM points GROUP BY x ORDER BY x",
]


def _mixed_db():
    """One table the GPU cannot hold (CPU-bound queries) and one it can
    (GPU-bound queries) — the serving mix that benefits from overlap."""
    rng = np.random.default_rng(31)
    db = Database(data_scale=6144.0)
    db.create_table("big", {                       # ~ 3 GB nominal
        "v": rng.integers(0, 1 << 30, 1 << 17).astype(np.int32),
    })
    db.create_table("med", {                       # ~ 400 MB nominal
        "w": rng.random(1 << 14).astype(np.float32),
        "g": rng.integers(0, 32, 1 << 14).astype(np.int32),
    })
    return db


class TestFutures:
    @pytest.mark.parametrize("engine", ["MS", "CPU", "HET"])
    def test_submit_matches_execute(self, db, engine):
        con = db.connect(engine)
        serial = [con.execute(q) for q in QUERIES]
        futures = [con.submit(q) for q in QUERIES]
        con.drain()
        for expected, future in zip(serial, futures):
            assert future.done()
            got = future.result()
            for col in expected.columns:
                assert np.allclose(
                    got.columns[col].astype(np.float64),
                    expected.columns[col].astype(np.float64),
                    rtol=1e-5,
                ), (engine, col)

    def test_result_drives_the_scheduler(self, db):
        con = db.connect("HET")
        future = con.submit(QUERIES[0])
        assert not future.done()
        result = future.result()       # no explicit drain
        assert future.done()
        assert result.n_rows == 8

    def test_elapsed_covers_submit_to_completion(self, db):
        con = db.connect("HET")
        futures = [con.submit(q) for q in QUERIES]
        con.drain()
        for future in futures:
            result = future.result()
            assert result.elapsed >= 0.0
            assert future.completion_epoch >= future.submit_epoch
            assert result.elapsed == pytest.approx(
                future.completion_epoch - future.submit_epoch
            )


class TestFairness:
    def test_round_robin_interleaves_one_instruction_each(self, db):
        con = db.connect("HET")
        con.scheduler.turn_log.clear()
        n = 3
        for _ in range(n):
            con.submit(QUERIES[0])
        con.drain()
        first_round = [s for s, _op in list(con.scheduler.turn_log)[:n]]
        assert len(set(first_round)) == n   # everyone advanced once
        # with identical plans, completion preserves submission order
        ops = [op for _s, op in con.scheduler.turn_log]
        assert ops[0] == ops[1] == ops[2]

    def test_fifo_engines_run_whole_queries(self, db):
        """A serial timeline takes one flight at a time: the turns of
        one query are contiguous, in submission order."""
        con = db.connect("MS")
        futures = [con.submit(q) for q in QUERIES]
        assert len(con.scheduler) == 1           # the rest wait their turn
        con.drain()
        order = [s for s, _op in con.scheduler.turn_log]
        assert sorted(order, key=order.index) == order
        assert list(dict.fromkeys(order)) == [f.session for f in futures]


class TestTurnLog:
    def test_the_log_is_bounded_and_the_counters_exact(self, db):
        """Every ``execute()`` is a flight: what the scheduler keeps per
        turn must not grow with the life of the connection."""
        import gc
        import tracemalloc

        from repro.serve.session import TURN_LOG

        con = db.connect("MS")
        sql = QUERIES[1]
        scheduler = con.scheduler
        con.execute(sql)
        steps, flights = scheduler.turns, 1   # turns of one flight
        tracemalloc.start()
        try:
            while scheduler.turns < 2 * TURN_LOG:   # the log fills up
                con.execute(sql)
                flights += 1
            gc.collect()
            before, _peak = tracemalloc.get_traced_memory()
            for _ in range(2000):
                con.execute(sql)
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scheduler.turn_log) == TURN_LOG
        assert scheduler.turns == (flights + 2000) * steps
        snapshot = con.metrics.snapshot()
        assert snapshot["scheduler.turns"] == scheduler.turns
        assert snapshot["scheduler.parked"] == 0
        # an unbounded log would hold 2 000 x steps more tuples (> 0.5 MB)
        assert after - before < 64 * 1024


class TestIsolation:
    def test_failed_session_does_not_poison_the_batch(self, db):
        con = db.connect("HET")
        builder = MALBuilder("boom")
        bogus = builder.emit("nosuch", "operator", ())
        entry = CachedPlan(key=("boom",), program=builder.returns(
            [("x", bogus)]
        ))
        ok_first = con.submit(QUERIES[1])
        doomed = con.scheduler.submit(entry, name="boom")
        ok_second = con.submit(QUERIES[0])
        con.drain()
        assert isinstance(doomed.exception(), UnsupportedOperator)
        with pytest.raises(UnsupportedOperator):
            doomed.result()
        assert ok_first.result().n_rows == 1
        assert ok_second.result().n_rows == 8

    def test_interleaved_results_match_ms_ground_truth(self, db):
        het = db.connect("HET")
        ms = db.connect("MS")
        futures = [het.submit(q) for q in QUERIES * 2]
        het.drain()
        for future, sql in zip(futures, QUERIES * 2):
            expected = ms.execute(sql)
            got = future.result()
            for col in expected.columns:
                assert np.allclose(
                    got.columns[col].astype(np.float64),
                    expected.columns[col].astype(np.float64),
                    rtol=1e-5,
                ), (sql, col)


class TestPipelining:
    def test_concurrent_batch_beats_serial_makespan(self):
        db = _mixed_db()
        con = db.connect("HET")
        workload = [
            "SELECT min(v) AS m FROM big",
            "SELECT g, sum(w) AS s FROM med GROUP BY g",
            "SELECT sum(w) AS s FROM med WHERE w >= 0.25",
            "SELECT g, count(*) AS n FROM med GROUP BY g",
        ]
        for sql in workload:       # warm device caches + plan cache
            con.execute(sql)
        serial = sum(con.execute(sql).elapsed for sql in workload)
        futures = [con.submit(sql) for sql in workload]
        con.drain()
        makespan = con.scheduler.last_batch_makespan
        assert makespan is not None
        # overlap across the two device queues beats serial execution
        assert makespan < serial
        for future in futures:
            future.result()        # and everything actually completed

    def test_cpu_and_gpu_queries_really_overlap(self):
        db = _mixed_db()
        con = db.connect("HET")
        big, med = ("SELECT min(v) AS m FROM big",
                    "SELECT g, sum(w) AS s FROM med GROUP BY g")
        con.execute(big), con.execute(med)
        f_big = con.submit(big)
        f_med = con.submit(med)
        con.drain()
        # the GPU query finished inside the CPU query's window: both were
        # submitted at the same epoch, and the small GPU-placed query was
        # not delayed behind the long CPU-placed one
        assert f_med.result().elapsed < f_big.result().elapsed
        assert f_med.completion_epoch < f_big.completion_epoch

    def test_second_batch_cannot_schedule_into_the_idle_past(self):
        """Regression: a batch leaves the queues skewed (CPU far ahead
        after a CPU-bound query); a session submitted afterwards starts
        at the pool-wide "now", not at the idle device's old frontier —
        its latency is the serial price, not ~0."""
        db = _mixed_db()
        con = db.connect("HET")
        med = "SELECT g, sum(w) AS s FROM med GROUP BY g"
        con.execute(med)                            # warm the caches
        serial = con.execute(med).elapsed
        con.submit("SELECT min(v) AS m FROM big")   # CPU-heavy batch 1
        con.drain()
        future = con.submit(med)                    # batch 2, GPU-bound
        con.drain()
        # the same clock readings taken from a later epoch: equal up
        # to the rounding of that subtraction
        assert future.result().elapsed == pytest.approx(serial, rel=1e-9)


class TestFailureCleanup:
    def test_failed_fifo_submit_recycles_intermediates(self):
        """Regression: an OOM mid-plan on a FIFO (single-device) engine
        must not leave the half-executed query's device intermediates in
        the long-lived cached connection's registry."""
        from repro.ocelot.memory import BufferKind, OcelotOOM

        rng = np.random.default_rng(5)
        n = 1 << 15
        db = Database(data_scale=5800.0)            # columns ~ 0.71 GB
        db.create_table("big", {
            "v": rng.integers(0, 1 << 20, n).astype(np.int32),
            "w": rng.integers(0, 1 << 20, n).astype(np.int32),
        })
        con = db.connect("GPU")
        # (v+1) computes fine; (v+1)*w needs three resident columns and
        # overflows the 2 GB card mid-plan
        future = con.submit("SELECT sum((v + 1) * w) AS s FROM big")
        con.drain()
        assert isinstance(future.exception(), OcelotOOM)
        memory = con.backend.engine.memory
        leaked = [e for e in memory.entries() if e.kind is BufferKind.RESULT]
        assert leaked == []
        # and the connection still serves queries afterwards
        ok = con.execute("SELECT sum(v) AS s FROM big")
        assert ok.n_rows == 1
