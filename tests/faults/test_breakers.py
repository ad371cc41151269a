"""Circuit breakers: trip / cooldown / half-open mechanics, the
single-node "self" breaker on the synchronous execute path, and the
tiered route-around — a sharded backend excluding a sick shard and the
heterogeneous scheduler banning a sick device — all driven by
deterministic operator-count fault schedules."""

import pytest

from repro.serve import CircuitOpen, FaultyBackend, NodeFault, TransientFault
from repro.serve.faults import wrap_shard_child
from repro.serve.resilience import (
    DEFAULT_COOLDOWN,
    DEFAULT_THRESHOLD,
    BreakerBoard,
    CircuitBreaker,
)

QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"


class TestCircuitBreakerUnit:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("n")
        for _ in range(DEFAULT_THRESHOLD - 1):
            assert not breaker.record_failure()
            assert breaker.allow()
        assert breaker.record_failure()      # the trip
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker("n")
        for _ in range(10):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.trips == 0

    def test_cooldown_promotes_to_half_open_then_success_closes(self):
        breaker = CircuitBreaker("n")
        for _ in range(DEFAULT_THRESHOLD):
            breaker.record_failure()
        for _ in range(DEFAULT_COOLDOWN - 1):
            breaker.tick()
            assert breaker.state == "open"
        breaker.tick()
        assert breaker.state == "half-open"
        assert breaker.allow()               # one probe allowed
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_retrips_with_doubled_backoff(self):
        breaker = CircuitBreaker("n")
        for _ in range(DEFAULT_THRESHOLD):
            breaker.record_failure()
        for _ in range(DEFAULT_COOLDOWN):
            breaker.tick()
        assert breaker.state == "half-open"
        assert breaker.record_failure()      # probe fails: instant re-trip
        assert breaker.state == "open"
        assert breaker.trips == 2
        for _ in range(DEFAULT_COOLDOWN):
            breaker.tick()
        assert breaker.state == "open"       # old cooldown is not enough
        for _ in range(DEFAULT_COOLDOWN):
            breaker.tick()
        assert breaker.state == "half-open"  # doubled backoff elapsed
        breaker.record_success()
        assert breaker._backoff == DEFAULT_COOLDOWN   # reset on close

    def test_board_keys_breakers_by_node_identity(self):
        board = BreakerBoard()
        a = board.breaker(("shard", 0))
        b = board.breaker(("shard", 1))
        assert a is board.breaker(("shard", 0))
        assert a is not b
        assert len(board) == 2
        for _ in range(DEFAULT_THRESHOLD):
            a.record_failure()
        assert board.open_nodes() == [("shard", 0)]
        board.record_success()               # open breakers get no credit
        assert a.state == "open"
        assert b.failures == 0


class TestSelfBreaker:
    """Single-node engines have nowhere to route: repeated transient
    failures trip the backend-wide breaker and the front door refuses
    admission until the cooldown allows a probe."""

    def test_retries_below_threshold_are_invisible(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("MS")
        clean = con.execute(QUERY)
        con.backend = FaultyBackend(con.backend, {
            1: TransientFault("blip"), 2: TransientFault("blip"),
        })
        con._scheduler = None
        assert_results_equal(clean, con.execute(QUERY))
        assert len(con.backend.injected) == 2
        assert con.backend.health.breaker("self").failures == 0

    def test_trip_opens_the_front_door_then_cooldown_recovers(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("MS")
        clean = con.execute(QUERY)
        con.backend = FaultyBackend(con.backend, {
            k: TransientFault("node down") for k in (1, 2, 3)
        })
        con._scheduler = None
        with pytest.raises(TransientFault):
            con.execute(QUERY)               # three failures: the trip
        breaker = con.backend.health.breaker("self")
        assert breaker.state == "open"
        # while open, work is refused before touching the engine
        refused = 0
        for _ in range(DEFAULT_COOLDOWN - 1):
            with pytest.raises(CircuitOpen):
                con.execute(QUERY)
            refused += 1
        assert refused == DEFAULT_COOLDOWN - 1
        # the next boundary promotes to half-open; the probe (schedule
        # exhausted) succeeds and closes the breaker
        assert_results_equal(clean, con.execute(QUERY))
        assert breaker.state == "closed"


class TestShardRouteAround:
    def test_tripped_shard_is_excluded_and_tables_repartition(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:3xCPU")
        clean = con.execute(QUERY)
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        assert_results_equal(clean, con.execute(QUERY))
        backend = con.backend
        assert backend.cluster.excluded == {1}
        assert backend.partitioner.roster == (0, 2)
        assert len(backend.children) == 2
        assert backend.health.breaker(("shard", 1)).state == "open"
        # the sick node's physical roster slot is untouched
        assert backend.grid[1][0] is sick

    def test_excluded_shard_receives_no_work(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:3xCPU")
        clean = con.execute(QUERY)
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        assert_results_equal(clean, con.execute(QUERY))
        stalled = sick.ops_seen
        # inside the cooldown window the excluded shard stays silent
        for _ in range(DEFAULT_COOLDOWN - 2):
            assert_results_equal(clean, con.execute(QUERY))
        assert sick.ops_seen == stalled

    def test_half_open_probe_refails_then_shard_finally_rejoins(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:3xCPU")
        clean = con.execute(QUERY)
        sick = wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3, 4)
        })
        backend = con.backend
        breaker = backend.health.breaker(("shard", 1))
        # fault 1-3 trip the breaker; fault 4 fails the first half-open
        # probe, re-tripping with doubled backoff; the schedule then
        # runs dry and the next probe readmits the shard for good
        rejoined_at = None
        for query in range(2 * DEFAULT_COOLDOWN + 6):
            assert_results_equal(clean, con.execute(QUERY), f"q{query}")
            if rejoined_at is None and not backend.cluster.excluded:
                rejoined_at = query
        assert rejoined_at is not None
        assert breaker.trips == 2            # initial trip + failed probe
        assert breaker.state == "closed"
        assert backend.cluster.excluded == set()
        assert backend.partitioner.roster == (0, 1, 2)
        assert len(backend.children) == 3
        assert len(sick.injected) == 4       # every scheduled fault fired

    def test_last_healthy_shard_is_never_excluded(self, points_db):
        con = points_db.connect("SHARD:2xCPU")
        con.execute(QUERY)
        wrap_shard_child(con.backend, 0, {
            k: NodeFault("shard 0 down", node=0) for k in range(1, 9)
        })
        wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in range(1, 9)
        })
        with pytest.raises(NodeFault):
            con.execute(QUERY)
        # exactly one shard was excluded; the last one failed the query
        assert len(con.backend.cluster.excluded) == 1


class TestDeviceBan:
    def _trip_device_one(self, con):
        con.backend = FaultyBackend(con.backend, {
            k: NodeFault("device 1 down", node=1) for k in (1, 2, 3)
        })
        con._scheduler = None

    def test_tripped_device_is_banned_from_placement(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("HET")
        clean = con.execute(QUERY)
        self._trip_device_one(con)
        assert_results_equal(clean, con.execute(QUERY))
        backend = con.backend.inner
        assert backend.placer.banned == {1}
        assert backend.health.breaker(("device", 1)).state == "open"
        backend.decision_log.clear()
        assert_results_equal(clean, con.execute(QUERY))
        placed_on = {device for _op, device in backend.decision_log}
        assert placed_on and 1 not in placed_on

    def test_cooldown_unbans_and_the_device_serves_again(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("HET")
        clean = con.execute(QUERY)
        self._trip_device_one(con)
        assert_results_equal(clean, con.execute(QUERY))
        backend = con.backend.inner
        for _ in range(DEFAULT_COOLDOWN):
            assert_results_equal(clean, con.execute(QUERY))
        assert backend.placer.banned == set()
        assert backend.health.breaker(("device", 1)).state == "closed"
        # the next placement sees the unbanned device again
        assert_results_equal(clean, con.execute(QUERY))
        assert 1 in {device for _op, device in backend.decision_log}

    def test_last_healthy_device_is_never_banned(self, points_db):
        con = points_db.connect("HET")
        con.execute(QUERY)
        schedule = {}
        for k in range(1, 30):
            schedule[k] = NodeFault("down", node=k % 2)
        con.backend = FaultyBackend(con.backend, schedule)
        con._scheduler = None
        with pytest.raises(NodeFault):
            con.execute(QUERY)
        assert len(con.backend.inner.placer.banned) <= 1
