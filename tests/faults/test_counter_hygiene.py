"""Per-query counter hygiene across failed queries (PR 9).

A query that dies mid-plan — injected node fault, timeout, or a hard
error — must not leak its per-query counters into the next query's
snapshot.  The reset happens at ``query_boundary()`` (which both the
sync path and the session scheduler run before admission), not in
``begin()`` alone, because pipelined engines never call ``begin``.
"""

import pytest

from repro.serve import FaultyBackend, QueryTimeout
from repro.serve.faults import wrap_shard_child

QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"
OTHER = "SELECT sum(y) AS s FROM points WHERE x < 4"
#: a global sort gathers rows *before* fanning the sort to the shards,
#: so killing the last child operator strands mid-plan traffic
SORTQ = "SELECT x, y FROM points ORDER BY y"


class HardFault(RuntimeError):
    """Not a TransientFault: no retry, no reroute — the query dies."""


def _query_traffic(con):
    snap = con.metrics.snapshot()
    return {
        kind: snap[f"interconnect.query.bytes_{kind}"]
        for kind in ("broadcast", "shuffled", "gathered")
    }


class TestShardTrafficHygiene:
    def test_sync_failure_does_not_leak_into_next_query(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:3xMS")
        clean_result = con.execute(OTHER)
        clean = _query_traffic(con)
        # probe how many operators shard 0 runs for the sort, then kill
        # the next run at its very last child operator — the pre-sort
        # gather's traffic has been charged by then
        probe = wrap_shard_child(con.backend, 0, {})
        con.execute(SORTQ)
        probe.schedule[2 * probe.ops_seen] = HardFault("boom")
        with pytest.raises(HardFault):
            con.execute(SORTQ)
        assert sum(_query_traffic(con).values()) > 0, (
            "the killed query should leave mid-plan residue"
        )
        result = con.execute(OTHER)
        assert_results_equal(clean_result, result)
        assert _query_traffic(con) == clean

    def test_timeout_mid_plan_does_not_leak(self, points_db):
        con = points_db.connect("SHARD:2xMS")
        con.execute(OTHER)
        clean = _query_traffic(con)
        future = con.submit(QUERY, timeout=1e-12)
        con.drain()
        assert isinstance(future.exception(), QueryTimeout)
        con.execute(OTHER)
        assert _query_traffic(con) == clean

    def test_pipelined_path_resets_between_queries(self, points_db):
        """The scheduler path never calls ``begin()`` — the
        ``query_boundary`` reset is what keeps the per-query counters
        per-query."""
        con = points_db.connect("SHARD:2xMS")
        con.execute(OTHER)
        clean = _query_traffic(con)
        f1 = con.submit(QUERY)
        con.drain()
        assert f1.exception() is None
        after_first = _query_traffic(con)
        assert sum(after_first.values()) > 0
        assert after_first != clean
        f2 = con.submit(OTHER)
        con.drain()
        assert f2.exception() is None
        assert _query_traffic(con) == clean

    def test_live_reference_stays_live_across_reset(self, points_db):
        con = points_db.connect("SHARD:2xMS")
        live = con.backend.traffic.query     # held across queries
        con.execute(QUERY)
        assert live.bytes_total > 0
        con.execute(OTHER)
        assert live is con.backend.traffic.query
        assert live.bytes_total == sum(_query_traffic(con).values())


class TestMetricsSnapshotHygiene:
    def test_failed_query_then_diff_around_next_is_clean(
        self, points_db, assert_results_equal
    ):
        """A fault mid-query must not poison ``metrics.diff`` around
        the *next* query: the per-query interconnect deltas reflect
        only the clean query, and the killed query never counts as
        completed."""
        con = points_db.connect("SHARD:2xMS")
        clean_result = con.execute(OTHER)
        clean = _query_traffic(con)
        probe = wrap_shard_child(con.backend, 1, {})
        con.execute(SORTQ)
        completed = con.metrics.queries
        probe.schedule[2 * probe.ops_seen] = HardFault("boom")
        with pytest.raises(HardFault):
            con.execute(SORTQ)
        assert sum(_query_traffic(con).values()) > 0
        assert con.metrics.queries == completed
        before = con.metrics.snapshot()
        result = con.execute(OTHER)
        assert_results_equal(clean_result, result)
        changed = con.metrics.diff(before)
        assert changed["obs.queries"] == 1
        snap = con.metrics.snapshot()
        assert snap["interconnect.query.bytes_broadcast"] == (
            clean["broadcast"]
        )
        assert snap["interconnect.query.bytes_gathered"] == (
            clean["gathered"]
        )

    def test_query_counter_not_bumped_by_failures(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        assert con.metrics.queries == 1
        faulty = FaultyBackend(con.backend, {1: HardFault("boom")})
        con.backend = faulty
        con._scheduler = None
        with pytest.raises(HardFault):
            con.execute(QUERY)
        assert con.metrics.queries == 1
        faulty.schedule.clear()
        con.execute(QUERY)
        assert con.metrics.queries == 2
