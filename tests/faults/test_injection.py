"""Scheduler-path fault injection: park-and-retry under OOM, the
retry-queue starvation fix, bounded re-parks, deadlines, cancellation,
admission control, and transient re-routing — all through
``Connection.submit``."""

import pytest

from repro.ocelot.memory import OcelotOOM
from repro.serve import (
    MAX_PARKS,
    CircuitOpen,
    FaultyBackend,
    NodeFault,
    QueryCancelled,
    QueryTimeout,
    TransientFault,
)
from repro.serve.faults import wrap_shard_child

QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"
OTHER = "SELECT sum(y) AS s FROM points WHERE x < 4"


def _faulty(con, schedule):
    faulty = FaultyBackend(con.backend, schedule)
    con.backend = faulty
    con._scheduler = None
    return faulty


class TestParkAndRetry:
    def test_oom_parks_then_completes(self, points_db, assert_results_equal):
        con = points_db.connect("MS")
        clean = con.execute(QUERY)
        _faulty(con, {1: OcelotOOM("boom"), 2: OcelotOOM("boom")})
        future = con.submit(QUERY)
        con.drain()
        assert future.exception() is None
        assert_results_equal(clean, future.result())
        # parked twice (one per OOM), completed on the third run
        parked = [s for s, op in con.scheduler.turn_log if op == "parked"]
        assert len(parked) == 2

    def test_reparks_are_bounded(self, points_db, assert_results_equal):
        con = points_db.connect("MS")
        clean = con.execute(QUERY)
        # each run dies on its first operator: the initial run plus
        # MAX_PARKS re-runs consume exactly MAX_PARKS + 1 faults
        _faulty(con, {k: OcelotOOM("boom")
                      for k in range(1, MAX_PARKS + 2)})
        future = con.submit(QUERY)
        con.drain()
        # initial run + MAX_PARKS re-runs all OOMed: the error surfaces
        assert isinstance(future.exception(), OcelotOOM)
        parked = [op for _s, op in con.scheduler.turn_log if op == "parked"]
        assert len(parked) == MAX_PARKS
        # the connection is not poisoned (schedule ran dry)
        assert_results_equal(clean, con.execute(QUERY))

    def test_parked_query_is_not_starved_by_new_arrivals(
        self, points_db, assert_results_equal
    ):
        """Regression: a steady arrival stream used to keep a parked
        query waiting forever.  New submissions are held back until the
        retry queue drains — the twice-parked query completes *before*
        the later arrival runs."""
        con = points_db.connect("MS")
        clean = {QUERY: con.execute(QUERY), OTHER: con.execute(OTHER)}
        _faulty(con, {1: OcelotOOM("boom"), 2: OcelotOOM("boom")})
        first = con.submit(QUERY)
        scheduler = con.scheduler
        scheduler.step()                      # first run OOMs: parked
        late = [con.submit(OTHER) for _ in range(3)]
        assert len(scheduler._pending) == 3   # held behind the retry
        con.drain()
        assert_results_equal(clean[QUERY], first.result())
        for future in late:
            assert_results_equal(clean[OTHER], future.result())
        # ordering: both parks, then the parked query's completing run,
        # then each late arrival's run, in the turn log
        runs = list(dict.fromkeys(scheduler.turn_log))
        sessions = [s for s, op in runs if op != "parked"]
        assert [op for _s, op in runs[:2]] == ["parked", "parked"]
        assert list(dict.fromkeys(sessions)) == \
            [first.session] + [future.session for future in late]


class TestDeadlinesAndCancellation:
    def test_submit_timeout_fails_the_query(self, points_db):
        con = points_db.connect("MS")
        future = con.submit(QUERY, timeout=1e-9)
        con.drain()
        assert isinstance(future.exception(), QueryTimeout)
        # the engine stays healthy for deadline-free work
        assert con.execute(QUERY).n_rows == 8

    def test_spec_level_timeout_applies_to_every_submit(self, points_db):
        con = points_db.connect("MS:timeout=1e-9")
        futures = [con.submit(QUERY), con.submit(OTHER)]
        con.drain()
        for future in futures:
            assert isinstance(future.exception(), QueryTimeout)
        # a generous spec deadline lets the same queries finish
        roomy = points_db.connect("MS:timeout=1e6")
        ok = roomy.submit(QUERY)
        roomy.drain()
        assert ok.exception() is None

    def test_pipelined_timeout(self, points_db):
        con = points_db.connect("HET")
        doomed = con.submit(QUERY, timeout=1e-9)
        fine = con.submit(OTHER)
        con.drain()
        assert isinstance(doomed.exception(), QueryTimeout)
        assert fine.exception() is None

    def test_cancel_running_query(self, points_db):
        con = points_db.connect("HET")
        keep = con.submit(QUERY)
        doomed = con.submit(OTHER)
        assert doomed.cancel()
        con.drain()
        assert isinstance(doomed.exception(), QueryCancelled)
        assert keep.exception() is None
        assert not doomed.cancel()            # already finished

    def test_cancel_pending_query_fails_it_immediately(self, points_db):
        con = points_db.connect("HET:admission=1")
        con.submit(QUERY)
        pending = con.submit(OTHER)
        assert pending.cancel()
        assert pending.done()                 # no drain needed
        assert isinstance(pending.exception(), QueryCancelled)
        con.drain()


class TestAdmissionControl:
    def test_concurrency_cap_holds_submissions_back(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("HET:admission=2")
        clean = con.execute(QUERY)
        futures = [con.submit(QUERY) for _ in range(5)]
        scheduler = con.scheduler
        assert len(scheduler) <= 2
        while scheduler.step():
            assert len(scheduler) <= 2        # never over the cap
        for future in futures:
            assert_results_equal(clean, future.result())

    def test_memory_budget_defers_submissions(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("HET")
        clean = con.execute(QUERY)
        scheduler = con.scheduler
        # both columns of `points` are bound by the query; a budget of
        # 1.5 plans admits one in-flight query at a time
        per_query = scheduler._estimate_bytes(
            points_db.plan_cache.prepare(
                QUERY, con.config, points_db.schema
            )[1]
        )
        assert per_query > 0
        scheduler.memory_budget = int(1.5 * per_query)
        futures = [con.submit(QUERY) for _ in range(3)]
        assert len(scheduler) == 1
        while scheduler.step():
            assert scheduler._inflight_bytes <= scheduler.memory_budget
        for future in futures:
            assert_results_equal(clean, future.result())

    def test_open_breaker_refuses_submission(self, points_db):
        con = points_db.connect("MS")
        con.execute(QUERY)
        _faulty(con, {k: TransientFault("down") for k in (1, 2, 3)})
        with pytest.raises(TransientFault):
            con.execute(QUERY)                # trips the self breaker
        future = con.submit(QUERY)
        assert future.done()                  # refused at admission
        assert isinstance(future.exception(), CircuitOpen)


class TestTransientRerouteViaSubmit:
    def test_shard_fault_parks_reroutes_and_completes(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:3xCPU")
        clean = con.execute(QUERY)
        wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        future = con.submit(QUERY)
        con.drain()
        assert future.exception() is None
        assert_results_equal(clean, future.result())
        assert con.backend.cluster.excluded == {1}
        parked = [op for _s, op in con.scheduler.turn_log
                  if op == "parked"]
        assert len(parked) == MAX_PARKS       # two retries + the trip

    def test_concurrent_queries_survive_the_reroute(
        self, points_db, assert_results_equal
    ):
        """Two interleaved queries both tripping over the same sick
        shard: the breaker trips once, the topology changes once, and
        both queries complete correctly on the healthy remainder."""
        con = points_db.connect("SHARD:3xCPU")
        clean = {QUERY: con.execute(QUERY), OTHER: con.execute(OTHER)}
        wrap_shard_child(con.backend, 1, {
            k: NodeFault("shard 1 down", node=1) for k in (1, 2, 3)
        })
        faulted = con.submit(QUERY)
        innocent = con.submit(OTHER)
        con.drain()
        assert_results_equal(clean[QUERY], faulted.result())
        assert_results_equal(clean[OTHER], innocent.result())
        assert con.backend.cluster.excluded == {1}

    def test_blips_on_every_shard_exhaust_the_one_retry_budget(
        self, points_db, assert_results_equal
    ):
        """Four blips on four different shards trip no breaker (three in
        a row on one node would): the flight parks ``MAX_PARKS`` times
        and then surfaces the fault — ``execute()`` has no retry budget
        of its own — and the next statement is served."""
        con = points_db.connect("SHARD:4xMS")
        clean = con.execute(QUERY)
        for shard in range(4):
            wrap_shard_child(con.backend, shard, {
                1: NodeFault(f"shard {shard} down", node=shard)})
        with pytest.raises(NodeFault):
            con.execute(QUERY)
        parked = [op for _s, op in con.scheduler.turn_log
                  if op == "parked"]
        assert len(parked) == MAX_PARKS
        assert_results_equal(clean, con.execute(QUERY))
        assert all(breaker.state == "closed"
                   for breaker in con.backend.health)


class TestRegionMembers:
    """A whole-backend wrap reaches inside ``morsel.run``: the
    interpreter builds the region's runner over the backend it was
    given — the wrapper — so every member operator of every morsel
    passes the schedule.  (A backend hook used to build the runner, and
    the proxy handed that hook to the wrapped backend: members bypassed
    the schedule and a fault planned on one could never fire.)"""

    FILTERED = "SELECT x, sum(y) AS s FROM points WHERE y < 0.5 GROUP BY x"
    MORSELS = 4

    def _plan(self, con):
        program = con.execute(self.FILTERED).program
        regions = [(index, instruction.args[0]) for index, instruction
                   in enumerate(program.instructions)
                   if instruction.op == "morsel.run"]
        if not con.config.effective("morsel"):
            pytest.skip("REPRO_MORSEL=off: the plan has no region")
        assert regions, program.format()
        return program, regions

    def test_the_wrapper_counts_member_operators(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect(f"MS:morsel={4000 // self.MORSELS}")
        clean = con.execute(self.FILTERED)
        program, regions = self._plan(con)
        faulty = _faulty(con, {})
        assert_results_equal(clean, con.execute(self.FILTERED))
        top_level = len(program.instructions) - len(regions)
        members = sum(len(region.members) for _index, region in regions)
        assert members >= 3
        # every member once per morsel, and nothing else: the group
        # merge at finalize is host arithmetic
        assert faulty.ops_seen == top_level + members * self.MORSELS

    def test_a_fault_on_a_member_reaches_the_scheduler(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect(f"MS:morsel={4000 // self.MORSELS}")
        clean = con.execute(self.FILTERED)
        program, regions = self._plan(con)
        first, region = regions[0]
        member_ops = {member.op for member in region.members}
        top_level_ops = {i.op for i in program.instructions}
        assert not member_ops <= top_level_ops
        # the operators before the region, then into its second morsel
        count = first + len(region.members) + 2
        faulty = _faulty(con, {count: OcelotOOM("boom")})
        future = con.submit(self.FILTERED)
        con.drain()
        assert [(n, op) for n, op, _error in faulty.injected] == [
            (count, region.members[1].op)]
        assert future.exception() is None
        assert_results_equal(clean, future.result())
        parked = [op for _s, op in con.scheduler.turn_log if op == "parked"]
        assert len(parked) == 1


class TestTracedThroughTheWrapper:
    """A traced run and a shard fan-out hand their tracer to the backend
    they were given (``backend.tracer = …``); through a wrapper that is
    the wrapped backend's, or its dispatch spans go missing."""

    FILTERED = "SELECT x, sum(y) AS s FROM points WHERE y < 0.5 GROUP BY x"

    @staticmethod
    def _dispatch_spans(result) -> int:
        return sum(1 for span in result.trace.walk() if span.cat == "dispatch")

    def test_a_whole_backend_wrap_keeps_the_dispatch_spans(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("HET:trace=on")
        clean = con.execute(self.FILTERED)
        assert self._dispatch_spans(clean) > 0
        _faulty(con, {})
        wrapped = con.execute(self.FILTERED)
        assert_results_equal(clean, wrapped)
        assert self._dispatch_spans(wrapped) == self._dispatch_spans(clean)

    def test_a_wrapped_shard_child_keeps_its_dispatch_spans(
        self, points_db, assert_results_equal
    ):
        con = points_db.connect("SHARD:2xHET,trace=on")
        clean = con.execute(self.FILTERED)
        wrap_shard_child(con.backend, 1)
        wrapped = con.execute(self.FILTERED)
        assert_results_equal(clean, wrapped)
        spans = [span for span in wrapped.trace.walk()
                 if span.cat == "dispatch"]
        assert len(spans) == self._dispatch_spans(clean)
        # shard 1's lane still holds its child's dispatches
        lanes = {span.parent.tid for span in spans}
        assert lanes == {"shard0", "shard1"}
