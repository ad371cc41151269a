"""The synchronous driver ``execute()`` had before it became a flight of
the session scheduler, kept as the reference.

``old_run_cached`` / ``old_run_program`` are ``Connection._run_cached``
and ``run_program`` of the commit before, verbatim but for what no
longer exists to call: the placement trace was handed over by
``sessions.arm()`` before and consumed by ``sessions.reset()`` inside
``begin()`` — here it is assigned to the fresh state ``begin()`` leaves
current, which is what the pair did — and ``self`` is the connection.  The old
driver runs a query on the engine's plain ``begin()``/``elapsed()``
clock, the new one as a session on its timeline, so agreement on
``repr(elapsed)`` here is the one-price claim against an independent
implementation, not against itself.

Then the fault schedules of ``tests/faults/test_injection.py`` and
``test_degraded_mode.py`` are replayed through both on twin databases:
same outcome (result, or exception type), same breaker states, same
``cluster.*`` and ``obs.queries`` counters — except for the two stated,
intended differences at the bottom: the scheduler's bounded re-run on
device memory pressure now covers ``execute()`` (the old driver let an
``OcelotOOM`` through on first sight), and there is one retry budget —
``MAX_PARKS`` = 3 — where the old driver had its own of 8.
"""

import numpy as np
import pytest

import repro
from repro.monetdb.interpreter import ProgramRun
from repro.ocelot.memory import OcelotOOM
from repro.serve import (
    CircuitOpen,
    FaultyBackend,
    NodeFault,
    TransientFault,
)
from repro.serve.faults import wrap_shard_child, wrap_shard_node
from repro.tpch import WORKLOAD

QUERY = "SELECT x, sum(y) AS s FROM points GROUP BY x"


# -- the old driver, verbatim -------------------------------------------------

#: bounded node-failure retries per statement on the synchronous path
MAX_TRANSIENT_RETRIES = 8


def old_run_program(program, backend, tracer=None, armed=None):
    backend.begin()
    backend.sessions.current.replay = armed or None    # arm() + reset()
    if tracer is not None:
        tracer.clock = backend.elapsed_now
    run = ProgramRun(program, backend, tracer=tracer)
    try:
        run.run()
        return run.collect(backend.elapsed())
    finally:
        run.close()


def old_run_cached(self, entry, program=None, tracer=None,
                   name: str = "query"):
    backend = self.backend
    sessions = backend.sessions
    if program is None:
        program = entry.program
    for attempt in range(MAX_TRANSIENT_RETRIES + 1):
        backend.query_boundary()
        backend.health.admit(backend.label)
        if tracer is not None:
            tracer.event(
                "admission", cat="admission", attempt=attempt,
                breakers={b.name: b.state for b in backend.health},
            )
        try:
            result = old_run_program(program, backend, tracer=tracer,
                                     armed=entry.placements)
        except TransientFault as fault:
            # a node-level failure: consult the breaker board; a
            # tripped breaker reroutes reads around the sick node
            # (the placement trace is stale either way)
            entry.placements = None
            action = backend.note_node_failure(fault)
            if action == "fail" or attempt >= MAX_TRANSIENT_RETRIES:
                raise
            continue
        if sessions is not None:
            trace, replayed = sessions.trace()
            entry.placements = trace
            self.plan_cache.stats.placement_reuses += replayed
        backend.health.record_success()
        self.metrics.record_query(name, result.elapsed)
        return result


def old_execute(con, sql, name="query"):
    entry, program = con.plan_cache.prepare(
        sql, con.config, con.database.schema, name=name
    )
    return old_run_cached(con, entry, program, name=name)


def new_execute(con, sql, name="query"):
    return con.execute(sql, name=name)


DRIVERS = {"old": old_execute, "new": new_execute}


# -- same price -----------------------------------------------------------------

def prices(spec, sf, names) -> dict:
    """Per driver: ``(query, repr(elapsed), placement reuses so far)``
    of ``names`` run cold, then warm, on a fresh database."""
    seen = {}
    for label, run in DRIVERS.items():
        with repro.tpch_database(sf=sf) as db:
            con = db.connect(spec)
            seen[label] = [
                (name, repr(run(con, WORKLOAD[name], name).elapsed),
                 con.plan_cache.stats.placement_reuses)
                for _pass in range(2) for name in names
            ]
    return seen


@pytest.mark.parametrize("spec", ("CPU", "HET", "SHARD:2xCPU", "SHARD:2xHET"))
def test_a_session_costs_what_begin_elapsed_cost(spec):
    seen = prices(spec, 0.1, list(WORKLOAD))
    assert seen["new"] == seen["old"]


def test_a_session_costs_the_same_under_memory_pressure():
    """SF 8 exceeds the simulated GTX 460: morsels are stolen by the
    device whose frontier is earliest, and a session's frontier is its
    floor where a plain query's joins had moved the queue's own clocks
    (Q1 came out 10 % cheaper as a session before the pool said so)."""
    seen = prices("HET", 8, ("Q1", "Q4", "Q6", "Q7", "Q15"))
    assert seen["new"] == seen["old"]


# -- same behaviour under faults ----------------------------------------------

def points_db() -> repro.Database:
    rng = np.random.default_rng(23)
    db = repro.Database()
    db.create_table("points", {
        "x": rng.integers(0, 8, 4000).astype(np.int32),
        "y": rng.random(4000).astype(np.float32),
    })
    return db


def whole_backend(schedule):
    def inject(con):
        con.backend = FaultyBackend(con.backend, schedule())
    return inject


def always(error):
    def inject(con):
        con.backend = FaultyBackend(con.backend)
        con.backend.always = error
    return inject


def one_shard(shard, schedule):
    return lambda con: wrap_shard_child(con.backend, shard, schedule())


def observe(con, run, statements) -> dict:
    """Outcome of every statement, then the state the serving tier
    left behind."""
    outcomes = []
    for sql in statements:
        try:
            result = run(con, sql)
        except Exception as error:             # the outcome under test
            outcomes.append(type(error).__name__)
        else:
            outcomes.append({name: values.tolist()
                             for name, values in result.columns.items()})
    snapshot = con.metrics.snapshot()
    return {
        "outcomes": outcomes,
        "breakers": {b.name: (b.state, b.trips) for b in con.backend.health},
        "counters": {key: value for key, value in snapshot.items()
                     if key.startswith(("cluster.", "obs."))},
    }


def replay(spec, inject, statements, make_db=points_db) -> dict:
    seen = {}
    for label, run in DRIVERS.items():
        with make_db() as db:
            con = db.connect(spec)
            run(con, statements[0])            # warm: plans, partitions
            inject(con)
            seen[label] = observe(con, run, statements)
    return seen


def transient(*ops):
    return lambda: {k: TransientFault("down") for k in ops}


def node_down(node, *ops):
    return lambda: {k: NodeFault(f"shard {node} down", node=node)
                    for k in ops}


SAME = {
    # test_backend_contract / test_differential: a blip is retried unseen
    "blip-retried": ("MS", whole_backend(transient(1)), [QUERY]),
    "two-blips-per-query": ("MS", whole_backend(transient(1, 2)),
                            [QUERY, QUERY]),
    # test_injection::test_open_breaker_refuses_submission
    "three-in-a-row-trips-then-refuses": (
        "MS", whole_backend(transient(1, 2, 3)), [QUERY, QUERY]),
    # test_injection::test_reparks_are_bounded — pressure that stays
    "persistent-oom-surfaces": ("MS", always(OcelotOOM("boom")),
                                [QUERY, QUERY]),
    # test_injection::TestTransientRerouteViaSubmit
    "sick-shard-is-routed-around": (
        "SHARD:3xCPU", one_shard(1, node_down(1, 1, 2, 3)),
        [QUERY, QUERY]),
    "sick-device-is-banned": (
        "HET", whole_backend(lambda: {
            k: NodeFault("gpu down", node=1) for k in (1, 2, 3)}),
        [QUERY, QUERY]),
}


@pytest.mark.parametrize("case", SAME)
def test_fault_schedules_end_the_same_way(case):
    seen = replay(*SAME[case])
    assert seen["new"] == seen["old"]


def test_three_in_a_row_is_what_the_case_says():
    seen = replay(*SAME["three-in-a-row-trips-then-refuses"])["new"]
    assert seen["outcomes"] == [TransientFault.__name__,
                                CircuitOpen.__name__]
    assert seen["breakers"]["self"] == ("open", 1)


def test_failover_on_a_replicated_cluster_ends_the_same_way():
    """``test_degraded_mode``: node 2 of ``SHARD:4xCPU,replicas=2`` dies
    for good; the first statement rides through trip and promotion."""
    def kill_node_2(con):
        for wrapper in wrap_shard_node(con.backend, 2):
            wrapper.always = NodeFault("node 2 down")

    statements = [WORKLOAD[name] for name in ("Q1", "Q6", "Q12")]
    seen = replay("SHARD:4xCPU,replicas=2", kill_node_2, statements,
                  make_db=lambda: repro.tpch_database(sf=0.05))
    assert seen["new"] == seen["old"]
    assert seen["new"]["counters"]["cluster.promotions"] >= 1
    assert not any(isinstance(outcome, str)
                   for outcome in seen["new"]["outcomes"])


# -- the two intended differences -----------------------------------------------

def test_difference_one_oom_policy():
    """``test_injection::test_oom_parks_then_completes``, through
    ``execute()``: pressure that passes is retried, alone, at most
    ``MAX_PARKS`` times — the old driver had no such handling."""
    seen = replay("MS", whole_backend(
        lambda: {1: OcelotOOM("boom"), 2: OcelotOOM("boom")}), [QUERY])
    assert seen["old"]["outcomes"] == [OcelotOOM.__name__]
    assert isinstance(seen["new"]["outcomes"][0], dict)
    assert seen["new"]["counters"]["obs.queries"] == 2    # warm-up + it


def test_difference_one_retry_budget():
    """Four blips on four different shards trip no breaker (three in a
    row on one node would): the old driver retried up to eight times,
    a flight parks at most ``MAX_PARKS`` = 3 times."""
    def blips(con):
        for shard in range(4):
            wrap_shard_child(con.backend, shard, node_down(shard, 1)())

    seen = replay("SHARD:4xMS", blips, [QUERY, QUERY])
    assert isinstance(seen["old"]["outcomes"][0], dict)
    assert seen["new"]["outcomes"][0] == NodeFault.__name__
    # and neither left a breaker open: the next statement is served
    assert seen["new"]["outcomes"][1] == seen["old"]["outcomes"][1]
    assert all(state == "closed"
               for state, _trips in seen["new"]["breakers"].values())
