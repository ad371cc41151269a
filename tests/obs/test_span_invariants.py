"""Span-tree invariants and trace=on/off equivalence.

Tracing must be an *observer*: identical results and identical
simulated time with and without it, spans nested strictly inside their
parents, per-operator times reconciling with the wall clock, and the
same span structure for the same plan wherever the plan is the same.
"""

import pytest

from repro import tpch

#: the fast subset; the full 14-query matrix runs under ``slow``
FAST_QUERIES = ("Q1", "Q6", "Q12")
ENGINES = ("MS", "SHARD:2xCPU")

EPS = 1e-9


def _walk_intervals(span):
    for child in span.children:
        assert span.t0 - EPS <= child.t0, (span.name, child.name)
        assert child.t1 <= span.t1 + EPS, (span.name, child.name)
        _walk_intervals(child)


class TestSpanTree:
    @pytest.mark.parametrize("engine", ENGINES + ("HET",))
    def test_children_nest_inside_parents(self, tpch_db, engine):
        con = tpch_db.connect(engine)
        result = con.execute(tpch.WORKLOAD["Q1"], analyze=True)
        root = result.trace.root()
        assert root.name == "query"
        _walk_intervals(root)

    @pytest.mark.parametrize("engine", ENGINES + ("HET",))
    def test_operator_times_bounded_by_wall(self, tpch_db, engine):
        con = tpch_db.connect(engine)
        result = con.execute(tpch.WORKLOAD["Q12"], analyze=True)
        tracer = result.trace
        total = sum(s.duration for s in tracer.instruction_spans())
        assert total <= tracer.wall_s * (1 + EPS) + EPS

    def test_same_plan_same_structure_across_runs(self, tpch_db):
        con = tpch_db.connect("HET")
        first = con.execute(tpch.WORKLOAD["Q6"], analyze=True)
        again = con.execute(tpch.WORKLOAD["Q6"], analyze=True)
        assert first.trace.root().structure() == (
            again.trace.root().structure()
        )

    @pytest.mark.parametrize("single,sharded", [
        ("MS", "SHARD:2xMS"),
        ("CPU", "SHARD:2xCPU"),
    ])
    def test_instruction_spans_match_across_topologies(
        self, tpch_db, single, sharded
    ):
        """The sharded engine runs its child family's plan, so the
        instruction-level span sequence is identical — only the
        per-shard fan-out below each instruction differs."""
        a = tpch_db.connect(single).execute(
            tpch.WORKLOAD["Q6"], analyze=True
        )
        b = tpch_db.connect(sharded).execute(
            tpch.WORKLOAD["Q6"], analyze=True
        )
        names = [s.name for s in a.trace.instruction_spans()]
        assert names == [s.name for s in b.trace.instruction_spans()]


class TestTraceTransparency:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", FAST_QUERIES)
    def test_results_and_time_identical_fast(
        self, tpch_db, assert_results_equal, engine, query
    ):
        self._check(tpch_db, assert_results_equal, engine, query)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", sorted(tpch.WORKLOAD))
    def test_results_and_time_identical_full(
        self, tpch_db, assert_results_equal, engine, query
    ):
        self._check(tpch_db, assert_results_equal, engine, query)

    @staticmethod
    def _check(tpch_db, assert_results_equal, engine, query):
        sql = tpch.WORKLOAD[query]
        plain = tpch_db.connect(engine).execute(sql)
        traced = tpch_db.connect(f"{engine},trace=on"
                                 if ":" in engine or "," in engine
                                 else f"{engine}:trace=on").execute(sql)
        assert plain.trace is None
        assert traced.trace is not None
        assert_results_equal(plain, traced, f"{engine} {query}")
        assert traced.elapsed == pytest.approx(plain.elapsed, rel=1e-12)

    @pytest.mark.parametrize("spec,env", [
        ("HET:trace=on", None),
        ("SHARD:2xCPU:trace=on", None),
        ("HET", "on"),
    ])
    def test_submit_traces_like_execute(
        self, tpch_dbs, monkeypatch, assert_results_equal, spec, env
    ):
        """``submit()`` honours ``trace=on`` and ``REPRO_TRACE`` as
        ``execute()`` does (it ignored both from PR 13 on), and stays a
        pure observer there too: same result, same simulated time."""
        sql = tpch.WORKLOAD["Q12"]
        plain = tpch_dbs().connect(
            spec.removesuffix(":trace=on")
        ).submit(sql).result()
        if env is not None:
            monkeypatch.setenv("REPRO_TRACE", env)
        traced = tpch_dbs().connect(spec).submit(sql).result()
        assert plain.trace is None
        assert traced.trace.instruction_spans()
        _walk_intervals(traced.trace.root())
        assert_results_equal(plain, traced, spec)
        assert traced.elapsed == plain.elapsed

    def test_trace_off_result_has_no_tracer(self, points_db):
        result = points_db.connect("CPU").execute(
            "SELECT sum(y) AS s FROM points"
        )
        assert result.trace is None
