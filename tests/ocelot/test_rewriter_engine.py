"""The query rewriter and mixed Ocelot/MonetDB execution (§3.1, §3.4)."""

import numpy as np
import pytest

from repro.monetdb import Catalog, MALBuilder, Owner, run_program
from repro.monetdb.mal import Var
from repro.monetdb.ops import OPS
from repro.ocelot import (
    OcelotBackend,
    count_syncs,
    rewrite_for_ocelot,
)


@pytest.fixture
def catalog():
    rng = np.random.default_rng(5)
    cat = Catalog()
    cat.create_table("t", {
        "a": rng.integers(0, 100, 5000).astype(np.int32),
        "b": rng.normal(0, 1, 5000).astype(np.float32),
    })
    return cat


def test_supported_ops_rerouted():
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    cand = builder.emit("algebra", "select", (a, None, 1, 2, True, True,
                                              False))
    program = builder.returns([("n", builder.emit("aggr", "count", (cand,)))])
    rewritten = rewrite_for_ocelot(program)
    modules = [ins.module for ins in rewritten.instructions]
    assert modules == ["sql", "ocelot", "ocelot"]


def test_sync_before_result_columns():
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    cand = builder.emit("algebra", "select", (a, None, 1, 2, True, True,
                                              False))
    program = builder.returns([("oids", cand)])
    rewritten = rewrite_for_ocelot(program)
    assert count_syncs(rewritten) == 1
    assert rewritten.instructions[-1].op == "ocelot.sync"
    # the result column references the synced variable
    assert rewritten.result_columns[0][1].name.endswith("_s")


def test_sync_before_foreign_operator():
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    cand = builder.emit("algebra", "select", (a, None, 1, 50, True, True,
                                              False))
    vals = builder.emit("algebra", "projection", (cand, a))
    top = builder.emit("algebra", "firstn", (vals, 5, True))  # MonetDB-only
    out = builder.emit("algebra", "projection", (top, vals))
    program = builder.returns([("v", out)])
    rewritten = rewrite_for_ocelot(program)
    ops = [ins.op for ins in rewritten.instructions]
    firstn_at = ops.index("algebra.firstn")
    assert "ocelot.sync" in ops[:firstn_at]
    # projection after firstn runs on Ocelot again
    assert ops[firstn_at + 1] == "ocelot.projection"


def test_scalar_results_not_synced():
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    total = builder.emit("aggr", "sum", (a,))
    program = builder.returns([("s", total)])
    rewritten = rewrite_for_ocelot(program)
    assert count_syncs(rewritten) == 0


def test_rename_propagates_to_later_uses():
    builder = MALBuilder("q")
    a = builder.bind("t", "a")
    cand = builder.emit("algebra", "select", (a, None, 1, 50, True, True,
                                              False))
    top = builder.emit("algebra", "firstn", (cand, 3, True))
    # 'cand' used again after the foreign op: must use the synced name
    count = builder.emit("aggr", "count", (cand,))
    program = builder.returns([("n", count), ("t", top)])
    rewritten = rewrite_for_ocelot(program)
    assert count_syncs(rewritten) == 1  # synced once, reused
    count_ins = [
        i for i in rewritten.instructions if i.op == "ocelot.count"
    ][0]
    assert isinstance(count_ins.args[0], Var)
    assert count_ins.args[0].name.endswith("_s")


def test_map_covers_all_host_code():
    from repro.ocelot.operators import HOST_CODE

    mapped = {row.function for row in OPS.values() if row.device}
    # sync is inserted (not mapped) and fused pipes are rerouted via the
    # fuse-module special case; everything else must be reachable
    assert mapped == set(HOST_CODE) - {"sync", "pipe"}


class TestMixedExecution:
    def test_foreign_op_runs_on_fallback(self, catalog):
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        cand = builder.emit("algebra", "select", (a, None, 0, 50, True, True,
                                                  False))
        vals = builder.emit("algebra", "projection", (cand, a))
        top = builder.emit("algebra", "firstn", (vals, 10, True))
        out = builder.emit("algebra", "projection", (top, vals))
        program = builder.returns([("v", out)])

        from repro.monetdb.backends import MonetDBSequential

        expected = run_program(program, MonetDBSequential(catalog))
        backend = OcelotBackend(catalog, "cpu")
        got = run_program(rewrite_for_ocelot(program), backend)
        assert np.array_equal(expected.columns["v"], got.columns["v"])
        # the foreign op's time landed on the host timeline
        assert got.elapsed > 0

    def test_sync_returns_ownership(self, catalog):
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        cand = builder.emit("algebra", "select", (a, None, 0, 50, True,
                                                  True, False))
        program = builder.returns([("oids", cand)])
        backend = OcelotBackend(catalog, "gpu")
        result = run_program(rewrite_for_ocelot(program), backend)
        synced = result.env[result.program.result_columns[0][1].name]
        assert synced.owner is Owner.MONETDB
        assert synced.has_host_values

    def test_unsynced_result_refused(self, catalog):
        from repro.monetdb.mal import MALInstruction, MALProgram

        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        cand = builder.emit("ocelot", "select", (a, None, 0, 50, True,
                                                 True, False))
        program = builder.returns([("oids", cand)])  # no sync: rewriter bug
        backend = OcelotBackend(catalog, "cpu")
        with pytest.raises(RuntimeError, match="sync"):
            run_program(program, backend)

    def test_framework_overhead_charged_on_cpu(self, catalog):
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        program = builder.returns([("n", builder.emit("aggr", "count", (a,)))])
        cpu = OcelotBackend(catalog, "cpu")
        gpu = OcelotBackend(catalog, "gpu")
        t_cpu = run_program(program, cpu).elapsed
        t_gpu = run_program(program, gpu).elapsed
        overhead = cpu.engine.device.profile.framework_overhead_s
        assert overhead > 0
        assert t_cpu >= overhead
        assert t_gpu < overhead / 10

    def test_device_oom_propagates(self, catalog):
        from repro import cl
        from repro.ocelot.memory import OcelotOOM

        tiny = cl.get_device("gpu", global_mem_bytes=1024)
        backend = OcelotBackend(catalog, tiny)
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        out, order = builder.emit("algebra", "sort", (a, False), n_results=2)
        program = builder.returns([("n", builder.emit("aggr", "count",
                                                      (order,)))])
        with pytest.raises(OcelotOOM):
            run_program(rewrite_for_ocelot(program), backend)

    def test_hash_table_cache_across_queries(self, catalog):
        """§5.2.6: join tables of base columns survive between queries."""
        builder = MALBuilder("q")
        fk = builder.bind("t", "a")
        pk = builder.bind("t", "a")
        lpos, rpos = builder.emit("algebra", "join", (fk, pk), n_results=2)
        program = builder.returns(
            [("n", builder.emit("aggr", "count", (lpos,)))]
        )
        backend = OcelotBackend(catalog, "gpu")
        plan = rewrite_for_ocelot(program)
        first = run_program(plan, backend)
        second = run_program(plan, backend)
        assert backend.engine.memory.stats.hash_cache_hits >= 1
        assert second.elapsed < first.elapsed
