"""The heterogeneous scheduler: placement, migration, partitioned
fan-out, and drop-in equivalence with the MS baseline."""

import numpy as np
import pytest

from repro import cl
from repro.bench.harness import BenchContext, uniform_column
from repro.engines import default_registry
from repro.monetdb import Catalog, MALBuilder, MonetDBSequential, run_program
from repro.monetdb.bat import Role
from repro.ocelot.rewriter import rewrite_for_ocelot
from repro.sched import HeterogeneousBackend
from repro.sched.partition import execute_split


def _rewritten(builder_program):
    return rewrite_for_ocelot(builder_program)


def _compare(base, other, context=""):
    assert set(base.columns) == set(other.columns), context
    for col in base.columns:
        a, b = base.columns[col], other.columns[col]
        assert a.shape == b.shape, (context, col)
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert np.allclose(
                a.astype(np.float64), b.astype(np.float64),
                rtol=1e-4, atol=1e-6,
            ), (context, col)
        else:
            assert np.array_equal(a, b), (context, col)


@pytest.fixture
def catalog():
    rng = np.random.default_rng(23)
    n = 40_000
    cat = Catalog()
    cat.create_table("t", {
        "a": rng.integers(0, 1 << 30, n).astype(np.int32),
        "b": rng.random(n).astype(np.float32),
        "g": rng.integers(0, 64, n).astype(np.int32),
    })
    return cat


class TestPool:
    def test_probes_both_devices_at_construction(self, catalog):
        backend = HeterogeneousBackend(catalog)
        assert len(backend.pool) == 2
        names = [c.device_name for c in backend.pool.characteristics]
        assert names[0] != names[1]
        # the tuned radix widths match the paper's per-device choices
        assert {e.radix_bits for e in backend.pool.engines} == {8, 4}

    def test_migration_moves_tail_and_joins_clocks(self, catalog):
        backend = HeterogeneousBackend(catalog)
        src, dst = backend.pool.engines
        values = np.arange(128, dtype=np.int32)
        buffer = src.result_buffer(128, np.int32, tag="mig")
        src.queue.enqueue_write(buffer, values)
        bat = src.device_bat(buffer, Role.VALUES)
        backend.pool.ensure_on(bat, dst)
        assert bat.device_ref is not None
        assert bat.device_ref.context is dst.context
        assert np.array_equal(bat.device_ref.array, values)
        assert buffer.released  # the old residence was dropped
        # the hand-over joined the timelines
        assert src.queue.makespan() <= dst.queue.makespan() + 1e-12

    def test_offloaded_intermediate_keeps_its_home(self, catalog):
        """Data gravity survives memory pressure: an intermediate whose
        buffer was offloaded still homes on (and syncs from) the device
        whose manager holds its host copy."""
        from repro.ocelot.memory import BufferKind

        gpu = cl.Device(cl.NVIDIA_GTX460.with_memory(64 * 1024))
        backend = HeterogeneousBackend(
            catalog, devices=(cl.Device(cl.INTEL_XEON_E5620), gpu)
        )
        cpu_e, gpu_e = backend.pool.engines
        buf = gpu_e.result_buffer(1024, np.int32, tag="inter")
        gpu_e.queue.enqueue_write(buf, np.arange(1024, dtype=np.int32))
        bat = gpu_e.device_bat(buf)
        gpu_e.memory.allocate(62 * 1024, np.uint8, BufferKind.RESULT,
                              tag="big")
        assert buf.released                      # pressure offloaded it
        assert backend.pool.device_of(bat) is None  # no *live* residence
        assert backend.pool.home_of(bat) == 1       # but gravity survives
        # consuming it on the CPU restores at home, then migrates
        backend.pool.ensure_on(bat, cpu_e)
        out = backend._dispatch("add", (bat, 1))
        synced = backend._sync(out)
        assert np.array_equal(
            synced.peek_values(),
            np.arange(1024, dtype=np.int32) + 1,
        )

    def test_slices_are_cached_and_dropped_with_the_bat(self, catalog):
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "a")
        first = backend.slice_base(bat, 0, 1000)
        assert backend.slice_base(bat, 0, 1000) is first
        assert first.is_base
        assert np.array_equal(first.peek_values(), bat.peek_values()[:1000])
        catalog.drop_table("t")
        assert catalog._slices == {}


class TestPlacement:
    def test_small_queries_stay_on_one_device(self, catalog):
        backend = HeterogeneousBackend(catalog)
        builder = MALBuilder("q")
        col = builder.bind("t", "a")
        cand = builder.emit(
            "algebra", "select", (col, None, 0, 1 << 29, True, False, False)
        )
        n = builder.emit("aggr", "count", (cand,))
        program = _rewritten(builder.returns([("n", n)]))
        run_program(program, backend)
        assert all(d != "split" for _f, d in backend.decision_log)

    def test_data_gravity_keeps_chains_on_one_device(self, catalog):
        backend = HeterogeneousBackend(catalog)
        builder = MALBuilder("q")
        col = builder.bind("t", "b")
        x = builder.emit("batcalc", "add", (col, 1))
        y = builder.emit("batcalc", "mul", (x, x))
        s = builder.emit("aggr", "sum", (y,))
        program = _rewritten(builder.returns([("s", s)]))
        run_program(program, backend)
        devices = [d for _f, d in backend.decision_log if d != "split"]
        assert len(set(devices)) == 1  # no ping-pong between devices

    def test_zero_cost_ops_do_not_wake_the_idle_device(self, catalog):
        backend = HeterogeneousBackend(catalog)
        builder = MALBuilder("q")
        col = builder.bind("t", "a")
        cand = builder.emit(
            "algebra", "select", (col, None, 0, 1 << 20, True, False, False)
        )
        n = builder.emit("aggr", "count", (cand,))
        program = _rewritten(builder.returns([("n", n)]))
        run_program(program, backend)
        # exactly one device paid its per-query framework overhead
        assert len(backend.sessions.current.overhead_charged) == 1

    def test_capacity_infeasible_device_is_excluded(self):
        cat = Catalog()
        rng = np.random.default_rng(9)
        # 400 KB column against a 256 KB GPU: infeasible whole
        cat.create_table("big", {
            "a": rng.integers(0, 1 << 30, 100_000).astype(np.int32)
        })
        tiny_gpu = cl.Device(cl.NVIDIA_GTX460.with_memory(256 * 1024))
        backend = HeterogeneousBackend(
            cat, devices=(cl.Device(cl.INTEL_XEON_E5620), tiny_gpu)
        )
        builder = MALBuilder("q")
        col = builder.bind("big", "a")
        low = builder.emit("aggr", "min", (col,))
        program = _rewritten(builder.returns([("m", low)]))
        result = run_program(program, backend)
        assert result.columns["m"][0] == cat.bat("big", "a").values.min()
        devices = [d for _f, d in backend.decision_log if d != "split"]
        assert 1 not in devices   # nothing was placed on the tiny GPU

    def test_framework_overheads_charge_serially(self, catalog):
        """Per-device wake-up costs extend the joined makespan by their
        sum, so the operator-timing subtraction is exact — they must not
        hide under the other device's concurrent queue."""
        backend = HeterogeneousBackend(catalog, devices=("cpu", "cpu"))
        backend.begin()
        backend._charge_overhead(0)
        backend._charge_overhead(1)
        assert backend.query_overhead_s() > 0
        assert backend.elapsed() >= backend.query_overhead_s() - 1e-9

    def test_mixed_execution_falls_back_to_monetdb(self, catalog):
        backend = HeterogeneousBackend(catalog)
        builder = MALBuilder("q")
        col = builder.bind("t", "a")
        top = builder.emit("algebra", "firstn", (col, 5, True))
        out = builder.emit("algebra", "projection", (top, col))
        program = _rewritten(builder.returns([("v", out)]))
        result = run_program(program, backend)
        expected = np.sort(catalog.bat("t", "a").values)[:5]
        assert np.array_equal(result.columns["v"], expected)


class TestPartitionedFanOut:
    """The mergers, exercised directly with a forced half/half plan."""

    def _plan(self, n):
        return [(0, 0, n // 2), (1, n // 2, n)]

    def test_split_selection_matches_whole(self, catalog):
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "a")
        merged = execute_split(
            backend.pool, "thetaselect",
            (bat, None, 1 << 29, "<"), self._plan(bat.count),
        )
        expected = np.nonzero(bat.values < (1 << 29))[0]
        assert merged.role is Role.OIDS
        assert merged.has_host_values
        assert np.array_equal(merged.values.astype(np.int64), expected)

    def test_split_ewise_matches_whole(self, catalog):
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "b")
        merged = execute_split(
            backend.pool, "mul", (bat, bat), self._plan(bat.count),
        )
        assert np.allclose(merged.values, bat.values * bat.values)

    @pytest.mark.parametrize("agg", ["subsum", "submin", "submax",
                                     "subcount", "subavg"])
    def test_split_grouped_aggregation_matches_ms(self, catalog, agg):
        backend = HeterogeneousBackend(catalog)
        vals = catalog.bat("t", "b")
        gids = catalog.bat("t", "g")
        ngroups = 64
        args = ((gids, ngroups) if agg == "subcount"
                else (vals, gids, ngroups))
        merged = execute_split(
            backend.pool, agg, args, self._plan(vals.count),
        )
        ms = MonetDBSequential(catalog)
        expected = ms.resolve(f"aggr.{agg}")(*args)
        assert np.allclose(
            merged.values.astype(np.float64),
            expected.values.astype(np.float64),
            rtol=1e-5,
        )

    def test_fanned_out_selections_feed_oid_algebra(self, catalog):
        """Merged fan-out selections are oid *lists*; disjunctive
        predicates (oidunion) must still work — via host combination."""
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "a")
        plan = self._plan(bat.count)
        left = execute_split(
            backend.pool, "thetaselect", (bat, None, 1 << 29, "<"), plan
        )
        right = execute_split(
            backend.pool, "thetaselect", (bat, None, 3 << 28, ">="), plan
        )
        out = backend.resolve("ocelot.oidunion")(left, right)
        values = bat.values
        expected = np.nonzero(
            (values < (1 << 29)) | (values >= (3 << 28))
        )[0]
        assert np.array_equal(out.values.astype(np.int64), expected)
        inter = backend.resolve("ocelot.oidintersect")(left, right)
        expected = np.nonzero(
            (values < (1 << 29)) & (values >= (3 << 28))
        )[0]
        assert np.array_equal(inter.values.astype(np.int64), expected)

    def test_empty_fanned_out_selection_still_barriers(self, catalog):
        """A zero-hit split selection has nothing to merge, but the
        merge still *consumed* every device's partial: the queues must
        join so downstream work cannot start before its inputs existed."""
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "a")
        merged = execute_split(
            backend.pool, "thetaselect",
            (bat, None, -1, "<"), self._plan(bat.count),
        )
        assert merged.count == 0
        q0, q1 = (e.queue for e in backend.pool.engines)
        assert abs(q0.makespan() - q1.makespan()) < 1e-12

    def test_partials_do_not_leak_device_memory(self, catalog):
        backend = HeterogeneousBackend(catalog)
        bat = catalog.bat("t", "b")
        pool = backend.pool
        before = [e.context.allocated_nominal for e in pool.engines]
        for _ in range(3):
            execute_split(pool, "add", (bat, 1), self._plan(bat.count))
        after = [e.context.allocated_nominal for e in pool.engines]
        # only the cached input slices may stay resident across runs
        slice_bytes = bat.peek_values().nbytes
        for b, a in zip(before, after):
            assert a - b <= slice_bytes


class TestDropInEquivalence:
    """HET returns MS-identical results on the Fig. 5 operator set."""

    def _run_both(self, catalog, program, scale=1.0):
        ms = run_program(program, MonetDBSequential(catalog))
        plan = rewrite_for_ocelot(program)
        het = run_program(
            plan, default_registry.resolve("HET").make(catalog, scale)
        )
        _compare(ms, het, program.name)
        return ms, het

    def test_fig5_selection(self, catalog):
        builder = MALBuilder("sel")
        col = builder.bind("t", "a")
        cand = builder.emit(
            "algebra", "select",
            (col, None, 0, int(0.4 * 2**30), True, False, False),
        )
        n = builder.emit("aggr", "count", (cand,))
        self._run_both(catalog, builder.returns([("n", n)]))

    def test_fig5_fetchjoin(self, catalog):
        builder = MALBuilder("fetch")
        a = builder.bind("t", "a")
        b = builder.bind("t", "b")
        oids = builder.emit("bat", "mirror", (a,))
        fetched = builder.emit("algebra", "projection", (oids, b))
        n = builder.emit("aggr", "count", (fetched,))
        self._run_both(catalog, builder.returns([("n", n)]))

    def test_fig5_aggregation(self, catalog):
        builder = MALBuilder("agg")
        col = builder.bind("t", "a")
        low = builder.emit("aggr", "min", (col,))
        self._run_both(catalog, builder.returns([("m", low)]))

    def test_fig5_hash_build(self, catalog):
        # hashbuild is the one timing-only microbenchmark operator: MS
        # reports the distinct count, Ocelot its table size — compare
        # execution, not the value
        builder = MALBuilder("hash")
        col = builder.bind("t", "g")
        size = builder.emit("algebra", "hashbuild", (col,))
        program = builder.returns([("m", size)])
        het = run_program(
            rewrite_for_ocelot(program), default_registry.resolve("HET").make(catalog, 1.0)
        )
        assert het.columns["m"][0] >= 64  # >= the distinct count
        assert het.elapsed > 0

    def test_fig5_grouping(self, catalog):
        builder = MALBuilder("grp")
        col = builder.bind("t", "g")
        gids, ngroups = builder.emit("group", "group", (col,), n_results=2)
        counts = builder.emit("aggr", "subcount", (gids, ngroups))
        self._run_both(catalog, builder.returns([("c", counts)]))

    def test_fig5_hashjoin(self, catalog):
        cat = Catalog()
        rng = np.random.default_rng(3)
        cat.create_table("f", {"fk": rng.integers(0, 100, 20_000)
                               .astype(np.int32)})
        cat.create_table("d", {"pk": np.arange(100, dtype=np.int32)})
        builder = MALBuilder("join")
        probe = builder.bind("f", "fk")
        build = builder.bind("d", "pk")
        lpos, rpos = builder.emit("algebra", "join", (probe, build),
                                  n_results=2)
        n = builder.emit("aggr", "count", (lpos,))
        self._run_both(cat, builder.returns([("n", n)]))

    def test_fig6_sort(self, catalog):
        builder = MALBuilder("sort")
        col = builder.bind("t", "a")
        out, order = builder.emit("algebra", "sort", (col, False),
                                  n_results=2)
        n = builder.emit("aggr", "count", (order,))
        self._run_both(catalog, builder.returns([("n", n)]))


class TestMakespan:
    """HET never loses to the best single device, and fans out past the
    GPU's memory limit (the new capability the scheduler buys)."""

    def _selection_context(self, size_mb):
        values, scale = uniform_column(size_mb, actual_elems=1 << 19)
        catalog = Catalog()
        catalog.create_table("t", {"a": values})
        return BenchContext(
            catalog, data_scale=scale, labels=("CPU", "GPU", "HET"),
            operator_timing=True,
        )

    def _selection_plan(self):
        builder = MALBuilder("sel")
        col = builder.bind("t", "a")
        cand = builder.emit(
            "algebra", "select",
            (col, None, 0, int(0.05 * 2**30), True, False, False),
        )
        n = builder.emit("aggr", "count", (cand,))
        return builder.returns([("n", n)])

    def test_het_at_most_best_single_device_in_memory(self):
        ctx = self._selection_context(512)
        millis = ctx.measure(self._selection_plan(), runs=3)
        best = min(v for k, v in millis.items()
                   if k != "HET" and v is not None)
        assert millis["HET"] is not None
        assert millis["HET"] <= best * 1.001

    def test_het_fans_out_beyond_gpu_memory(self):
        ctx = self._selection_context(2048)
        millis = ctx.measure(self._selection_plan(), runs=3)
        assert millis["GPU"] is None          # the 2 GB card gave up
        assert millis["HET"] is not None      # HET did not
        assert millis["HET"] < 0.7 * millis["CPU"]
        het = ctx.backend("HET")
        assert ("thetaselect", "split") in het.decision_log or \
            ("select", "split") in het.decision_log
