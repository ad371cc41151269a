"""The §7 extension: device probing + per-device algorithm selection."""

import numpy as np
import pytest

from repro.monetdb import Catalog, MALBuilder, run_program
from repro.ocelot import OcelotBackend, autotune, probe_device
from repro.ocelot.autotune import (
    DeviceCharacteristics,
    choose_radix_bits,
    estimate_sort_cost,
    radix_feasible,
)
from repro.ocelot.rewriter import rewrite_for_ocelot


@pytest.fixture
def catalog():
    rng = np.random.default_rng(17)
    cat = Catalog()
    cat.create_table("t", {"a": rng.integers(0, 10_000, 30_000)
                           .astype(np.int32)})
    return cat


def _chars(**overrides):
    base = dict(
        device_name="x", stream_gbs=20.0, gather_gbs=5.0,
        launch_overhead_s=1e-3, atomic_contended_ns=10.0,
        atomic_uncontended_ns=2.0, partitions=64,
        local_mem_bytes=256 * 1024, work_group_size=16,
    )
    base.update(overrides)
    return DeviceCharacteristics(**base)


class TestProbe:
    @pytest.mark.parametrize("kind", ["cpu", "gpu"])
    def test_probe_measures_plausible_numbers(self, catalog, kind):
        backend = OcelotBackend(catalog, kind, data_scale=128.0)
        chars = probe_device(backend.engine)
        assert chars.stream_gbs > chars.gather_gbs > 0
        assert chars.launch_overhead_s > 0
        assert chars.atomic_contended_ns > chars.atomic_uncontended_ns

    def test_cpu_contention_penalty_exceeds_gpu(self, catalog):
        cpu = probe_device(OcelotBackend(catalog, "cpu",
                                         data_scale=128.0).engine)
        gpu = probe_device(OcelotBackend(catalog, "gpu",
                                         data_scale=128.0).engine)
        def penalty(chars):
            return chars.atomic_contended_ns / chars.atomic_uncontended_ns

        assert penalty(cpu) > penalty(gpu)
        assert gpu.stream_gbs > cpu.stream_gbs


class TestProbeModule:
    def test_buffer_kind_is_a_normal_top_level_import(self):
        """Regression: ``probe_device`` used to reach BufferKind through a
        triple ``__import__`` hack at every call site; no cycle exists,
        so the module must import it normally (and exactly once)."""
        import importlib
        import inspect

        from repro.ocelot.memory import BufferKind

        module = importlib.import_module("repro.ocelot.autotune")
        assert module.BufferKind is BufferKind
        assert "__import__" not in inspect.getsource(module)

    def test_transfer_probe_measures_the_host_link(self, catalog):
        import math

        cpu = probe_device(OcelotBackend(catalog, "cpu",
                                         data_scale=128.0).engine)
        gpu = probe_device(OcelotBackend(catalog, "gpu",
                                         data_scale=128.0).engine)
        # the CPU maps buffers (zero-copy): no per-byte cost
        assert not math.isfinite(cpu.transfer_gbs)
        # the GPU sits behind PCIe 2.0 x16 (~5.6 GB/s effective)
        assert math.isfinite(gpu.transfer_gbs)
        assert 3.0 < gpu.transfer_gbs < 8.0
        assert gpu.transfer_latency_s > 0
        assert gpu.global_mem_bytes > 0
        # atomic interpolation stays within the probed bracket
        for chars in (cpu, gpu):
            mid = chars.atomic_ns(256)
            lo = min(chars.atomic_contended_ns, chars.atomic_uncontended_ns)
            hi = max(chars.atomic_contended_ns, chars.atomic_uncontended_ns)
            assert lo <= mid <= hi


class TestRadixChoice:
    def test_feasibility_from_local_memory(self):
        roomy = _chars()  # 16 KB per item
        assert radix_feasible(roomy, 8)
        assert not radix_feasible(roomy, 16)
        tight = _chars(local_mem_bytes=48 * 1024, work_group_size=192)
        assert radix_feasible(tight, 4)
        assert not radix_feasible(tight, 8)

    def test_infeasible_width_costs_infinity(self):
        tight = _chars(local_mem_bytes=48 * 1024, work_group_size=192)
        assert estimate_sort_cost(tight, 8) == float("inf")

    def test_paper_choices_recovered(self, catalog):
        """§5.2.7: radix 8 on the CPU, radix 4 on the GPU — derived from
        probes, not hard-coded."""
        cpu = OcelotBackend(catalog, "cpu", data_scale=128.0)
        gpu = OcelotBackend(catalog, "gpu", data_scale=128.0)
        assert autotune(cpu.engine).radix_bits == 8
        assert autotune(gpu.engine).radix_bits == 4
        assert cpu.engine.radix_bits == 8
        assert gpu.engine.radix_bits == 4

    def test_no_feasible_width_raises(self):
        hopeless = _chars(local_mem_bytes=8, work_group_size=16)
        with pytest.raises(ValueError):
            choose_radix_bits(hopeless)

    def test_fewer_passes_win_when_launches_dominate(self):
        slow_launch = _chars(launch_overhead_s=50e-3)
        fast_launch = _chars(launch_overhead_s=1e-6, partitions=4096)
        assert choose_radix_bits(slow_launch) >= \
            choose_radix_bits(fast_launch)


class TestTunedEngineStillCorrect:
    @pytest.mark.parametrize("kind", ["cpu", "gpu"])
    def test_sort_after_autotune(self, catalog, kind):
        backend = OcelotBackend(catalog, kind)
        autotune(backend.engine)
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        out, order = builder.emit("algebra", "sort", (a, False), n_results=2)
        program = rewrite_for_ocelot(builder.returns([("s", out)]))
        result = run_program(program, backend)
        values = catalog.bat("t", "a").values
        assert np.array_equal(result.columns["s"], np.sort(values))


class TestSortedGroupVariant:
    """The second §4.1.6 strategy: boundary detection on sorted input."""

    @pytest.mark.parametrize("kind", ["cpu", "gpu"])
    def test_sorted_path_matches_hash_path(self, catalog, kind):
        backend = OcelotBackend(catalog, kind)
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        sorted_col, order = builder.emit("algebra", "sort", (a, False),
                                         n_results=2)
        gids, n = builder.emit("group", "group", (sorted_col,), n_results=2)
        counts = builder.emit("aggr", "subcount", (gids, n))
        keys = builder.emit("aggr", "submin", (sorted_col, gids, n))
        program = builder.returns([("k", keys), ("c", counts)])

        from repro.monetdb import MonetDBSequential

        expected = run_program(program, MonetDBSequential(catalog))
        got = run_program(rewrite_for_ocelot(program), backend)
        assert np.array_equal(expected.columns["k"], got.columns["k"])
        assert np.array_equal(expected.columns["c"], got.columns["c"])

    def test_sorted_path_cheaper_than_hashing(self, catalog):
        backend = OcelotBackend(catalog, "gpu")

        def group_time(pre_sorted: bool):
            builder = MALBuilder("q")
            a = builder.bind("t", "a")
            if pre_sorted:
                col, _ = builder.emit("algebra", "sort", (a, False),
                                      n_results=2)
            else:
                col = a
            gids, n = builder.emit("group", "group", (col,), n_results=2)
            program = rewrite_for_ocelot(builder.returns([("n", n)]))
            run_program(program, backend)
            result = run_program(program, backend)
            # isolate the group op cost: subtract nothing, compare totals
            return result.elapsed

        # even paying for the sort, the boundary path's group op is so
        # much cheaper that the hash-group advantage shrinks drastically;
        # compare the *group* cost directly via engine stats instead:
        from repro.bench.harness import BenchContext  # noqa: F401

        # simpler assertion: sorted grouping launches far fewer kernels
        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        gids, n = builder.emit("group", "group", (a,), n_results=2)
        hash_plan = rewrite_for_ocelot(builder.returns([("n", n)]))
        backend2 = OcelotBackend(catalog, "gpu")
        before = backend2.engine.queue.stats.kernels_launched
        run_program(hash_plan, backend2)
        hash_kernels = backend2.engine.queue.stats.kernels_launched - before

        builder = MALBuilder("q")
        a = builder.bind("t", "a")
        col, _ = builder.emit("algebra", "sort", (a, False), n_results=2)
        gids, n = builder.emit("group", "group", (col,), n_results=2)
        sorted_plan = rewrite_for_ocelot(builder.returns([("n", n)]))
        backend3 = OcelotBackend(catalog, "gpu")
        before = backend3.engine.queue.stats.kernels_launched
        run_program(sorted_plan, backend3)
        total_kernels = backend3.engine.queue.stats.kernels_launched - before
        # encode + iota + 8 passes x 3 kernels + gather
        sort_kernels = 2 + 3 * 8 + 1
        assert total_kernels - sort_kernels < hash_kernels
