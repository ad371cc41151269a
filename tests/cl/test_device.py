"""Device profiles and the analytic cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cl
from repro.cl.device import checked_profile
from repro.cl.profile import KernelWork


@pytest.fixture
def cpu():
    return cl.Device(cl.INTEL_XEON_E5620)


@pytest.fixture
def gpu():
    return cl.Device(cl.NVIDIA_GTX460)


class TestProfiles:
    def test_paper_testbed_cpu(self, cpu):
        assert cpu.is_cpu and not cpu.is_gpu
        assert cpu.profile.compute_cores == 4
        assert cpu.profile.units_per_core == 4
        assert cpu.unified_memory

    def test_paper_testbed_gpu(self, gpu):
        assert gpu.is_gpu
        assert gpu.profile.compute_cores == 7       # multiprocessors
        assert gpu.profile.units_per_core == 48     # compute units
        assert gpu.profile.global_mem_bytes == 2 * cl.GB
        assert not gpu.unified_memory

    def test_scheduling_heuristic_4_nc_na(self, cpu, gpu):
        # paper §4.2: one work-group per core, size 4 * na
        assert cpu.profile.work_group_size == 16
        assert cpu.profile.num_work_groups == 4
        assert cpu.profile.total_invocations == 4 * 4 * 4
        assert gpu.profile.total_invocations == 4 * 7 * 48

    def test_with_memory_derivation(self, gpu):
        smaller = gpu.profile.with_memory(64 * cl.MB)
        assert smaller.global_mem_bytes == 64 * cl.MB
        assert smaller.stream_bw_gbs == gpu.profile.stream_bw_gbs

    @pytest.mark.parametrize(
        "field,value",
        [
            ("compute_cores", 0),
            ("global_mem_bytes", 0),
            ("bandwidth_efficiency", 0.0),
            ("bandwidth_efficiency", 1.5),
            ("stream_bw_gbs", -1.0),
            ("clock_ghz", 0.0),
        ],
    )
    def test_checked_profile_rejects(self, cpu, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            checked_profile(replace(cpu.profile, **{field: value}))


class TestKernelTime:
    def test_zero_work_costs_only_launch(self, cpu):
        assert cpu.kernel_time(KernelWork()) == pytest.approx(
            cpu.profile.kernel_launch_us * 1e-6
        )

    def test_streaming_scales_linearly(self, gpu):
        one = gpu.kernel_time(KernelWork(bytes_read=cl.GB))
        two = gpu.kernel_time(KernelWork(bytes_read=2 * cl.GB))
        launch = gpu.profile.kernel_launch_us * 1e-6
        assert (two - launch) == pytest.approx(2 * (one - launch), rel=1e-9)

    def test_memory_and_compute_overlap_as_max(self, cpu):
        mem_only = cpu.kernel_time(KernelWork(bytes_read=cl.GB))
        both = cpu.kernel_time(KernelWork(bytes_read=cl.GB, ops=100))
        assert both == pytest.approx(mem_only)  # tiny compute hides

    def test_random_access_slower_than_streaming(self, cpu):
        stream = cpu.kernel_time(KernelWork(bytes_read=cl.GB))
        random = cpu.kernel_time(KernelWork(random_bytes=cl.GB))
        assert random > stream

    def test_intel_sdk_efficiency_factor(self, cpu):
        # paper §5.2.3: the SDK reaches only a fraction of peak bandwidth
        assert cpu.profile.bandwidth_efficiency < 1.0

    def test_atomic_contention_decreases_with_addresses(self, cpu):
        """The Fig. 5(f) mechanism: more distinct targets, less contention."""
        times = [
            cpu.kernel_time(
                KernelWork(atomic_ops=10_000_000, atomic_addresses=a)
            )
            for a in (10, 100, 1000, 10000)
        ]
        assert times == sorted(times, reverse=True)
        assert times[0] > 2 * times[-1]

    def test_gpu_atomics_nearly_flat(self, gpu):
        few = gpu.kernel_time(
            KernelWork(atomic_ops=10_000_000, atomic_addresses=10)
        )
        many = gpu.kernel_time(
            KernelWork(atomic_ops=10_000_000, atomic_addresses=10000)
        )
        assert few < 3 * many

    def test_cpu_contention_worse_than_gpu(self, cpu, gpu):
        work = KernelWork(atomic_ops=10_000_000, atomic_addresses=100)
        assert cpu.kernel_time(work) > gpu.kernel_time(work)


class TestTransfer:
    def test_cpu_zero_copy(self, cpu):
        # unified memory: mapping cost only, independent of size
        assert cpu.transfer_time(cl.GB) == cpu.transfer_time(4 * cl.GB)

    def test_gpu_pcie_linear(self, gpu):
        small = gpu.transfer_time(100 * cl.MB)
        large = gpu.transfer_time(200 * cl.MB)
        assert large > small
        # ~PCIe 2.0 x16 rate
        per_gb = gpu.transfer_time(cl.GB) - gpu.transfer_time(0)
        assert 0.1 < per_gb < 0.5

    def test_host_submit_cpu_dwarfs_gpu(self, cpu, gpu):
        # the Intel SDK's enqueue overhead (paper §5.3.2)
        assert cpu.host_submit_time() > 10 * gpu.host_submit_time()


# -- the cost model, exactly -------------------------------------------------
#
# ``Device`` resolves the profile's constant terms once; every simulated
# time must still be, to the bit, the profile formula written out below.

#: both stock profiles and a derived one (as mini-scale TPC-H builds)
PROFILES = (
    cl.INTEL_XEON_E5620,
    cl.NVIDIA_GTX460,
    cl.NVIDIA_GTX460.with_memory(64 * cl.MB),
)

volumes = st.integers(min_value=0, max_value=1 << 42)
works = st.builds(
    KernelWork,
    elements=volumes,
    bytes_read=volumes,
    bytes_written=volumes,
    random_bytes=volumes,
    ops=volumes,
    atomic_ops=st.one_of(st.just(0), volumes),
    atomic_addresses=st.integers(min_value=0, max_value=1 << 24),
)
scales = st.one_of(
    st.sampled_from([1.0, 0.25, 100.0, 1 / 3]),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
)


def kernel_time_formula(p, work, scale):
    streamed = int(work.bytes_read * scale) + int(work.bytes_written * scale)
    random_bytes = int(work.random_bytes * scale)
    ops = int(work.ops * scale)
    atomic_ops = int(work.atomic_ops * scale)
    t_stream = streamed / (p.stream_bw_gbs * p.bandwidth_efficiency * cl.GB)
    t_random = (
        random_bytes / (p.random_bw_gbs * p.bandwidth_efficiency * cl.GB)
        if random_bytes else 0.0
    )
    throughput = (
        p.compute_cores * p.units_per_core * p.clock_ghz * 1e9
        * p.ops_per_cycle_per_unit
    )
    t_compute = ops / throughput if ops else 0.0
    if atomic_ops:
        addresses = max(work.atomic_addresses, 1)
        t_atomic = (
            atomic_ops * p.atomic_ns * 1e-9
            / (p.compute_cores * p.units_per_core)
            + atomic_ops * (p.atomic_conflict_ns * 1e-9
                            / (1.0 + addresses / p.contention_halfpoint))
        )
    else:
        t_atomic = 0.0
    return (max(t_stream + t_random, t_compute) + t_atomic
            + p.kernel_launch_us * 1e-6)


def transfer_time_formula(p, nbytes):
    if p.transfer_bw_gbs is None:
        return p.transfer_latency_us * 1e-6
    return p.transfer_latency_us * 1e-6 + nbytes / (p.transfer_bw_gbs * cl.GB)


class TestCostModelIsExact:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name[:12])
    @settings(max_examples=150, deadline=None)
    @given(work=works, scale=scales)
    def test_kernel_time(self, profile, work, scale):
        device = cl.Device(profile)
        assert device.kernel_time(work, scale) == kernel_time_formula(
            profile, work, scale
        )

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name[:12])
    @settings(max_examples=50, deadline=None)
    @given(nbytes=volumes)
    def test_transfer_and_submit_time(self, profile, nbytes):
        device = cl.Device(profile)
        assert device.transfer_time(nbytes) == transfer_time_formula(
            profile, nbytes
        )
        assert device.host_submit_time() == profile.host_submit_us * 1e-6
