"""Simulated compute devices and their analytic cost models.

The two stock profiles mirror the paper's testbed (§5.1):

* ``INTEL_XEON_E5620`` — quad-core Xeon driven through the Intel OpenCL SDK
  (2013 XE beta).  The SDK's inefficiencies observed in the paper are
  modelled explicitly: a bandwidth-efficiency factor (§5.2.3, the ~30 %
  aggregation gap) and a heavy host-side enqueue overhead (§5.3.2, the ~1 s
  fixed per-query cost).
* ``NVIDIA_GTX460`` — Fermi GF104 with 7 multiprocessors × 48 compute
  units, 2 GB device memory behind a PCIe 2.0 x16 link.

Devices convert :class:`~repro.cl.profile.KernelWork` descriptions into
simulated execution seconds.  The model is first-order and mechanistic —
the paper's observed effects (bitmap output advantage, atomic-contention
serialisation on few groups, transfer-bound swapping) *emerge* from it
rather than being hard-coded per experiment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .profile import KernelWork

GB = 1024**3
MB = 1024**2


class DeviceType(enum.Enum):
    """Coarse device class, injected into kernels as a pre-processor
    constant (paper §4.2) to select the memory access pattern."""

    CPU = "CPU"
    GPU = "GPU"


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a compute device plus its cost-model knobs.

    The scheduling-related fields follow the paper's terminology: a device
    has ``compute_cores`` (``nc``) cores with ``units_per_core`` (``na``)
    compute units each.  Ocelot schedules one work-group per core with
    work-group size ``4 * na`` (§4.2).
    """

    name: str
    device_type: DeviceType
    vendor: str
    compute_cores: int                 # nc
    units_per_core: int                # na
    clock_ghz: float
    global_mem_bytes: int
    local_mem_bytes: int
    # --- memory system ------------------------------------------------
    stream_bw_gbs: float               # sequential streaming bandwidth
    random_bw_gbs: float               # data-dependent access bandwidth
    bandwidth_efficiency: float = 1.0  # driver/SDK achievable fraction
    # --- host link ----------------------------------------------------
    transfer_bw_gbs: float | None = None   # None => unified memory (zero-copy)
    transfer_latency_us: float = 0.0
    # --- launch costs ---------------------------------------------------
    kernel_launch_us: float = 5.0      # device-side launch latency
    host_submit_us: float = 5.0        # host-side enqueue cost (driver/SDK)
    #: fixed per-query framework overhead (the Intel SDK beta's ~1 s
    #: intercept the paper extrapolates in Fig. 7(d))
    framework_overhead_s: float = 0.0
    # --- compute / atomics ----------------------------------------------
    ops_per_cycle_per_unit: float = 1.0
    atomic_ns: float = 20.0            # uncontended atomic RMW
    atomic_conflict_ns: float = 150.0  # per-op contention cost at the limit
    #: distinct-address count at which contention has halved: CPUs bounce
    #: cachelines between cores as long as the hot set spans few lines;
    #: GPUs resolve colliding atomics in the memory partitions.
    contention_halfpoint: float = 300.0

    @property
    def parallel_width(self) -> int:
        """Total number of hardware threads executing concurrently."""
        return self.compute_cores * self.units_per_core

    @property
    def work_group_size(self) -> int:
        """Ocelot's scheduling heuristic: work-groups of size ``4 * na``."""
        return 4 * self.units_per_core

    @property
    def num_work_groups(self) -> int:
        """Ocelot's scheduling heuristic: one work-group per core."""
        return self.compute_cores

    @property
    def total_invocations(self) -> int:
        """Kernel invocations per launch under Ocelot scheduling
        (``4 * nc * na``, paper §4.2)."""
        return self.num_work_groups * self.work_group_size

    def with_memory(self, global_mem_bytes: int) -> "DeviceProfile":
        """Derive a profile with a different device-memory capacity.

        Used by tests and by mini-scale TPC-H runs that scale data volume
        and device capacity by the same factor (DESIGN.md §2).
        """
        return replace(self, global_mem_bytes=int(global_mem_bytes))


class Device:
    """A simulated OpenCL device: profile + cost model."""

    def __init__(self, profile: DeviceProfile):
        #: fixed for the device's life: the cost-model terms below are
        #: resolved from it once, with the same sub-expressions the
        #: formulas in :meth:`kernel_time` and friends spell out
        self.profile = p = profile
        #: achievable streaming / data-dependent bandwidth, bytes/s
        self.eff_bw = p.stream_bw_gbs * p.bandwidth_efficiency * GB
        self.rand_bw = p.random_bw_gbs * p.bandwidth_efficiency * GB
        #: arithmetic throughput, ops/s
        self.throughput = (
            p.compute_cores
            * p.units_per_core
            * p.clock_ghz
            * 1e9
            * p.ops_per_cycle_per_unit
        )
        #: every launch's NDRange (Ocelot's scheduling, paper §4.2)
        self.work_group_size = p.work_group_size
        self.total_invocations = p.total_invocations
        self.launch_s = p.kernel_launch_us * 1e-6
        self.submit_s = p.host_submit_us * 1e-6
        self.transfer_latency_s = p.transfer_latency_us * 1e-6

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def device_type(self) -> DeviceType:
        return self.profile.device_type

    @property
    def is_cpu(self) -> bool:
        return self.profile.device_type is DeviceType.CPU

    @property
    def is_gpu(self) -> bool:
        return self.profile.device_type is DeviceType.GPU

    @property
    def unified_memory(self) -> bool:
        """True when host and device share memory (zero-copy mapping)."""
        return self.profile.transfer_bw_gbs is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.profile
        return (
            f"<Device {p.name!r} type={p.device_type.value} "
            f"nc={p.compute_cores} na={p.units_per_core} "
            f"mem={p.global_mem_bytes / GB:.2f}GB>"
        )

    # -- cost model ---------------------------------------------------------

    def kernel_time(self, work: KernelWork, scale: float = 1.0) -> float:
        """Simulated execution seconds for one kernel launch.

        ``max(memory, compute) + atomics + launch``: streaming and compute
        overlap (a kernel is bound by the slower of the two), whereas
        contended atomics serialise and therefore add.

        ``scale`` is the context's ``data_scale``: every volume in
        ``work`` is multiplied by it and truncated to whole units.
        ``atomic_addresses`` is *not* scaled: it models distinct
        contended locations (e.g. group count), a property of the data
        distribution, not of the data volume.
        """
        streamed = int(work.bytes_read * scale) + int(work.bytes_written * scale)
        random_bytes = int(work.random_bytes * scale)
        ops = int(work.ops * scale)
        t_stream = streamed / self.eff_bw
        t_random = random_bytes / self.rand_bw if random_bytes else 0.0
        t_compute = ops / self.throughput if ops else 0.0
        t_atomic = self._atomic_time(
            int(work.atomic_ops * scale), work.atomic_addresses
        ) if work.atomic_ops else 0.0
        return max(t_stream + t_random, t_compute) + t_atomic + self.launch_s

    def _atomic_time(self, atomic_ops: int, atomic_addresses: int) -> float:
        """Contention model for atomic read-modify-write traffic.

        Uncontended atomics are spread across the device's parallel width.
        Contention decays with the number of distinct target addresses:
        each op additionally pays ``atomic_conflict_ns / (1 + addresses /
        contention_halfpoint)``.  On the CPU the halfpoint is low (a few
        hundred addresses still fit a handful of cachelines that bounce
        between cores); on the GPU it is high and the conflict cost tiny.
        This reproduces Fig. 5(e)/(f): CPU hashing is slower than even
        sequential MonetDB at low distinct counts and *improves* as the
        distinct count grows, while the GPU stays nearly flat.
        """
        if not atomic_ops:
            return 0.0
        p = self.profile
        width = p.parallel_width
        addresses = max(atomic_addresses, 1)
        base = atomic_ops * p.atomic_ns * 1e-9 / width
        per_op_conflict = p.atomic_conflict_ns * 1e-9 / (
            1.0 + addresses / p.contention_halfpoint
        )
        return base + atomic_ops * per_op_conflict

    def transfer_time(self, nbytes: int) -> float:
        """Simulated host<->device transfer seconds for ``nbytes``.

        Unified-memory devices (the CPU) map buffers instead of copying;
        only a constant mapping cost applies (paper §3.3: "zero-copy").
        """
        if self.unified_memory:
            return self.transfer_latency_s
        return self.transfer_latency_s + nbytes / (
            self.profile.transfer_bw_gbs * GB
        )

    def host_submit_time(self) -> float:
        """Host-side cost of enqueueing one command (driver overhead)."""
        return self.submit_s


# ---------------------------------------------------------------------------
# Stock profiles (paper §5.1 testbed)
# ---------------------------------------------------------------------------

#: Intel Xeon E5620 through the Intel OpenCL SDK 2013 XE beta.  The
#: ``bandwidth_efficiency`` of 0.7 models the SDK's immaturity (paper
#: §5.2.3 measured Ocelot ~30 % behind parallel MonetDB on pure streaming
#: aggregation); ``host_submit_us`` models the fixed framework overhead the
#: paper extrapolates to ~1 s per TPC-H query on the CPU (§5.3.2).
INTEL_XEON_E5620 = DeviceProfile(
    name="Intel Xeon E5620 (Intel OpenCL SDK 2013 XE beta)",
    device_type=DeviceType.CPU,
    vendor="Intel",
    compute_cores=4,
    units_per_core=4,
    clock_ghz=2.4,
    global_mem_bytes=32 * GB,
    local_mem_bytes=256 * 1024,
    stream_bw_gbs=25.6,
    random_bw_gbs=11.0,            # cacheline-granular gathers
    bandwidth_efficiency=0.70,
    transfer_bw_gbs=None,          # host-resident: zero-copy mapping
    transfer_latency_us=40.0,
    kernel_launch_us=30.0,
    host_submit_us=1400.0,         # Intel SDK enqueue overhead (heavy)
    framework_overhead_s=0.6,      # Intel SDK per-query fixed cost
    atomic_ns=24.0,
    atomic_conflict_ns=12.0,
    contention_halfpoint=300.0,
)

#: NVIDIA GTX 460 (Fermi GF104): 7 SMs x 48 CUs, 2 GB GDDR5, PCIe 2.0 x16.
NVIDIA_GTX460 = DeviceProfile(
    name="NVIDIA GeForce GTX 460 (Fermi GF104)",
    device_type=DeviceType.GPU,
    vendor="NVIDIA",
    compute_cores=7,
    units_per_core=48,
    clock_ghz=1.35,
    global_mem_bytes=2 * GB,
    local_mem_bytes=48 * 1024,
    stream_bw_gbs=115.0,
    random_bw_gbs=20.0,
    bandwidth_efficiency=0.85,
    transfer_bw_gbs=5.6,           # PCIe 2.0 x16 effective
    transfer_latency_us=15.0,
    kernel_launch_us=8.0,
    host_submit_us=20.0,
    atomic_ns=4.0,
    atomic_conflict_ns=1.5,
    contention_halfpoint=5000.0,
)


def checked_profile(profile: DeviceProfile) -> DeviceProfile:
    """Validate a device profile, raising ``ValueError`` on nonsense."""
    if profile.compute_cores <= 0 or profile.units_per_core <= 0:
        raise ValueError("device must have positive core / unit counts")
    if profile.global_mem_bytes <= 0:
        raise ValueError("device must have positive global memory")
    if not (0.0 < profile.bandwidth_efficiency <= 1.0):
        raise ValueError("bandwidth_efficiency must be in (0, 1]")
    if profile.stream_bw_gbs <= 0 or profile.random_bw_gbs <= 0:
        raise ValueError("bandwidths must be positive")
    if math.isnan(profile.clock_ghz) or profile.clock_ghz <= 0:
        raise ValueError("clock must be positive")
    return profile
