"""Device-profile auto-tuning (the paper's §7 future work, first item).

    "As a first step, we plan to provide a set of alternative algorithms
    for each operator, with the optimizer selecting the best-fitting
    algorithm for the given device.  This will require an automatic
    understanding of the performance characteristics of the given
    hardware, which could [...] be obtained by automatically generating
    a device profile from standardized benchmarks."

This module implements exactly that loop, hardware-obliviously: it runs
a fixed set of **micro-probes** (plain kernels from the library) on the
target device, derives an empirical :class:`DeviceCharacteristics` from
the observed (simulated) event timings — never reading the device's cost
model directly — and uses it to pick per-device algorithm parameters:

* the **radix width** of the sort (the paper hand-picked 8 bits on the
  CPU and 4 on the GPU, §5.2.7): wide radixes halve the number of passes
  but multiply the per-pass histogram/offsets volume by ``2^bits`` per
  partition — cheap launches and many partitions favour narrow radixes,
  expensive launches favour wide ones;
* the **grouping strategy** threshold is fixed (sorted inputs always use
  boundary detection), exposed here for the ablation benchmark.

``autotune(engine)`` probes the engine's device and installs the tuned
radix width (recompiling the kernel program with the new pre-processor
constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import cl
from ..kernels import KERNEL_LIBRARY
from .engine import OcelotEngine
from .memory import BufferKind
from .operators import radix_parts

#: fixed probe size: big enough to expose bandwidth, small enough to be
#: instant (the paper's "standardized benchmarks")
_PROBE_ELEMS = 1 << 18

#: candidate radix widths for the sort
RADIX_CANDIDATES = (4, 8, 16)


@dataclass(frozen=True)
class DeviceCharacteristics:
    """Empirical profile measured by :func:`probe_device`.

    All quantities come from observed kernel timings, not from the
    device's declared parameters — the tuner stays hardware-oblivious.
    """

    device_name: str
    stream_gbs: float          # sequential throughput (ewise copy)
    gather_gbs: float          # data-dependent read throughput
    launch_overhead_s: float   # fixed cost of an (almost) empty launch
    atomic_contended_ns: float    # per-op cost, few distinct targets
    atomic_uncontended_ns: float  # per-op cost, many distinct targets
    partitions: int            # scheduling width (4 * nc * na)
    # queryable via clGetDeviceInfo (no benchmark needed):
    local_mem_bytes: int
    work_group_size: int
    # host link, measured by the transfer probes (the CPU's zero-copy
    # mapping shows up as an effectively infinite rate):
    transfer_gbs: float = float("inf")
    transfer_latency_s: float = 0.0
    # queryable via clGetDeviceInfo:
    global_mem_bytes: int = 0
    #: distinct-target count the *uncontended* atomic probe actually ran
    #: at (capacity-clamped on small devices; the interpolation anchor)
    atomic_probe_hi: float = 65536.0

    def atomic_ns(self, addresses: float) -> float:
        """Per-op atomic cost at a given distinct-target count,
        log-interpolated between the two probe points (4 and
        ``atomic_probe_hi``)."""
        lo, hi = 4.0, max(self.atomic_probe_hi, 8.0)
        a = min(max(float(addresses), lo), hi)
        frac = (math.log(a) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return (self.atomic_contended_ns
                + frac * (self.atomic_uncontended_ns
                          - self.atomic_contended_ns))

    def transfer_seconds(self, nominal_bytes: float) -> float:
        """Predicted host<->device transfer time for ``nominal_bytes``."""
        if not math.isfinite(self.transfer_gbs):
            return self.transfer_latency_s
        return (self.transfer_latency_s
                + nominal_bytes / (self.transfer_gbs * cl.GB))


def _timed(engine: OcelotEngine, kernel: str, *args) -> float:
    """Wall time of one launch as a host would observe it (makespan
    delta across clFinish — includes the driver's submit overhead)."""
    queue = engine.queue
    before = queue.finish()
    engine.launch(kernel, *args)
    return queue.finish() - before


def _timed_transfer(engine: OcelotEngine, fn) -> float:
    """Makespan delta of one host<->device transfer command."""
    queue = engine.queue
    before = queue.finish()
    fn()
    return queue.finish() - before


def probe_device(engine: OcelotEngine) -> DeviceCharacteristics:
    """Run the standardized micro-probes on ``engine``'s device.

    The probe's working set is pinned through an operator scope, so it
    can never be evicted out from under a running probe kernel; devices
    too small to even host the (capacity-clamped) probe fail loudly with
    :class:`~repro.ocelot.memory.OcelotOOM`.
    """
    with engine.memory.operator_scope():
        return _probe_device_pinned(engine)


def _probe_device_pinned(engine: OcelotEngine) -> DeviceCharacteristics:
    rng = np.random.default_rng(99)
    scale = engine.context.data_scale
    # Probes must never pressure device memory (they run on live engines
    # whose caches they should not disturb): clamp the probe's *nominal*
    # footprint to a small fraction of capacity.  The measured rates are
    # scale-invariant, so a smaller probe yields the same profile.
    capacity = engine.context.capacity
    n = max(1 << 8, min(_PROBE_ELEMS, int(capacity // (64 * scale))))
    nominal_bytes = 4 * n * scale
    probe_values = rng.integers(0, 1 << 30, n).astype(np.int32)

    data = engine.memory.allocate_filled(
        probe_values, kind=BufferKind.AUX, tag="probe_data"
    )
    out = engine.temp(n, np.int32, tag="probe_out")

    # launch overhead: a one-element kernel is all fixed cost
    tiny = engine.temp(1, np.uint32, tag="probe_tiny")
    launch = _timed(engine, "fill", tiny, 1, 0)

    # host link: a one-element transfer is all latency; the full probe
    # column exposes the (PCIe) bandwidth — or the zero-copy mapping
    queue = engine.queue
    t_lat = _timed_transfer(
        engine, lambda: queue.enqueue_write(tiny, np.zeros(1, np.uint32))
    )
    t_up = _timed_transfer(
        engine, lambda: queue.enqueue_write(data, probe_values)
    )
    t_down = _timed_transfer(engine, lambda: queue.enqueue_read(data))
    per_byte = max(t_up + t_down - 2 * t_lat, 0.0) / (2 * nominal_bytes)
    transfer_gbs = (
        float("inf") if per_byte * nominal_bytes < 1e-9
        else 1.0 / (per_byte * cl.GB)
    )

    # streaming: element-wise copy reads + writes the column
    t_stream = max(_timed(engine, "ewise_scalar", out, data, n, "add", 0)
                   - launch, 1e-12)
    stream_gbs = 2 * nominal_bytes / t_stream / cl.GB

    # gather: random permutation access
    perm = engine.memory.allocate_filled(
        rng.permutation(n).astype(np.uint32),
        kind=BufferKind.AUX,
        tag="probe_perm",
    )
    t_gather = max(_timed(engine, "gather", out, data, perm, n) - launch,
                   1e-12)
    gather_gbs = nominal_bytes / t_gather / cl.GB

    # atomics: grouped aggregation against few vs many targets (the
    # many-target partials table is clamped so it cannot OOM the device;
    # transient pressure up to ~capacity/4 is fine, the cache absorbs it)
    parts = engine.device.profile.num_work_groups
    many = max(
        1 << 6,
        min(65536, int(capacity // (4 * scale * parts * 8))),
    )

    def atomic_ns(groups: int) -> float:
        gids = engine.memory.allocate_filled(
            rng.integers(0, groups, n).astype(np.uint32),
            kind=BufferKind.AUX,
            tag="probe_gids",
        )
        partials = engine.temp((parts, groups), np.int64,
                               tag="probe_partials", zeroed=True)
        seconds = max(
            _timed(engine, "grouped_agg_partial", partials, gids, gids,
                   n, groups, "count", 1, True) - launch,
            1e-12,
        )
        engine.release(gids, partials)
        return seconds / (n * scale) * 1e9

    contended = atomic_ns(4)
    uncontended = atomic_ns(many)

    engine.release(data, out, tiny, perm)
    profile = engine.device.profile
    return DeviceCharacteristics(
        device_name=engine.device.name,
        stream_gbs=stream_gbs,
        gather_gbs=gather_gbs,
        launch_overhead_s=launch,
        atomic_contended_ns=contended,
        atomic_uncontended_ns=uncontended,
        partitions=profile.total_invocations,
        local_mem_bytes=profile.local_mem_bytes,
        work_group_size=profile.work_group_size,
        transfer_gbs=transfer_gbs,
        transfer_latency_s=t_lat,
        global_mem_bytes=profile.global_mem_bytes,
        atomic_probe_hi=float(many),
    )


def radix_feasible(chars: DeviceCharacteristics, bits: int) -> bool:
    """Whether every work-item's private digit counters fit local memory.

    This is the constraint that splits the devices: the CPU's 256 KB per
    core hosts 256 counters per item comfortably (radix 8), while the
    GTX 460's 48 KB shared by 192 work-items leaves room for at most
    2^6 counters — radix 4 is the largest power-of-4 width that fits
    (exactly the paper's §5.2.7 choices).
    """
    per_item = chars.local_mem_bytes / max(chars.work_group_size, 1)
    return (1 << bits) * 4 <= per_item


def estimate_sort_cost(
    chars: DeviceCharacteristics,
    bits: int,
    column_bytes: float = 256 * cl.MB,
    key_bits: int = 32,
) -> float:
    """Predicted radix-sort seconds from the measured characteristics.

    Per pass: three launches, one streaming read for the histogram, a
    histogram/offsets volume of ``2^bits`` counters per partition
    (processed at streaming rate; the operator's own partition count,
    :func:`~repro.ocelot.operators.radix_parts`), and a read+write data
    shuffle.  Infeasible widths (counters spill out of local memory) are
    infinite.
    """
    if not radix_feasible(chars, bits):
        return float("inf")
    passes = -(-key_bits // bits)
    keys = math.ceil(column_bytes / (key_bits // 8))
    histogram_bytes = radix_parts(keys, bits, chars.partitions) \
        * (1 << bits) * 4
    payload = 2.0  # keys + payload
    per_pass = (
        3 * chars.launch_overhead_s
        + column_bytes / (chars.stream_gbs * cl.GB)              # histogram
        + 3 * histogram_bytes / (chars.stream_gbs * cl.GB)       # offsets
        + 2 * payload * column_bytes / (chars.stream_gbs * cl.GB)  # shuffle
        + 0.5 * column_bytes / (chars.gather_gbs * cl.GB)        # scatter tail
    )
    return passes * per_pass


def choose_radix_bits(chars: DeviceCharacteristics,
                      candidates=RADIX_CANDIDATES) -> int:
    """The radix width minimising the predicted sort cost."""
    best = min(candidates, key=lambda bits: estimate_sort_cost(chars, bits))
    if estimate_sort_cost(chars, best) == float("inf"):
        raise ValueError("no feasible radix width among candidates")
    return best


@dataclass
class TuningReport:
    characteristics: DeviceCharacteristics
    radix_bits: int
    predicted_sort_costs: dict


def autotune(engine: OcelotEngine) -> TuningReport:
    """Probe the device and install the tuned parameters on ``engine``."""
    chars = probe_device(engine)
    costs = {
        bits: estimate_sort_cost(chars, bits) for bits in RADIX_CANDIDATES
    }
    bits = choose_radix_bits(chars)
    engine.radix_bits = bits
    engine.characteristics = chars
    engine.program = cl.build(
        engine.context, KERNEL_LIBRARY, {"RADIX_BITS": bits}
    )
    return TuningReport(
        characteristics=chars, radix_bits=bits, predicted_sort_costs=costs
    )
