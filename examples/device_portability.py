"""Hardware obliviousness up close: one kernel set, two devices.

Shows the mechanics behind the paper's Fig. 1/Fig. 4: the same kernel
library is compiled per device with injected pre-processor constants
(DEVICE_TYPE, ACCESS_PATTERN, RADIX_BITS), the same host code schedules
the same kernels, and the simulated event timeline reveals the per-device
schedule — including transfers overlapping compute on the GPU (Fig. 3).

    python examples/device_portability.py
"""

import numpy as np

from repro import cl
from repro.kernels import KERNEL_LIBRARY, count_bits


def run_on(device_kind: str) -> None:
    device = cl.get_device(device_kind)
    ctx = cl.Context(device, data_scale=128.0)  # pretend it is 128x bigger
    queue = cl.CommandQueue(ctx)
    radix = 8 if device.is_cpu else 4
    program = cl.build(ctx, KERNEL_LIBRARY, {"RADIX_BITS": radix})

    print(f"\n=== {device.name} ===")
    print(f"  defines: DEVICE_TYPE={program.defines['DEVICE_TYPE']} "
          f"ACCESS_PATTERN={program.defines['ACCESS_PATTERN']} "
          f"RADIX_BITS={program.defines['RADIX_BITS']}")
    p = device.profile
    print(f"  scheduling (§4.2): {p.num_work_groups} work-groups x "
          f"{p.work_group_size} items = {p.total_invocations} invocations")

    rng = np.random.default_rng(3)
    n = 1 << 20
    values = rng.integers(0, 1_000_000, n).astype(np.int32)

    # the Fig. 3 query fragment: two selections OR-combined, then count
    col = ctx.create_buffer(values, tag="a")
    bm2 = ctx.zeros((n + 7) // 8, np.uint8, tag="sigma2")
    bm3 = ctx.zeros((n + 7) // 8, np.uint8, tag="sigma3")
    select = program.kernel("select_bitmap")
    queue.enqueue_kernel(select, (bm2, col, n, "==", 2, None, False))
    queue.enqueue_kernel(select, (bm3, col, n, "==", 3, None, False))
    both = ctx.zeros((n + 7) // 8, np.uint8, tag="or")
    queue.enqueue_kernel(program.kernel("bitmap_binop"),
                         (both, bm2, bm3, (n + 7) // 8, "or"))
    makespan = queue.finish()

    hits = count_bits(both.array, n)
    expected = int(((values == 2) | (values == 3)).sum())
    assert hits == expected
    print(f"  WHERE a IN (2,3): {hits} rows, "
          f"{makespan * 1e3:.3f} ms simulated")

    print("  event timeline (simulated):")
    for event in queue.timeline():
        bar_start = int(event.t_start / makespan * 40)
        bar_len = max(1, int(event.duration / makespan * 40))
        bar = " " * bar_start + "#" * bar_len
        print(f"    {event.engine:7s} {event.label:14s} |{bar:<42s}| "
              f"{event.duration * 1e3:7.3f} ms")


def main() -> None:
    print("One hardware-oblivious kernel library, specialised per device")
    print("at runtime — no operator was rewritten between these two runs.")
    run_on("cpu")
    run_on("gpu")


if __name__ == "__main__":
    main()
