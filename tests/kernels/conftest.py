"""Shared fixtures: a built program + queue per device type."""

import numpy as np
import pytest

from repro import cl
from repro.kernels import KERNEL_LIBRARY


class KernelRig:
    """Context + queue + compiled program for direct kernel testing."""

    def __init__(self, device_kind: str):
        self.ctx = cl.Context(cl.get_device(device_kind))
        self.queue = cl.CommandQueue(self.ctx)
        radix = 8 if self.ctx.device.is_cpu else 4
        self.program = cl.build(self.ctx, KERNEL_LIBRARY,
                                {"RADIX_BITS": radix})

    def buf(self, array, tag=""):
        return self.ctx.create_buffer(np.ascontiguousarray(array), tag=tag)

    def empty(self, n, dtype, tag=""):
        return self.ctx.empty(max(int(n), 1), dtype, tag=tag)

    def zeros(self, n, dtype, tag=""):
        return self.ctx.zeros(max(int(n), 1), dtype, tag=tag)

    def run(self, kernel, *args):
        return self.queue.enqueue_kernel(self.program.kernel(kernel), args)


@pytest.fixture(params=["cpu", "gpu"], scope="module")
def rig(request):
    return KernelRig(request.param)
