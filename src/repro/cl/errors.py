"""Error hierarchy for the simulated OpenCL runtime.

The names deliberately mirror OpenCL error codes (``CL_OUT_OF_RESOURCES``,
``CL_BUILD_PROGRAM_FAILURE``, ...) so that host code reads like host code
written against a real OpenCL binding.
"""

from __future__ import annotations


class CLError(Exception):
    """Base class for all simulated OpenCL runtime errors."""


class OutOfDeviceMemory(CLError):
    """Raised when a buffer allocation exceeds the device's global memory.

    Mirrors ``CL_MEM_OBJECT_ALLOCATION_FAILURE``.  Ocelot's Memory Manager
    catches this error and reacts by evicting cached BATs (LRU) and, once
    the cache is empty, offloading result buffers to the host (paper §3.3).
    """

    def __init__(self, requested: int, available: int, capacity: int):
        self.requested = int(requested)
        self.available = int(available)
        self.capacity = int(capacity)
        super().__init__(
            f"device allocation of {requested} bytes failed: "
            f"{available} of {capacity} bytes available"
        )


class BuildError(CLError):
    """Raised when a kernel program cannot be specialised for a device.

    Mirrors ``CL_BUILD_PROGRAM_FAILURE``.
    """


class InvalidKernelArgs(CLError):
    """Raised when kernel arguments do not match the kernel signature."""


class BarrierDivergence(CLError):
    """Raised by the work-item interpreter on divergent barriers.

    In OpenCL, if any work-item in a work-group reaches a barrier, *all*
    work-items of that group must reach the same barrier.  The reference
    interpreter detects violations and raises instead of dead-locking.
    """


class DeviceLost(CLError):
    """Raised when operating on a released context or queue."""
