"""``repro.cl`` — a simulated OpenCL runtime (substrate S1).

Implements the kernel programming model the paper builds on: platforms,
devices, contexts, ``cl_mem`` buffers, in-order-per-engine command queues
with the full event model, runtime kernel compilation with pre-processor
specialisation, and two execution drivers (work-item reference interpreter
and vectorised numpy).  Results are always computed for real; execution
*times* are simulated by calibrated per-device cost models so that the
paper's comparisons can be reproduced without 2013 hardware.  Command
queues also carry per-session timelines for the serve layer's
overlapping queries.  (Layer map: ARCHITECTURE.md §"repro.cl".)
"""

from .buffer import Buffer
from .compiler import ACCESS_COALESCED, ACCESS_SEQUENTIAL, build, default_defines
from .context import Context
from .device import (
    Device,
    DeviceProfile,
    DeviceType,
    GB,
    INTEL_XEON_E5620,
    MB,
    NVIDIA_GTX460,
)
from .errors import (
    BarrierDivergence,
    BuildError,
    CLError,
    DeviceLost,
    InvalidKernelArgs,
    OutOfDeviceMemory,
)
from .event import CommandType, Event
from .kernel import ExecContext, Kernel, KernelDef, Local, Param, ParamKind, Program, params
from .platform import Platform, get_device, get_platforms
from .profile import KernelWork
from .queue import CommandQueue, QueueStats
from .workitem import WorkItem, run_reference

__all__ = [
    "ACCESS_COALESCED",
    "ACCESS_SEQUENTIAL",
    "BarrierDivergence",
    "Buffer",
    "BuildError",
    "CLError",
    "CommandQueue",
    "CommandType",
    "Context",
    "Device",
    "DeviceLost",
    "DeviceProfile",
    "DeviceType",
    "Event",
    "ExecContext",
    "GB",
    "INTEL_XEON_E5620",
    "InvalidKernelArgs",
    "Kernel",
    "KernelDef",
    "KernelWork",
    "Local",
    "MB",
    "NVIDIA_GTX460",
    "OutOfDeviceMemory",
    "Param",
    "ParamKind",
    "Platform",
    "Program",
    "QueueStats",
    "WorkItem",
    "build",
    "default_defines",
    "get_device",
    "get_platforms",
    "params",
    "run_reference",
]
