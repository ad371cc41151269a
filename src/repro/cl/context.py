"""OpenCL contexts: device state, allocation accounting, program cache.

A :class:`Context` ties together one device (the paper's Ocelot uses one
device at a time, §7), tracks nominal device-memory usage, and caches
compiled programs per pre-processor specialisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .buffer import Buffer
from .device import Device, DeviceProfile, checked_profile
from .errors import DeviceLost, OutOfDeviceMemory

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Program


class Context:
    """Simulated ``cl_context`` bound to a single device.

    Parameters
    ----------
    device:
        The device (or profile) this context allocates on.
    data_scale:
        Nominal-scaling factor: one in-process array element stands for
        ``data_scale`` elements of the modelled workload.  Affects cost
        model inputs and device-memory accounting only — never results.
    """

    def __init__(self, device: Device | DeviceProfile, data_scale: float = 1.0):
        if isinstance(device, DeviceProfile):
            device = Device(checked_profile(device))
        if data_scale <= 0:
            raise ValueError("data_scale must be positive")
        self.device = device
        self.data_scale = float(data_scale)
        self.allocated_nominal = 0
        self.peak_nominal = 0
        self._buffers: dict[int, Buffer] = {}
        self._program_cache: dict[tuple, "Program"] = {}
        self._released = False

    # -- capacity ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Nominal device-memory capacity in bytes."""
        return self.device.profile.global_mem_bytes

    @property
    def available(self) -> int:
        return self.capacity - self.allocated_nominal

    # -- buffers ---------------------------------------------------------------

    def create_buffer(self, array: np.ndarray, tag: str = "") -> Buffer:
        """Allocate a device buffer initialised with ``array``'s contents.

        Raises :class:`OutOfDeviceMemory` when the nominal footprint does
        not fit; Ocelot's Memory Manager handles that by evicting.
        """
        if self._released:
            raise DeviceLost("context was released")
        array = np.ascontiguousarray(array)
        nominal = int(array.nbytes * self.data_scale)
        allocated = self.allocated_nominal + nominal
        if allocated > self.device.profile.global_mem_bytes:
            raise OutOfDeviceMemory(nominal, self.available, self.capacity)
        buf = Buffer(self, array, tag, nominal)
        self.allocated_nominal = allocated
        if allocated > self.peak_nominal:
            self.peak_nominal = allocated
        self._buffers[buf.buffer_id] = buf
        return buf

    def empty(self, shape, dtype, tag: str = "") -> Buffer:
        """Allocate an uninitialised device buffer."""
        return self.create_buffer(np.empty(shape, dtype=dtype), tag=tag)

    def zeros(self, shape, dtype, tag: str = "") -> Buffer:
        return self.create_buffer(np.zeros(shape, dtype=dtype), tag=tag)

    def _on_buffer_released(self, buf: Buffer) -> None:
        if buf.buffer_id in self._buffers:
            del self._buffers[buf.buffer_id]
            self.allocated_nominal -= buf.nominal_nbytes

    # -- program cache ----------------------------------------------------------

    def cached_program(self, key: tuple) -> "Program | None":
        return self._program_cache.get(key)

    def cache_program(self, key: tuple, program: "Program") -> None:
        self._program_cache[key] = program

    # -- lifecycle ----------------------------------------------------------------

    def release(self) -> None:
        """Release all buffers and invalidate the context."""
        for buf in list(self._buffers.values()):
            buf.release()
        self._program_cache.clear()
        self._released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Context device={self.device.name!r} scale={self.data_scale} "
            f"alloc={self.allocated_nominal}/{self.capacity}>"
        )
