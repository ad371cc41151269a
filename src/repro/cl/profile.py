"""Work profiles: the cost-model currency of the simulated runtime.

Every kernel in the hardware-oblivious library describes the *work* a launch
performs (bytes streamed, bytes randomly accessed, arithmetic operations,
atomic traffic).  Devices translate a :class:`KernelWork` into simulated
execution time (see :mod:`repro.cl.device`).  Correct *results* always come
from actually executing the kernel on numpy arrays; only *reported times*
come from the cost model.

All quantities are **nominal**: when a benchmark runs a 4 M-element array
standing in for the paper's 256 M-element (1024 MB) column, the profile is
scaled by the context's ``data_scale`` so that simulated times are
comparable with the paper's measurements (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KernelWork:
    """Machine-independent description of the work done by one kernel launch.

    Attributes
    ----------
    elements:
        Number of logical input elements processed.
    bytes_read / bytes_written:
        Sequentially streamed traffic (coalescable on GPUs, prefetchable on
        CPUs).
    random_bytes:
        Gathered / scattered traffic with data-dependent addresses (hash
        probes, gathers through an oid list, radix scatter).
    ops:
        Arithmetic / comparison operations (one per four-byte value).
    atomic_ops:
        Number of atomic read-modify-write operations issued.
    atomic_addresses:
        Number of *distinct* memory addresses targeted by those atomics.
        The ratio ``atomic_ops / atomic_addresses`` drives the contention
        model: hashing a column with 100 distinct values hammers 100
        addresses and serialises (paper §5.2.4, Fig. 5(e)/(f)).
    """

    elements: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    random_bytes: int = 0
    ops: int = 0
    atomic_ops: int = 0
    atomic_addresses: int = 0

    def __add__(self, other: "KernelWork") -> "KernelWork":
        return KernelWork(
            elements=self.elements + other.elements,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            random_bytes=self.random_bytes + other.random_bytes,
            ops=self.ops + other.ops,
            atomic_ops=self.atomic_ops + other.atomic_ops,
            atomic_addresses=max(self.atomic_addresses, other.atomic_addresses),
        )
