"""Kernel objects: the hardware-oblivious unit of computation.

A :class:`KernelDef` carries everything the runtime needs for one kernel:

* ``source`` — pseudo-OpenCL C text (documentation / flavour; the paper's
  kernels are OpenCL C, ours are executable Python equivalents),
* ``params`` — the typed signature, from which the command queue derives
  buffer dependencies automatically (producer/consumer events, §3.4),
* ``ref_fn`` — a *work-item level* generator function executed by the
  reference interpreter (:mod:`repro.cl.workitem`); ``yield`` is
  ``barrier(CLK_LOCAL_MEM_FENCE)``,
* ``vec_fn`` — the "vendor compiler output": a vectorised numpy
  implementation specialised by pre-processor defines (``DEVICE_TYPE``,
  access pattern, radix width, ...),
* ``work_fn`` — the cost-model estimator returning a
  :class:`~repro.cl.profile.KernelWork`.

Both execution drivers consume the *same* ``KernelDef`` — this is the
hardware-oblivious contract the paper's design rests on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .buffer import Buffer
from .errors import InvalidKernelArgs
from .profile import KernelWork

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .device import Device


class ParamKind(enum.Enum):
    IN = "in"          # __global const T*  (read)
    OUT = "out"        # __global T*        (written)
    INOUT = "inout"    # __global T*        (read + written)
    SCALAR = "scalar"  # pass-by-value
    LOCAL = "local"    # __local T*         (per-work-group scratch)


@dataclass(frozen=True)
class Param:
    name: str
    kind: ParamKind


def params(spec: str) -> tuple[Param, ...]:
    """Parse a compact signature spec: ``"out:res in:inp scalar:n local:tmp"``."""
    out = []
    for token in spec.split():
        kind_s, _, name = token.partition(":")
        out.append(Param(name, ParamKind(kind_s)))
    return tuple(out)


class Local:
    """Launch-time placeholder for a ``__local`` memory argument.

    The reference interpreter materialises one array per work-group; the
    vectorised driver receives ``None`` (it does not emulate local memory).
    """

    def __init__(self, shape, dtype):
        self.shape = shape if isinstance(shape, tuple) else (int(shape),)
        self.dtype = np.dtype(dtype)

    @property
    def nbytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= int(s)
        return n * self.dtype.itemsize


class ExecContext:
    """Runtime information handed to ``vec_fn`` / ``work_fn``."""

    __slots__ = (
        "device", "defines", "global_size", "local_size", "counters",
        "data_scale",
    )

    def __init__(
        self,
        device: "Device",
        defines: Mapping[str, object],
        global_size: int,
        local_size: int,
        counters: dict | None = None,
        data_scale: float = 1.0,
    ):
        self.device = device
        self.defines = defines
        self.global_size = global_size
        self.local_size = local_size
        #: what this launch's ``vec_fn`` measured for its ``work_fn``
        #: (probe look-ups, CAS attempts); one dict per launch, so
        #: interleaved sessions never read each other's numbers
        self.counters = {} if counters is None else counters
        #: the context's nominal-scaling factor, for the rare ``work_fn``
        #: whose cost is not linear in the data volume (``kernel_time``
        #: applies the linear scaling itself)
        self.data_scale = data_scale

    @property
    def num_groups(self) -> int:
        return max(1, self.global_size // max(self.local_size, 1))


@dataclass(frozen=True)
class KernelDef:
    """Definition of one hardware-oblivious kernel (see module docstring)."""

    name: str
    params: tuple[Param, ...]
    vec_fn: Callable
    work_fn: Callable
    ref_fn: Callable | None = None
    source: str = ""
    #: the signature resolved once into index tuples: ``(index, name,
    #: read, written)`` per ``__global`` parameter, ``(index, name)`` per
    #: ``__local`` one and per scalar
    _memory: tuple = field(init=False, repr=False, compare=False)
    _locals: tuple = field(init=False, repr=False, compare=False)
    _scalars: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def indexed(*kinds):
            return [(i, p) for i, p in enumerate(self.params) if p.kind in kinds]

        memory = tuple(
            (i, p.name, p.kind is not ParamKind.OUT, p.kind is not ParamKind.IN)
            for i, p in indexed(ParamKind.IN, ParamKind.OUT, ParamKind.INOUT)
        )
        local = tuple((i, p.name) for i, p in indexed(ParamKind.LOCAL))
        scalar = tuple((i, p.name) for i, p in indexed(ParamKind.SCALAR))
        object.__setattr__(self, "_memory", memory)
        object.__setattr__(self, "_locals", local)
        object.__setattr__(self, "_scalars", scalar)

    def bind(
        self, args: Sequence[object]
    ) -> tuple[list[object], list[Buffer], list[Buffer]]:
        """Check ``args`` against the signature and split them: ``(values
        for the kernel body, buffers read, buffers written)``.  The body
        sees a buffer's array, ``None`` for a ``__local`` placeholder and
        scalars as passed."""
        if len(args) != len(self.params):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} takes {len(self.params)} args, "
                f"got {len(args)}"
            )
        values = list(args)
        reads: list[Buffer] = []
        writes: list[Buffer] = []
        for index, name, read, written in self._memory:
            arg = args[index]
            if not isinstance(arg, Buffer):
                raise InvalidKernelArgs(
                    f"kernel {self.name!r} arg {name!r} must be a "
                    f"Buffer, got {type(arg).__name__}"
                )
            array = arg._array      # ``None`` once released
            if array is None:
                raise InvalidKernelArgs(
                    f"kernel {self.name!r} got released buffer {arg.tag!r}"
                )
            values[index] = array
            if read:
                reads.append(arg)
            if written:
                writes.append(arg)
        for index, name in self._locals:
            if not isinstance(args[index], Local):
                raise InvalidKernelArgs(
                    f"kernel {self.name!r} arg {name!r} must be a "
                    f"Local placeholder, got {type(args[index]).__name__}"
                )
            values[index] = None
        for index, name in self._scalars:
            if isinstance(args[index], (Buffer, Local)):
                raise InvalidKernelArgs(
                    f"kernel {self.name!r} arg {name!r} is scalar but a "
                    f"memory object was passed"
                )
        return values, reads, writes


class Kernel:
    """A kernel bound to a compiled :class:`Program` (device + defines),
    launched by ``CommandQueue.enqueue_kernel``."""

    def __init__(self, program: "Program", definition: KernelDef):
        self.program = program
        self.definition = definition

    @property
    def name(self) -> str:
        return self.definition.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r} of {self.program!r}>"


@dataclass
class Program:
    """A kernel library compiled ("specialised") for one device.

    ``defines`` holds the pre-processor constants injected at build time —
    the paper's mechanism for choosing device-specific access patterns
    inside otherwise hardware-oblivious kernels (§4.2).
    """

    context: "Context"
    defines: dict = field(default_factory=dict)
    build_time: float = 0.0
    _kernels: dict[str, Kernel] = field(default_factory=dict)

    def add(self, definition: KernelDef) -> None:
        self._kernels[definition.name] = Kernel(self, definition)

    def kernel(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise InvalidKernelArgs(f"program has no kernel {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dev = self.context.device.profile.device_type.value
        return f"<Program {len(self._kernels)} kernels for {dev}>"
