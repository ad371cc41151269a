"""The Ocelot engine: OpenCL context management + operator backend.

``OcelotEngine`` is the paper's "OpenCL Context Management" component
(§3.1): it initialises the runtime for one device, triggers kernel
compilation (injecting the device type and the device-appropriate radix
width as pre-processor constants), owns the command queue and the Memory
Manager, and offers shared host-code helpers.

``OcelotBackend`` plugs the Ocelot operators into the MAL interpreter as
drop-in replacements.  MAL instructions in the ``ocelot`` module dispatch
to host code; anything else (``sql.bind``, operators Ocelot does not
support, such as ``algebra.firstn``) falls back to an embedded sequential
MonetDB backend — the paper's mixed execution mode
(:class:`MixedExecutionBackend`, shared with the heterogeneous
scheduler).
"""

from __future__ import annotations

import numpy as np

from .. import cl
from ..cl import CommandQueue, Context, Device
from ..kernels import KERNEL_LIBRARY
from ..kernels.hashing import MarkerKey
from ..monetdb import ops
from ..monetdb.bat import BAT, OID_DTYPE, Role
from ..monetdb.interpreter import Backend
from ..monetdb.backends import MonetDBSequential
from ..monetdb.storage import Catalog
from .memory import BufferKind, MemoryManager, QueryMemory


class OcelotEngine:
    """Per-device runtime state shared by all Ocelot operators."""

    def __init__(
        self,
        catalog: Catalog,
        device: Device | str = "cpu",
        data_scale: float = 1.0,
    ):
        if isinstance(device, str):
            device = cl.get_device(device)
        self.device = device
        self.context = Context(device, data_scale=data_scale)
        self.queue = CommandQueue(self.context)
        self.catalog = catalog
        self.memory = MemoryManager(self.context, self.queue, catalog)
        #: paper §5.2.7: radix width 8 on the CPU, 4 on the GPU — of the
        #: radix ladder; a sort that fits local memory never climbs it
        self.radix_bits = 8 if device.is_cpu else 4
        #: measured device profile, installed by ``autotune.autotune``
        #: (consumed by the heterogeneous scheduler's placement policy)
        self.characteristics = None
        self.program = cl.build(
            self.context, KERNEL_LIBRARY, {"RADIX_BITS": self.radix_bits}
        )

    # -- kernel launching ---------------------------------------------------

    def launch(self, kernel_name: str, *args, **kwargs):
        """Enqueue one kernel from the compiled program."""
        return self.program.kernel(kernel_name).launch(self.queue, *args, **kwargs)

    @property
    def invocations(self) -> int:
        """Kernel invocations per launch (4 x nc x na, paper §4.2)."""
        return self.device.profile.total_invocations

    # -- host <-> device scalars ------------------------------------------------

    def readback(self, buffer) -> np.ndarray:
        """Transfer a (small) buffer to the host and wait — the stall a
        real engine pays when it needs a result size on the host."""
        host, _event = self.queue.enqueue_read(buffer)
        self.queue.finish()
        return host

    def readback_scalar(self, buffer):
        return self.readback(buffer)[0]

    # -- BAT plumbing -------------------------------------------------------------

    def device_bat(self, buffer, role: Role = Role.VALUES,
                   count: int | None = None, **flags) -> BAT:
        """Create a device-resident result BAT linked to ``buffer``."""
        if count is None:
            count = buffer.size
        if role is Role.BITMAP:
            bat = BAT(None, role, nbits=count)
        else:
            bat = BAT(None, role)
            bat._count = int(count)  # device-resident: set logical size
        for flag, value in flags.items():
            # constructor-style names map onto the BAT attributes
            setattr(bat, "sorted" if flag == "sorted_" else flag, value)
        return self.memory.link_result(bat, buffer)

    def buffer_of(self, bat: BAT):
        """Device buffer for any BAT (upload / cache via Memory Manager)."""
        return self.memory.buffer_for_bat(bat)

    def temp(self, shape, dtype, tag: str = "tmp", zeroed: bool = False):
        """Short-lived device scratch buffer."""
        return self.memory.allocate(
            shape, dtype, BufferKind.AUX, tag=tag, zeroed=zeroed
        )

    def result_buffer(self, shape, dtype, tag: str = "res", zeroed: bool = False):
        return self.memory.allocate(
            shape, dtype, BufferKind.RESULT, tag=tag, zeroed=zeroed
        )

    def release(self, *buffers) -> None:
        for buffer in buffers:
            if buffer is not None:
                self.memory.release(buffer)

    def iota(self, n: int, tag: str = "iota"):
        buf = self.result_buffer(max(n, 1), OID_DTYPE, tag=tag)
        self.launch("iota", buf, n, 0)
        return buf


class MixedExecutionBackend(Backend):
    """An Ocelot operator where there is one, embedded sequential
    MonetDB for the rest — the paper's mixed execution mode (§3.2), the
    rewriter guaranteeing ``sync`` boundaries in between.  Shared by the
    single-device backend and the heterogeneous scheduler, which differ
    in how a device operator is bound (:meth:`_bind`) and on which
    timeline MonetDB's host time lands (:meth:`_charge_host`).

    Mixed execution is also decided at run time, from operand types
    alone: the device forms hash four-byte keys, so an operator whose
    hashed operand (:attr:`repro.monetdb.ops.Op.hashed`) is eight bytes
    wide runs its MonetDB form instead (:meth:`_run_on_monetdb`)."""

    #: the embedded MonetDB; set by the engine before ``Backend.__init__``
    fallback: MonetDBSequential

    # -- registration ---------------------------------------------------------

    def _register_ops(self) -> None:
        from . import operators
        from ..compress.ops import register_compress_ops

        for name in operators.HOST_CODE:
            self.register(f"{ops.DEVICE_MODULE}.{name}",
                          self._four_byte_keys(name, self._bind(name)))
        # compressed-execution forms, registered on *this* backend so
        # their internal delegation targets the ocelot.* operators above
        # (the narrow code payloads are what gets placed, uploaded and
        # cached) instead of the host fallback
        register_compress_ops(self)

    def _bind(self, function: str):
        """The callable ``ocelot.<function>`` resolves to."""
        raise NotImplementedError

    def _charge_host(self, seconds: float) -> None:
        """Fold MonetDB host time into the engine's timeline."""
        raise NotImplementedError

    def resolve(self, op: str):
        fn = self._registry.get(op)
        return fn if fn is not None else self._foreign(op)

    def _foreign(self, op: str):
        """Delegate to MonetDB, its host time folded into the engine's
        timeline (the host drives the device queues)."""
        inner = self.fallback.resolve(op)

        def foreign(*args):
            before = self.fallback.elapsed()
            out = inner(*args)
            seconds = self.fallback.elapsed() - before
            if seconds:
                self._charge_host(seconds)
            return out

        return foreign

    def supports(self, op: str) -> bool:
        return op in self._registry or self.fallback.supports(op)

    # -- run-time mixed execution -----------------------------------------------

    def _four_byte_keys(self, function: str, device_op):
        """``device_op``, handing operators with an eight-byte hashed
        operand back to MonetDB — decided from the dtype alone — and
        those whose hash build meets the one four-byte key a device
        table cannot hold (:class:`~repro.kernels.hashing.MarkerKey`)."""
        row = ops.OPS.get(function)
        if row is None or not row.hashed:
            return device_op

        def op(*args):
            if any(isinstance(args[i], BAT) and args[i].dtype.itemsize == 8
                   for i in row.hashed):
                return self._run_on_monetdb(row, args)
            try:
                return device_op(*args)
            except MarkerKey:
                return self._run_on_monetdb(row, args)

        return op

    def _run_on_monetdb(self, row: ops.Op, args):
        """Sync the operands and run the row's MonetDB form; its results
        are MonetDB-owned, so syncs planned for them are no-ops."""
        sync = self.resolve("ocelot.sync")
        for arg in args:
            if isinstance(arg, BAT):
                sync(arg)
        foreign = self._foreign(row.op)
        if self.tracer is None:
            return foreign(*args)
        with self.tracer.span(f"dispatch.{row.function}", cat="dispatch",
                              tid="MonetDB", device="MonetDB"):
            return foreign(*args)

    # -- result collection ----------------------------------------------------------

    def collect(self, value):
        if isinstance(value, BAT) and not value.has_host_values:
            raise RuntimeError(
                f"result BAT {value.tag!r} reached the result set without a "
                f"sync — rewriter bug"
            )
        return super().collect(value)


class OcelotBackend(MixedExecutionBackend):
    """MAL backend dispatching to Ocelot host code (drop-in operators)."""

    def __init__(
        self,
        catalog: Catalog,
        device: Device | str = "cpu",
        data_scale: float = 1.0,
    ):
        self.engine = OcelotEngine(catalog, device, data_scale)
        #: capability: the one Memory Manager queries allocate from
        self.memory = QueryMemory(lambda: (self.engine.memory,))
        self.label = "GPU" if self.engine.device.is_gpu else "CPU"
        self.fallback = MonetDBSequential(catalog)
        self._t0 = 0.0
        super().__init__(catalog)

    def _bind(self, function: str):
        from . import operators

        engine, fn = self.engine, operators.HOST_CODE[function]

        def op(*args):
            # Auto-pin the operator's working set (paper §3.3: the
            # Memory Manager uses reference counting to prevent
            # evicting buffers that are currently in use).
            with engine.memory.operator_scope():
                return fn(engine, *args)

        return op

    def _charge_host(self, seconds: float) -> None:
        self.engine.queue.host_time += seconds

    # -- timing ----------------------------------------------------------------------

    def begin(self) -> None:
        self.fallback.begin()
        self._t0 = self.engine.queue.finish()
        # fixed per-query framework cost (Intel SDK beta, paper §5.3.2)
        overhead = self.engine.device.profile.framework_overhead_s
        if overhead:
            self.engine.queue.host_time += overhead

    def elapsed(self) -> float:
        return self.engine.queue.finish() - self._t0

    def elapsed_now(self) -> float:
        # read-only makespan: no clFinish, the schedule is untouched
        return self.engine.queue.makespan() - self._t0

    def query_overhead_s(self) -> float:
        return self.engine.device.profile.framework_overhead_s

    # -- lifecycle -------------------------------------------------------------------

    def shutdown(self) -> None:
        """Release every device buffer this backend's engine caches."""
        self.engine.memory.shutdown()
