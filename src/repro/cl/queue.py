"""Command queues: lazy scheduling with simulated timelines.

Ocelot's execution model (paper §3.4) only *schedules* kernel invocations
and data transfers; ordering is communicated to the driver through event
wait-lists, and the driver is free to overlap independent operations.

This simulation executes commands eagerly (so results are always
available) but derives a *simulated schedule* from the dependency graph,
which the buffers' event registries carry (a command's dependencies are
the producers and consumers registered on the buffers it touches; no
command takes a wait-list):

* the device has two engines — ``compute`` (kernels) and ``copy`` (DMA
  transfers) — each executing its commands in order,
* a command starts at ``max(engine available, host submit time, session
  floor, latest end in its buffers' registry)``; transfers therefore
  overlap independent kernels exactly as Fig. 3 of the paper illustrates,
* the host timeline advances by the device driver's per-enqueue submit
  cost — which is how the Intel SDK's framework overhead (§5.3.2) enters
  the model.

``finish()`` joins all timelines (like ``clFinish``) and returns the
current makespan; measurements bracket work between two ``finish()`` calls.

**Per-session timelines** (serve layer, see ARCHITECTURE.md): when the
session scheduler interleaves several queries on one device queue, each
command is attributed to the queue's ``current_session``.  A session has
its own *floor* — the epoch before which none of its commands may be
enqueued (a session-scoped sync point, e.g. a cross-device hand-over of
*its* operand; the clock of the session's host thread, so every enqueue
moves it on by the submit cost exactly as a joined queue's host clock
would) — and its own completion frontier.  The queue's global engine
clocks still serialise same-device commands in order (device contention
stays real); only the cross-device barriers stop being global, which is
what lets independent queries overlap on different devices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .buffer import Buffer
from .errors import DeviceLost, InvalidKernelArgs
from .event import CommandType, Event
from .kernel import ExecContext, Kernel

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context


#: events a queue keeps for :meth:`CommandQueue.timeline`
TIMELINE_EVENTS = 256


@dataclass
class QueueStats:
    """Cumulative activity counters (nominal bytes) and the most recent
    :data:`TIMELINE_EVENTS` events."""

    kernels_launched: int = 0
    transfers_to_device: int = 0
    transfers_from_device: int = 0
    bytes_to_device: int = 0
    bytes_from_device: int = 0
    kernel_seconds: float = 0.0
    transfer_seconds: float = 0.0
    events: deque[Event] = field(
        default_factory=lambda: deque(maxlen=TIMELINE_EVENTS)
    )


class CommandQueue:
    """Simulated in-order-per-engine ``cl_command_queue``."""

    COMPUTE = "compute"
    COPY = "copy"

    def __init__(self, context: "Context"):
        self.context = context
        self.device = context.device
        self.host_time = 0.0
        self._engine_time = {self.COMPUTE: 0.0, self.COPY: 0.0}
        self.stats = QueueStats()
        #: buffers whose registry holds an event scheduled since the
        #: timelines were last joined (see :meth:`_join`)
        self._registered: set[Buffer] = set()
        self._released = False
        #: session the next scheduled commands belong to (``None`` =
        #: plain single-query execution, the default)
        self.current_session: str | None = None
        self._session_floor: dict[str, float] = {}
        self._session_end: dict[str, float] = {}

    # -- internal scheduling --------------------------------------------------

    def _check_alive(self) -> None:
        if self._released:
            raise DeviceLost("command queue was released")

    def _schedule(
        self,
        engine: str,
        duration: float,
        ready: float,
        command_type: CommandType,
        label: str,
    ) -> Event:
        """Place one command on ``engine``; ``ready`` is the latest end
        among the events its buffers' registries make it wait for."""
        submit = self.device.host_submit_time()
        self.host_time += submit
        event = Event(command_type, label)
        event.t_submit = self.host_time
        session = self.current_session
        if session is not None:
            # the session's floor is its host thread's clock: it cannot
            # enqueue before its own sync point, and the enqueue costs
            # what it costs a plain query joined at that point
            event.t_submit = self._session_floor[session] = max(
                self._session_floor.get(session, 0.0) + submit,
                self.host_time,
            )
        start = max(self._engine_time[engine], event.t_submit, ready)
        event.t_start = start
        event.t_end = start + duration
        event.engine = engine
        self._engine_time[engine] = event.t_end
        if session is not None:
            self._session_end[session] = max(
                self._session_end.get(session, 0.0), event.t_end
            )
        self.stats.events.append(event)
        return event

    # -- kernels ---------------------------------------------------------------

    def enqueue_kernel(self, kernel: Kernel, args: Sequence[object]) -> Event:
        """Execute ``kernel`` on the device's fixed NDRange (4·nc·na
        work-items, paper §4.2) and schedule it on the compute engine
        (``clEnqueueNDRangeKernel``; the one way a kernel is launched)."""
        self._check_alive()
        definition = kernel.definition
        values, reads, writes = definition.bind(args)

        device = self.device
        data_scale = self.context.data_scale
        exec_ctx = ExecContext(
            device,
            kernel.program.defines,
            device.total_invocations,
            device.work_group_size,
            {},
            data_scale,
        )
        # Eager execution: results materialise now; timing is simulated.
        # Both are read off the definition per launch: a wrapper swapped
        # onto a built definition runs from its next launch on.
        definition.vec_fn(exec_ctx, *values)
        work = definition.work_fn(exec_ctx, *values)
        duration = device.kernel_time(work, data_scale)

        # a read waits for the buffer's producers, a write for its
        # producers and consumers (what ``last_write`` / ``last_activity``
        # return, folded here in one pass)
        ready = 0.0
        for buf in reads:
            for event in buf.producer_events:
                if event.t_end > ready:
                    ready = event.t_end
        for buf in writes:
            for event in buf.producer_events:
                if event.t_end > ready:
                    ready = event.t_end
            for event in buf.consumer_events:
                if event.t_end > ready:
                    ready = event.t_end
        event = self._schedule(
            self.COMPUTE, duration, ready, CommandType.KERNEL, definition.name
        )
        for buf in writes:
            buf.record_producer(event)
        for buf in reads:
            buf.record_consumer(event)
        self._registered.update(writes, reads)
        self.stats.kernels_launched += 1
        self.stats.kernel_seconds += duration
        return event

    # -- transfers --------------------------------------------------------------

    def enqueue_write(self, buffer: Buffer, host_array: np.ndarray) -> Event:
        """Copy ``host_array`` into ``buffer`` (host -> device)."""
        self._check_alive()
        host_array = np.asarray(host_array)
        if host_array.nbytes != buffer.nbytes:
            raise InvalidKernelArgs(
                f"write of {host_array.nbytes} bytes into buffer "
                f"{buffer.tag!r} of {buffer.nbytes} bytes"
            )
        np.copyto(buffer.array.view(host_array.dtype), host_array)
        duration = self.device.transfer_time(buffer.nominal_nbytes)
        event = self._schedule(
            self.COPY, duration, buffer.last_activity(),
            CommandType.WRITE_BUFFER, buffer.tag,
        )
        buffer.record_producer(event)
        self._registered.add(buffer)
        self.stats.transfers_to_device += 1
        self.stats.bytes_to_device += buffer.nominal_nbytes
        self.stats.transfer_seconds += duration
        return event

    def enqueue_read(self, buffer: Buffer) -> tuple[np.ndarray, Event]:
        """Copy ``buffer`` back to the host (device -> host).

        Returns the host array and the transfer's event.
        """
        self._check_alive()
        host_array = buffer.array.copy()
        duration = self.device.transfer_time(buffer.nominal_nbytes)
        event = self._schedule(
            self.COPY, duration, buffer.last_write(),
            CommandType.READ_BUFFER, buffer.tag,
        )
        buffer.record_consumer(event)
        self._registered.add(buffer)
        self.stats.transfers_from_device += 1
        self.stats.bytes_from_device += buffer.nominal_nbytes
        self.stats.transfer_seconds += duration
        return host_array, event

    def enqueue_copy(self, dst: Buffer, src: Buffer) -> Event:
        """Device-to-device copy."""
        self._check_alive()
        if dst.nbytes != src.nbytes:
            raise InvalidKernelArgs("copy size mismatch")
        np.copyto(dst.array.view(src.dtype), src.array)
        # On-device copies run at streaming bandwidth (read + write).
        profile = self.device.profile
        gbs = profile.stream_bw_gbs * profile.bandwidth_efficiency * 1024**3
        duration = 2 * src.nominal_nbytes / gbs
        ready = max(src.last_write(), dst.last_activity())
        event = self._schedule(
            self.COPY, duration, ready, CommandType.COPY_BUFFER, dst.tag
        )
        dst.record_producer(event)
        src.record_consumer(event)
        self._registered.update((dst, src))
        return event

    def enqueue_marker(self) -> Event:
        """Zero-duration synchronisation point on the compute engine."""
        self._check_alive()
        return self._schedule(
            self.COMPUTE, 0.0, 0.0, CommandType.MARKER, "marker"
        )

    # -- synchronisation -----------------------------------------------------------

    def makespan(self) -> float:
        """Current simulated completion time across host and both engines."""
        return max(self.host_time, *self._engine_time.values())

    def _join(self, t: float) -> None:
        """Join the host timeline and both engines at ``t``, which is at
        or past the current makespan.  No later command can start before
        ``t`` and every event scheduled so far ends by then, so none of
        them can delay a command any more: the buffers forget them."""
        self.host_time = t
        for engine in self._engine_time:
            self._engine_time[engine] = t
        for buf in self._registered:
            buf.forget_events()
        self._registered.clear()

    def finish(self) -> float:
        """Block until all scheduled work completed (``clFinish``).

        Joins the host timeline with the device engines — subsequent
        commands cannot start earlier than the returned makespan — and
        returns that makespan in simulated seconds.
        """
        self._check_alive()
        t = self.makespan()
        self._join(t)
        return t

    def advance_to(self, t: float) -> None:
        """Join this queue's timelines to an external epoch ``t``.

        Used by the heterogeneous scheduler to model cross-device sync
        points: when an operand produced on another device's queue is
        consumed here, neither timeline may run ahead of the hand-over.
        Never moves time backwards.
        """
        self._check_alive()
        self._join(max(t, self.makespan()))

    # -- per-session timelines (serve layer) ---------------------------------

    def open_session(self, session: str, epoch: float) -> None:
        """Start tracking ``session``; none of its commands may start
        before ``epoch`` (the simulated submit time)."""
        self._check_alive()
        self._session_floor[session] = max(
            epoch, self._session_floor.get(session, 0.0)
        )

    def close_session(self, session: str) -> None:
        """Forget a completed session's tracking state."""
        self._session_floor.pop(session, None)
        self._session_end.pop(session, None)

    def session_time(self, session: str) -> float:
        """The session's frontier on this queue: the end of its latest
        command, or its floor if it has not enqueued anything here."""
        return max(
            self._session_floor.get(session, 0.0),
            self._session_end.get(session, 0.0),
        )

    def advance_session_to(self, session: str, t: float) -> None:
        """Session-scoped :meth:`advance_to`: a cross-queue sync point
        that floors only ``session``'s future commands — other sessions'
        timelines on this queue are unaffected."""
        self._check_alive()
        self._session_floor[session] = max(
            t, self._session_floor.get(session, 0.0)
        )

    def timeline(self) -> list[Event]:
        """The most recent :data:`TIMELINE_EVENTS` scheduled events,
        ordered by simulated start time."""
        return sorted(self.stats.events, key=lambda e: (e.t_start, e.event_id))

    def release(self) -> None:
        self._released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommandQueue {self.device.name!r} t={self.makespan() * 1e3:.3f}ms "
            f"kernels={self.stats.kernels_launched}>"
        )
