"""The device pool: per-device engines, residency, and clock joins.

One :class:`~repro.ocelot.engine.OcelotEngine` per device, each with its
own context, command queue and Memory Manager over the *shared* catalog.
At construction every device is probed (``autotune``), so the scheduler's
placement decisions are driven purely by measured characteristics — the
pool never reads a device's cost model directly (hardware-oblivious, §7).

The pool also owns the mechanism that makes multi-device execution
sound in the simulated-timeline model, **migration**
(:meth:`DevicePool.ensure_on`): an Ocelot-owned BAT resident on device
A that is consumed on device B is read back on A's queue, both queues
are joined (a cross-device sync boundary — B cannot start before A's
producers finished), and the tail is re-uploaded on B's queue.
Partitions read the catalog's cached slices (:meth:`Catalog.slice`), so
partitioned fan-out enjoys the same hot device cache across repeated
runs as whole-BAT execution.
"""

from __future__ import annotations

from ..cl import Buffer
from ..monetdb.bat import BAT
from ..monetdb.storage import Catalog
from ..ocelot.autotune import DeviceCharacteristics, autotune
from ..ocelot.engine import OcelotEngine
from ..ocelot.memory import BufferKind


class DevicePool:
    """All devices the heterogeneous scheduler may place work on — and
    the engine's timeline (see :class:`~repro.monetdb.interpreter
    .SerialTimeline` for the protocol): one command queue per device,
    so sessions on different devices run at the same simulated time."""

    overlaps = True

    def __init__(
        self,
        catalog: Catalog,
        devices: tuple = ("cpu", "gpu"),
        data_scale: float = 1.0,
    ):
        self.catalog = catalog
        self.engines: list[OcelotEngine] = []
        self.characteristics: list[DeviceCharacteristics] = []
        for device in devices:
            engine = OcelotEngine(catalog, device, data_scale)
            report = autotune(engine)   # probe + install tuned parameters
            self.engines.append(engine)
            self.characteristics.append(report.characteristics)
        #: session whose commands are currently being scheduled (serve
        #: layer); ``None`` = plain one-query-at-a-time execution
        self.current_session: str | None = None
        #: submit epoch of every open session
        self._epochs: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.engines)

    # -- residency ---------------------------------------------------------

    def engine_for_buffer(self, buffer: Buffer) -> OcelotEngine | None:
        for engine in self.engines:
            if buffer.context is engine.context:
                return engine
        return None

    def device_of(self, bat: BAT) -> int | None:
        """Index of the device holding ``bat``'s live tail, if any."""
        ref = bat.device_ref
        if ref is None or ref.released:
            return None
        for idx, engine in enumerate(self.engines):
            if ref.context is engine.context:
                return idx
        return None

    def home_of(self, bat: BAT) -> int | None:
        """The device whose manager can produce ``bat``'s tail — live
        buffer, or an offloaded/evicted registry entry it can restore.
        This is the data-gravity anchor even under memory pressure."""
        idx = self.device_of(bat)
        if idx is not None:
            return idx
        for idx, engine in enumerate(self.engines):
            if engine.memory.has_entry(bat):
                return idx
        return None

    # -- cross-device migration ---------------------------------------------

    def ensure_on(self, bat: BAT, target: OcelotEngine) -> None:
        """Make ``bat`` consumable on ``target``'s device.

        Host-resident BATs need nothing (the target's Memory Manager
        uploads/caches them on demand); a device-resident tail on another
        device is migrated through the host with a clock join in between
        — the dynamic equivalent of a rewriter-inserted sync boundary.
        """
        ref = bat.device_ref
        if ref is not None and not ref.released \
                and ref.context is target.context:
            return
        if bat.has_host_values:
            # synced earlier: the host master is current, a stale
            # cross-device reference only needs detaching; the source
            # keeps its cached copy for its own future use
            if ref is not None and ref.context is not target.context:
                bat.device_ref = None
            return
        if ref is not None and not ref.released \
                and self.engine_for_buffer(ref) is None:
            bat.device_ref = None   # foreign buffer (not pool-managed)
            return
        home = self.home_of(bat)
        if home is None or self.engines[home] is target:
            # nothing to move: the target's own manager restores any
            # offloaded entry on demand
            return
        source = self.engines[home]
        # restore at home first if the tail was offloaded there
        ref = source.memory.buffer_for_bat(bat)
        # device-only tail: read back on the owner's queue ...
        for aux in list(bat.aux.values()):
            # operator-attached auxiliaries (materialised oid views) live
            # on the source device; drop them with the old residence
            if isinstance(aux, Buffer) and not aux.released:
                (self.engine_for_buffer(aux) or source).memory.release(aux)
        bat.aux.clear()
        host, _event = source.queue.enqueue_read(ref)
        # ... join the timelines at the hand-over ...
        self.join_clocks()
        source.memory.release(ref)
        bat.device_ref = None
        # ... and re-upload on the target's queue.
        new_buffer = target.memory.allocate(
            host.shape, host.dtype, BufferKind.RESULT, tag=ref.tag
        )
        target.queue.enqueue_write(new_buffer, host)
        target.memory.link_result(bat, new_buffer)

    # -- partition slices ------------------------------------------------------

    def slice_cached_on(self, bat: BAT, lo: int, hi: int,
                        device: int) -> bool:
        """Whether the ``[lo, hi)`` slice (:meth:`Catalog.slice`) is
        already device-cached."""
        sliced = self.catalog.cached_slice(bat, lo, hi)
        return sliced is not None \
            and self.engines[device].memory.has_resident(sliced)

    # -- simulated clocks -------------------------------------------------------

    def join_clocks(self) -> float:
        """Barrier across all device queues (cross-device sync point).

        With a ``current_session`` set (serve layer) the barrier is
        session-scoped: it joins only that session's frontiers and floors
        only that session's future commands, so independent queries on
        the other queue keep running — the per-session generalisation of
        the global join.
        """
        session = self.current_session
        if session is not None:
            t = max(
                engine.queue.session_time(session) for engine in self.engines
            )
            for engine in self.engines:
                engine.queue.advance_session_to(session, t)
            return t
        t = max(engine.queue.finish() for engine in self.engines)
        for engine in self.engines:
            engine.queue.advance_to(t)
        return t

    def charge_host(self, seconds: float) -> None:
        """Account host-side work (e.g. a partial merge) on the joined
        timeline: no device command may start before it completes.

        Always a barrier — even zero-cost host work (an empty merge)
        consumes every device's partials, so the queues must join.
        Session-scoped when ``current_session`` is set (only the owning
        session waits on its own host work)."""
        t = self.join_clocks() + max(seconds, 0.0)
        session = self.current_session
        for engine in self.engines:
            if session is not None:
                engine.queue.advance_session_to(session, t)
            else:
                engine.queue.advance_to(t)

    def makespan(self) -> float:
        return max(engine.queue.makespan() for engine in self.engines)

    def frontier(self, device: int) -> float:
        """When ``device`` could take the current session's next
        command: its queue's frontier, or the session's floor there
        where that is later (a plain query's joins move the queue's
        clocks themselves)."""
        queue = self.engines[device].queue
        return max(queue.makespan(),
                   queue.session_time(self.current_session))

    # -- session lifecycle (serve layer) ----------------------------------------

    def set_session(self, session: str | None) -> None:
        """Attribute subsequently scheduled commands to ``session``."""
        self.current_session = session
        for engine in self.engines:
            engine.queue.current_session = session

    def open_session(self, session: str) -> float:
        """Register a session on every queue; its commands may not start
        before "now".  Returns the simulated submit epoch.

        "Now" is the pool-wide frontier (the host has already issued
        everything scheduled so far), so every queue is floored at the
        same epoch — otherwise a session submitted after a CPU-heavy
        batch could schedule GPU commands into that queue's idle past
        and report an impossibly small latency."""
        epoch = self._epochs[session] = self.makespan()
        for engine in self.engines:
            engine.queue.open_session(session, epoch)
        return epoch

    def close_session(self, session: str) -> tuple[float, float]:
        """Drop a session's tracking state; returns its completion epoch
        (the latest frontier it reached on any queue) and the seconds
        since its submit epoch."""
        t = self.session_time(session)
        for engine in self.engines:
            engine.queue.close_session(session)
        return t, t - self._epochs.pop(session)

    def session_time(self, session: str) -> float:
        return max(
            engine.queue.session_time(session) for engine in self.engines
        )

    # -- host-side merge model --------------------------------------------------

    def host_characteristics(self):
        """The profile of the device doing host-side work (the CPU)."""
        for idx, engine in enumerate(self.engines):
            if engine.device.is_cpu:
                return self.characteristics[idx]
        return self.characteristics[0]

    def merge_seconds(self, merged_nominal_bytes: float) -> float:
        """Host-side cost of merging partials: read + write the merged
        column at the host's streaming rate.  The single source of truth
        for both the planner's prediction and the charged time."""
        from ..cl import GB

        host = self.host_characteristics()
        return 2 * merged_nominal_bytes / (host.stream_gbs * GB)

    # -- lifecycle --------------------------------------------------------------

    def shutdown(self) -> None:
        """Release every device's cached buffers."""
        for engine in self.engines:
            engine.memory.shutdown()

    # -- helpers --------------------------------------------------------------

    def release_device_bat(self, bat: BAT) -> None:
        """Free a consumed partial result's device storage everywhere."""
        for key, aux in list(bat.aux.items()):
            if isinstance(aux, Buffer) and not aux.released:
                owner = self.engine_for_buffer(aux)
                if owner is not None:
                    owner.memory.release(aux)
        bat.aux.clear()
        ref = bat.device_ref
        if ref is not None and not ref.released:
            owner = self.engine_for_buffer(ref)
            if owner is not None:
                owner.memory.release(ref)
        bat.device_ref = None

    @property
    def data_scale(self) -> float:
        return self.engines[0].context.data_scale
