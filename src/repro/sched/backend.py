"""The fifth engine configuration: heterogeneous CPU+GPU execution.

``HeterogeneousBackend`` plugs into the MAL interpreter exactly like the
single-device Ocelot backend — same rewritten plans, same drop-in
operator registry — but owns a :class:`~repro.sched.pool.DevicePool`
with *all* simulated devices and routes every instruction through the
:class:`~repro.sched.placer.CostPlacer`:

* **single placement** runs the unmodified host code on the cheapest
  device (measured characteristics + data gravity), migrating
  cross-device operands with a makespan join first;
* **fan-out** splits row-independent operators across the devices'
  concurrent queues and merges the partials on the host;
* ``ocelot.sync`` always runs on the device holding the operand;
* unsupported operators fall back to embedded sequential MonetDB, their
  host time folded into the joined timeline (mixed execution, §3.2), as
  do, before placement, the operators the Ocelot engines' one hand-back
  rule sends there (:class:`~repro.ocelot.engine.MixedExecutionBackend`).

Per-query framework overheads (the Intel SDK's fixed cost) are charged
per device *on first use within the query*, so a query that never
touches the CPU never pays the CPU SDK's overhead.

The ``sessions`` capability (see ARCHITECTURE.md and :mod:`repro.serve`):

* **per-query state** — every per-query bit of state (overhead charging,
  the decision log) lives in a :class:`_QueryState` held by a
  :class:`~repro.monetdb.interpreter.QuerySessions` over the device
  pool; the session scheduler opens one state per in-flight query and
  activates it around each interpreted instruction, so N queries can
  interleave on the shared pool without corrupting each other's
  bookkeeping.

A cached plan holds no placement: every dispatch is placed from the
operands and residency in front of it, as Ocelot decides per BAT from
where it lives (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..monetdb.bat import BAT, Role
from ..monetdb.backends import MonetDBSequential
from ..monetdb.interpreter import QuerySessions, QueryState
from ..monetdb.ops import OPS
from ..monetdb.storage import Catalog
from ..ocelot.engine import MixedExecutionBackend
from ..ocelot.memory import QueryMemory
from ..ocelot.operators import HOST_CODE
from .partition import execute_split
from .placer import CostPlacer
from .pool import DevicePool


@dataclass
class _QueryState(QueryState):
    """Per-query scheduling state (one per in-flight query)."""

    #: devices whose fixed per-query framework cost was already paid
    overhead_charged: set[int] = field(default_factory=set)
    #: (function, "split" | device index | "monetdb") per dispatched
    #: instruction — introspection for tests and examples
    decision_log: list[tuple[str, object]] = field(default_factory=list)


class HeterogeneousBackend(MixedExecutionBackend):
    """MAL backend scheduling one plan across every pooled device."""

    label = "HET"

    def __init__(
        self,
        catalog: Catalog,
        devices: tuple = ("cpu", "gpu"),
        data_scale: float = 1.0,
    ):
        self.pool = DevicePool(catalog, devices, data_scale)
        #: capability: every pooled device's Memory Manager
        self.memory = QueryMemory(
            lambda: [engine.memory for engine in self.pool.engines]
        )
        self.placer = CostPlacer(self.pool)
        #: observed per-(column, op) selectivities, fed back after every
        #: selection and consumed by the placer's fan-out pricing
        self.stats = self.placer.stats
        self.fallback = MonetDBSequential(catalog)
        self._t0 = 0.0
        #: capability: one :class:`_QueryState` per in-flight query on
        #: the pool's per-device timelines
        self.sessions = QuerySessions(self._new_query, self.pool)
        #: device every dispatch is pinned to while a morsel is in
        #: flight (``morsel_scope``); None = normal cost placement
        self._pinned_device: int | None = None
        super().__init__(catalog)

    @property
    def decision_log(self) -> list[tuple[str, object]]:
        return self.sessions.current.decision_log

    # -- registration ---------------------------------------------------------

    def _bind(self, function: str):
        def op(*args):
            return self._dispatch(function, args)

        return op

    def _charge_host(self, seconds: float) -> None:
        # MonetDB's host time blocks both device queues (the host
        # drives them)
        self.pool.charge_host(seconds)

    def _run_on_monetdb(self, row, args):
        self.decision_log.append((row.function, "monetdb"))
        return super()._run_on_monetdb(row, args)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, function: str, args):
        if function == "sync":
            return self._sync(args[0])
        state = self.sessions.current
        if self._pinned_device is not None:
            # a morsel is in flight: the whole morsel runs on the device
            # chosen at scope entry (the morsel, not the operator, is
            # the stealing unit), so there is nothing to score
            device, split = self._pinned_device, None
        else:
            decision = self.placer.choose(
                function, args, charged=frozenset(state.overhead_charged)
            )
            device, split = decision.device, decision.split
        tracer = self.tracer
        if split is not None:
            state.decision_log.append((function, "split"))
            if tracer is not None:
                span = tracer.begin(
                    f"dispatch.{function}", cat="dispatch", device="split",
                    shares=[[d, hi - lo] for d, lo, hi in split],
                )
            try:
                out = execute_split(
                    self.pool, function, args, split,
                    charge_overhead=self._charge_overhead,
                )
            finally:
                if tracer is not None:
                    tracer.end(span)
        else:
            engine = self.pool.engines[device]
            state.decision_log.append((function, device))
            self._charge_overhead(device)
            if tracer is not None:
                label = self._device_label(device)
                span = tracer.begin(
                    f"dispatch.{function}", cat="dispatch",
                    tid=label, device=label,
                )
            try:
                for arg in args:
                    if isinstance(arg, BAT):
                        if tracer is not None \
                                and not engine.memory.has_resident(arg):
                            from ..obs.tracer import describe_value

                            tracer.event(
                                "transfer", cat="transfer",
                                tid=self._device_label(device),
                                device=self._device_label(device),
                                tag=arg.tag,
                                **describe_value(arg),
                            )
                        self.pool.ensure_on(arg, engine)
                with engine.memory.operator_scope():
                    out = HOST_CODE[function](engine, *args)
            finally:
                if tracer is not None:
                    tracer.end(span)
        row = OPS.get(function)
        if row is not None and row.cls == "select":
            self._observe_selection(function, args, out)
        return out

    def _device_label(self, device: int) -> str:
        engine = self.pool.engines[device]
        return "GPU" if engine.device.is_gpu else "CPU"

    # -- morsel-driven execution --------------------------------------------------

    def morsel_scope(self):
        """Pin one morsel's dispatches to the least-loaded device.

        Entered by the morsel executor around each oid-range batch: the
        device whose queue frontier is earliest takes the whole morsel,
        so a slow device simply claims fewer morsels — work stealing at
        morsel granularity, replacing per-operator fan-out splits inside
        pipelined regions (the region's intermediates then stay resident
        on the executing device)."""
        import contextlib

        @contextlib.contextmanager
        def scope():
            previous = self._pinned_device
            candidates = [
                idx for idx in range(len(self.pool.engines))
                if idx not in self.placer.banned
            ] or list(range(len(self.pool.engines)))
            self._pinned_device = min(candidates, key=self.pool.frontier)
            try:
                yield self._pinned_device
            finally:
                self._pinned_device = previous

        return scope()

    def _observe_selection(self, function: str, args, result) -> None:
        """Feed the observed selectivity back to the placer's stats.

        Free in simulated time: a real engine reads result sizes off
        completion events it already waits on, so peeking the bitmap's
        population count charges nothing.  Candidate-constrained
        selections are skipped — their output counts the *conjunction*
        with the candidate list, which would poison the per-column
        estimate (and they are never fanned out anyway)."""
        if len(args) > 1 and args[1] is not None:
            return
        bats = [a for a in args if isinstance(a, BAT)]
        if not bats or not bats[0].count:
            return
        hits = self._result_cardinality(result)
        if hits is None:
            return
        self.stats.observe(
            bats[0].tag, function, hits / bats[0].count
        )

    @staticmethod
    def _result_cardinality(result):
        if not isinstance(result, BAT):
            return None
        if result.role is Role.OIDS:
            return result.count
        if result.role is Role.BITMAP:
            ref = result.device_ref
            bits = (
                ref.array if ref is not None and not ref.released
                else result.peek_values()
            )
            if bits is None:
                return None
            from ..kernels import count_bits

            return count_bits(bits, result.count)
        return None

    def _sync(self, value):
        if not isinstance(value, BAT):
            return value
        # home_of also finds offloaded tails, which only their own
        # manager can restore (a host_copy is not shared across devices)
        home = self.pool.home_of(value)
        engine = self.pool.engines[home if home is not None else 0]
        with engine.memory.operator_scope():
            return HOST_CODE["sync"](engine, value)

    def _charge_overhead(self, device: int) -> None:
        charged = self.sessions.current.overhead_charged
        if device in charged:
            return
        charged.add(device)
        overhead = self.pool.engines[device].device.profile \
            .framework_overhead_s
        if overhead:
            # charged on the *joined* timeline (host-side SDK setup is a
            # serial resource): every charge extends the query makespan
            # by exactly its amount, so query_overhead_s — the sum — is
            # exactly what operator-timing benchmarks must subtract
            self.pool.charge_host(overhead)

    # -- circuit breakers: route work around a sick device ---------------------

    def note_node_failure(self, error) -> str:
        """Charge the failed device's breaker; ban it from placement on
        trip.  A ban is a placer-level exclusion (infinite score, zero
        fan-out share), so retried queries route onto the healthy
        devices; the last healthy device is never banned.  Faults
        without a device id fall back to the backend-wide breaker."""
        device = getattr(error, "node", None)
        if device is None or not 0 <= device < len(self.pool.engines):
            return super().note_node_failure(error)
        breaker = self.health.breaker(("device", device))
        tripped = breaker.record_failure()
        if tripped or not breaker.allow():
            banned = self.placer.banned
            if device not in banned \
                    and len(self.pool.engines) - len(banned) <= 1:
                return "fail"
            banned.add(device)
            return "rerouted"
        return "retry"

    def query_boundary(self) -> None:
        """Between queries: unban devices whose breakers cooled down
        (the next failure re-trips with doubled backoff)."""
        super().query_boundary()
        for device in sorted(self.placer.banned):
            if self.health.breaker(("device", device)).allow():
                self.placer.banned.discard(device)

    # -- timing --------------------------------------------------------------------

    def _new_query(self) -> _QueryState:
        # the fallback's clock is only ever read as a delta around one
        # foreign operator, so every new query may zero it (and drop
        # its per-operator cost trace)
        self.fallback.begin()
        return _QueryState()

    def begin(self) -> None:
        self.sessions.current = self._new_query()
        self._t0 = self.pool.join_clocks()

    def elapsed(self) -> float:
        return self.pool.join_clocks() - self._t0

    def elapsed_now(self) -> float:
        return self.pool.makespan() - self._t0

    def query_overhead_s(self) -> float:
        return sum(
            self.pool.engines[d].device.profile.framework_overhead_s
            for d in self.sessions.current.overhead_charged
        )

    # -- lifecycle -------------------------------------------------------------------

    def shutdown(self) -> None:
        """Release the whole pool's device state (connection close)."""
        self.pool.shutdown()
