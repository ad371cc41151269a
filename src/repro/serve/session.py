"""Async sessions: ``submit()`` futures over a fair round-robin scheduler.

One :class:`SessionScheduler` serves one :class:`~repro.api.Connection`.
``submit`` compiles (through the plan cache), opens a *session* — one
in-flight query with its own interpreter environment, its own
per-device timeline floors, and its own scheduling state — and returns
a :class:`QueryFuture`.  The scheduler then interleaves the in-flight
queries **one MAL instruction per turn, round-robin** (fairness: no
query can starve another, every in-flight query advances once per
round).

On the heterogeneous engine this pipelines for real: each instruction
is placed by the cost placer as usual, but cross-device sync points are
*session-scoped* (see :meth:`repro.cl.queue.CommandQueue
.advance_session_to`), so a query running on the GPU's queue and a
query running on the CPU's queue overlap in simulated time — N
independent queries finish in less wall-clock makespan than the same
queries run serially, while same-device work still serialises in-order
on the shared queue (contention stays real).  Engines with a single
timeline (MS/MP/CPU/GPU) accept ``submit`` too but execute FIFO, one
query at a time — there is no second device queue to overlap onto.

The scheduler is also the serving tier's **admission controller**:

* a per-connection concurrency cap (the engine spec's ``admission=``
  parameter) and an optional memory budget
  (:attr:`SessionScheduler.memory_budget`, bytes of estimated base-
  column footprint) hold excess submissions in a pending queue;
* queries that hit transient device memory pressure park and re-run
  serially after the batch, with **bounded** re-parks
  (:data:`MAX_PARKS`) so a persistently failing query terminates with
  its original error;
* while parked queries wait, *new* submissions are held back too — the
  retry queue drains first, so a steady arrival stream can no longer
  starve a parked query;
* transient node failures (:class:`~repro.serve.faults.TransientFault`)
  are reported to the backend's circuit breakers
  (``note_node_failure``): a tripped breaker takes the sick node out
  of service, every in-flight query is parked (its placement trace and
  partial state predate the topology change) and re-run against the
  healthy remainder;
* ``submit(timeout=...)`` sets a deadline in simulated seconds and
  :meth:`QueryFuture.cancel` withdraws a query — both enforced
  cooperatively at turn granularity (morsel-granular through
  ``ProgramRun.step`` on pipelined engines).

Execution is cooperative and single-threaded: ``QueryFuture.result()``
or ``SessionScheduler.drain()`` drive the interleaving.  Results are
isolated by construction (per-run variable environments; base columns
are immutable) — property-tested under device memory pressure in
``tests/property/test_serve_properties.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..monetdb.interpreter import ProgramRun, QueryResult
from ..ocelot.memory import OcelotOOM
from .faults import TransientFault
from .plancache import CachedPlan
from .resilience import CircuitOpen

#: how often one query may park (OOM or transient fault) before its
#: failure is surfaced instead of retried
MAX_PARKS = 3


class QueryTimeout(RuntimeError):
    """The query ran past its ``submit(timeout=...)`` deadline."""


class QueryCancelled(RuntimeError):
    """The query was withdrawn via :meth:`QueryFuture.cancel`."""


class QueryFuture:
    """Handle to one submitted query; resolves when the scheduler has
    run the query to completion."""

    def __init__(self, scheduler: "SessionScheduler", session: str,
                 name: str):
        self._scheduler = scheduler
        self.session = session
        self.name = name
        self.submit_epoch = 0.0
        self.completion_epoch: Optional[float] = None
        self._result: Optional[QueryResult] = None
        self._error: Optional[BaseException] = None
        self._done = False

    def done(self) -> bool:
        return self._done

    def result(self) -> QueryResult:
        """Drive the scheduler (cooperatively) until this query finished;
        returns its :class:`QueryResult` or re-raises its failure."""
        while not self._done:
            if not self._scheduler.step():
                raise RuntimeError(
                    f"session {self.session} never completed"
                )  # pragma: no cover - scheduler invariant
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self) -> Optional[BaseException]:
        """The query's failure, if it has one (drives to completion)."""
        while not self._done:
            if not self._scheduler.step():  # pragma: no cover
                break
        return self._error

    def cancel(self) -> bool:
        """Withdraw the query; returns False when already finished.

        A pending (not yet admitted) query fails immediately; a running
        one fails with :class:`QueryCancelled` at its next turn."""
        if self._done:
            return False
        return self._scheduler.cancel(self)


@dataclass
class _InFlight:
    """One admitted query: its stepper, future and plan-cache entry."""

    session: str
    run: Optional[ProgramRun]
    future: QueryFuture
    entry: Optional[CachedPlan] = None
    steps: int = 0
    extra: dict = field(default_factory=dict)


class SessionScheduler:
    """Fair round-robin interleaving of in-flight queries."""

    def __init__(self, connection):
        self.connection = connection
        self.backend = connection.backend
        #: the backend's ``sessions`` capability (see the Backend
        #: protocol): engines with per-session timelines pipeline;
        #: single-timeline engines (None) fall back to FIFO execution
        self.sessions = self.backend.sessions
        self.pipelined = self.sessions is not None
        self._active: deque[_InFlight] = deque()
        #: queries that hit transient pressure or a node failure while
        #: interleaved; re-run one at a time once the batch drains
        self._retry: deque[_InFlight] = deque()
        #: admission control: submissions held back while the retry
        #: queue drains or the concurrency/memory limits are reached
        self._pending: deque[_InFlight] = deque()
        #: concurrency cap from the engine spec's ``admission=`` param
        #: (0 = unlimited)
        self.admission_limit = connection.config.effective("admission")
        #: optional in-flight memory budget in estimated bytes of bound
        #: base columns (None = off); an over-budget query still runs
        #: once nothing else is in flight
        self.memory_budget: Optional[int] = None
        self._inflight_bytes = 0
        self._counter = 0
        #: (session, op) per executed instruction — fairness introspection
        self.turn_log: list[tuple[str, str]] = []
        self._batch_start: Optional[float] = None
        self._batch_end = 0.0
        self.last_batch_makespan: Optional[float] = None

    def __len__(self) -> int:
        return len(self._active)

    @property
    def idle(self) -> bool:
        """Nothing admitted, parked or waiting for admission."""
        return not (self._active or self._retry or self._pending)

    def counters(self) -> dict:
        """The ``scheduler.*`` metrics namespace."""
        return {
            "parked": sum(1 for _, op in self.turn_log if op == "parked"),
            "turns": len(self.turn_log),
            "in_flight": len(self._active),
            "pending": len(self._pending),
        }

    # -- admission ----------------------------------------------------------

    def submit(self, entry: CachedPlan, name: str = "query",
               timeout: Optional[float] = None,
               program=None, tracer=None) -> QueryFuture:
        """Admit one compiled plan as a new session; returns its future.

        ``program`` is the executable (parameter-bound) program; it
        defaults to the entry's template program.  ``timeout`` is a
        deadline in simulated seconds from admission.  ``tracer`` (a
        :class:`~repro.obs.tracer.Tracer`) records the query's spans;
        the result carries it as ``result.trace``."""
        self._counter += 1
        session = f"s{self._counter}"
        future = QueryFuture(self, session, name)
        flight = _InFlight(session, None, future, entry)
        flight.extra["program"] = (
            program if program is not None else entry.program
        )
        flight.extra["bytes"] = self._estimate_bytes(flight.extra["program"])
        if tracer is not None:
            flight.extra["tracer"] = tracer
        if timeout is not None:
            flight.extra["timeout"] = float(timeout)
        if self._batch_start is None:
            self._batch_start = self._now()
            self._batch_end = self._batch_start
        if self._must_defer() or not self._admits(flight):
            future.submit_epoch = self._now()
            self._pending.append(flight)
        else:
            self._admit(flight)
        return future

    def _must_defer(self) -> bool:
        """New work waits while parked queries (which re-run solo) or
        earlier deferred submissions are owed the machine."""
        if self._retry or self._pending:
            return True
        return any(f.extra.get("retried") for f in self._active)

    def _admits(self, flight: _InFlight) -> bool:
        """Would admitting ``flight`` keep the concurrency and memory
        limits?  An empty machine admits anything (no deadlock on
        oversized queries)."""
        if not self._active:
            return True
        if self.admission_limit and len(self._active) >= self.admission_limit:
            return False
        if self.memory_budget is not None and (
            self._inflight_bytes + flight.extra.get("bytes", 0)
            > self.memory_budget
        ):
            return False
        return True

    def _admit(self, flight: _InFlight) -> None:
        backend = self.backend
        backend.query_boundary()
        try:
            backend.health.admit(backend.label)
        except CircuitOpen as error:
            flight.future._error = error
            flight.future._done = True
            self._maybe_finish_batch()
            return
        if self.pipelined:
            flight.future.submit_epoch = self.sessions.open(
                flight.session, replay=flight.entry.placements
            )
        else:
            flight.future.submit_epoch = self._now()
        if flight.extra.get("timeout") is not None:
            flight.extra["deadline"] = (
                flight.future.submit_epoch + flight.extra["timeout"]
            )
        flight.run = ProgramRun(flight.extra["program"], backend,
                                tracer=self._arm_tracer(flight))
        self._inflight_bytes += flight.extra.get("bytes", 0)
        self._active.append(flight)

    def _arm_tracer(self, flight: _InFlight):
        """Point the flight's tracer (if any) at the right simulated
        clock: the shared pool makespan when sessions pipeline (every
        flight's spans land on one global timeline, as in fig. 9), the
        backend's per-query clock on the FIFO path."""
        tracer = flight.extra.get("tracer")
        if tracer is not None:
            tracer.clock = (self.sessions.makespan if self.pipelined
                            else self.backend.elapsed_now)
        return tracer

    def _admit_pending(self) -> None:
        if self._retry or any(f.extra.get("retried") for f in self._active):
            return
        while self._pending and self._admits(self._pending[0]):
            self._admit(self._pending.popleft())

    def _estimate_bytes(self, program) -> int:
        """Estimated base-column footprint of one program: the summed
        byte size of every persistent column it binds (morsel regions
        included)."""
        from ..monetdb.mal import ColumnRef

        catalog = self.backend.catalog
        seen: set = set()
        total = 0

        def walk(instructions) -> None:
            nonlocal total
            for instruction in instructions:
                for arg in instruction.args:
                    members = getattr(arg, "members", None)
                    if members is not None:
                        walk(members)
                        continue
                    if not isinstance(arg, ColumnRef):
                        continue
                    key = (arg.table, arg.column)
                    if key in seen:
                        continue
                    seen.add(key)
                    try:
                        bat = catalog.bat(arg.table, arg.column)
                    except KeyError:
                        continue
                    total += int(bat.count) * int(bat.values.dtype.itemsize)

        walk(program.instructions)
        return total

    def _now(self) -> float:
        if self.pipelined:
            return self.sessions.makespan()
        return self._batch_end

    # -- cancellation / deadlines ---------------------------------------------

    def cancel(self, future: QueryFuture) -> bool:
        for flight in self._pending:
            if flight.future is future:
                self._pending.remove(flight)
                future._error = QueryCancelled(
                    f"query {future.name!r} cancelled before admission"
                )
                future._done = True
                self._maybe_finish_batch()
                return True
        for flight in list(self._active) + list(self._retry):
            if flight.future is future:
                flight.extra["cancelled"] = True
                return True
        return False

    def _past_deadline(self, flight: _InFlight) -> bool:
        deadline = flight.extra.get("deadline")
        if deadline is None:
            return False
        if not self.pipelined and flight.extra.get("fifo_started"):
            now = self._batch_end + self.backend.elapsed()
        else:
            now = self._now()
        return now > deadline

    # -- the scheduling loop ----------------------------------------------------

    def step(self) -> bool:
        """One fairness turn: advance the next in-flight query by one
        instruction (pipelined) or one whole query (FIFO engines).
        Returns False once nothing is in flight."""
        if not self._active and self._retry:
            self._readmit(self._retry.popleft())
        self._admit_pending()
        if not self._active:
            return False
        flight = self._active.popleft()
        if flight.extra.get("cancelled"):
            self._fail(flight, QueryCancelled(
                f"query {flight.future.name!r} cancelled"
            ))
            return True
        if self._past_deadline(flight):
            self._fail(flight, QueryTimeout(
                f"query {flight.future.name!r} exceeded its "
                f"{flight.extra['timeout']}s deadline"
            ))
            return True
        try:
            if self.pipelined:
                done = self._step_pipelined(flight)
            else:
                done = self._run_fifo(flight)
        except OcelotOOM as error:
            if flight.extra.get("parks", 0) < MAX_PARKS:
                # transient pressure from the *concurrent* working set:
                # park the query and re-run it serially after the batch
                self._park(flight)
            else:
                self._fail(flight, error)
            return True
        except TransientFault as error:
            self._on_transient(flight, error)
            return True
        except Exception as error:
            self._fail(flight, error)
            return True
        if not done:
            if self.pipelined:
                self._active.append(flight)
            else:
                # FIFO engines share one clock: a started query keeps
                # the head slot until it completes
                self._active.appendleft(flight)
        return True

    def drain(self) -> None:
        """Run every in-flight query to completion."""
        while self.step():
            pass

    # -- pipelined (heterogeneous) path ----------------------------------------

    def _step_pipelined(self, flight: _InFlight) -> bool:
        sessions = self.sessions
        sessions.activate(flight.session)
        try:
            op = flight.run.next_op
            more = flight.run.step()
            flight.steps += 1
            self.turn_log.append((flight.session, op))
            if not more:
                self._complete_pipelined(flight)
                return True
            return False
        finally:
            sessions.activate(None)

    def _complete_pipelined(self, flight: _InFlight) -> None:
        sessions = self.sessions
        sessions.activate(flight.session)
        try:
            trace, replayed = sessions.trace()
            if flight.entry is not None:
                flight.entry.placements = trace
                self.connection.plan_cache.stats.placement_reuses += replayed
        finally:
            sessions.activate(None)
        completion = sessions.close(flight.session)
        future = flight.future
        future.completion_epoch = completion
        result = flight.run.collect(completion - future.submit_epoch)
        self._resolve(flight, result, completion)

    # -- FIFO path (single-timeline engines) --------------------------------------

    def _run_fifo(self, flight: _InFlight) -> bool:
        backend = self.backend
        if flight.extra.get("deadline") is None:
            backend.begin()
            flight.run.run()
            self.turn_log.append((flight.session, "query"))
            return self._complete_fifo(flight)
        # with a deadline the query advances stepwise, so the timeout
        # check between turns sees the clock move mid-query
        if not flight.extra.get("fifo_started"):
            backend.begin()
            flight.extra["fifo_started"] = True
        op = flight.run.next_op
        more = flight.run.step()
        flight.steps += 1
        self.turn_log.append((flight.session, op))
        if more:
            return False
        flight.extra.pop("fifo_started", None)
        return self._complete_fifo(flight)

    def _complete_fifo(self, flight: _InFlight) -> bool:
        elapsed = self.backend.elapsed()
        self._batch_end += elapsed
        flight.future.completion_epoch = self._batch_end
        result = flight.run.collect(elapsed)
        self._resolve(flight, result, self._batch_end)
        return True

    # -- transient failures: park / reroute / bounded retry ---------------------

    def _on_transient(self, flight: _InFlight, error: Exception) -> None:
        """A node-level failure: consult the breaker board and either
        retry, re-route around the tripped node, or give up."""
        if flight.entry is not None:
            flight.entry.placements = None
        action = self.backend.note_node_failure(error)
        if action == "fail" or flight.extra.get("parks", 0) >= MAX_PARKS:
            self._fail(flight, error)
            return
        self._park(flight)
        if action == "rerouted":
            # the topology changed: every other in-flight query's
            # partial state and placements predate it — park them all
            # (their park doesn't count against their retry budget)
            while self._active:
                self._park(self._active.popleft(), count=False)

    def _park(self, flight: _InFlight, count: bool = True) -> None:
        if self.pipelined:
            self.sessions.activate(None)
            self.sessions.close(flight.session)
        elif flight.extra.pop("fifo_started", None):
            self._batch_end += self.backend.elapsed()
        # the same release a completed query gets: the half-executed
        # run hands back everything it allocated
        flight.run.close()
        self.turn_log.append((flight.session, "parked"))
        if count:
            flight.extra["parks"] = flight.extra.get("parks", 0) + 1
        flight.extra["retried"] = True
        self._inflight_bytes -= flight.extra.get("bytes", 0)
        self._retry.append(flight)

    def _readmit(self, flight: _InFlight) -> None:
        """Re-run a parked query alone (full device budget), with fresh
        placement scoring — the recorded trace predates the pressure or
        the topology change (``query_boundary`` applies any pending
        node exclusions before the session opens)."""
        backend = self.backend
        backend.query_boundary()
        self._counter += 1
        flight.session = f"s{self._counter}"
        flight.future.session = flight.session
        if self.pipelined:
            flight.future.submit_epoch = self.sessions.open(flight.session)
        else:
            flight.future.submit_epoch = self._now()
        flight.run = ProgramRun(flight.extra["program"], backend,
                                tracer=self._arm_tracer(flight))
        self._inflight_bytes += flight.extra.get("bytes", 0)
        self._active.append(flight)

    # -- completion bookkeeping ------------------------------------------------

    def _resolve(self, flight: _InFlight, result: QueryResult,
                 completion: float) -> None:
        flight.future._result = result
        flight.future._done = True
        self._inflight_bytes -= flight.extra.get("bytes", 0)
        self.backend.health.record_success()
        self.connection._record_query(flight.future.name, result.elapsed)
        self._batch_end = max(self._batch_end, completion)
        self._maybe_finish_batch()

    def _fail(self, flight: _InFlight, error: BaseException) -> None:
        if self.pipelined:
            self.sessions.activate(None)
            self.sessions.close(flight.session)
        elif flight.extra.pop("fifo_started", None):
            self._batch_end += self.backend.elapsed()
        # on every engine: a half-executed query's device intermediates
        # must not outlive it inside the long-lived cached connection
        flight.run.close()
        self._inflight_bytes -= flight.extra.get("bytes", 0)
        flight.future._error = error
        flight.future._done = True
        self._maybe_finish_batch()

    def _maybe_finish_batch(self) -> None:
        if self.idle:
            self._finish_batch()

    def _finish_batch(self) -> None:
        """The queue drained: close out the batch's makespan accounting.

        This is also where a staged re-shard (or a deferred replica
        promotion) completes: in-flight queries executed against the
        old layout, and now that the batch — including any
        mid-migration :meth:`QueryFuture.cancel` — has drained, the
        remaining key ranges migrate and the new layout commits, so no
        partial layout survives the batch."""
        if self._batch_start is not None:
            self.last_batch_makespan = self._batch_end - self._batch_start
        self._batch_start = None
        if self.backend.cluster is not None:
            self.backend.cluster.settle()
