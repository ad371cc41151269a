"""The session scheduler: every query of a connection is one of its
flights — ``submit()`` returns the flight's future, ``execute()`` is
``submit().result()``.

One :class:`SessionScheduler` serves one :class:`~repro.api.Connection`.
Admitting a compiled plan opens a *session* on the backend's timeline
(the ``sessions`` capability every backend has) — one in-flight query
with its own interpreter environment, its own per-query engine state and
its own clock — and the scheduler interleaves the sessions **one MAL
instruction per turn, round-robin** (no query can starve another).
Closing the session yields the query's price, so a query costs the same
alone or in a batch of one, whichever call submitted it.

Whether several flights are in the air at once is the timeline's to say
(``timeline.overlaps``), and the only thing the scheduler asks it.  On
HET, cross-device sync points are session-scoped (see
:meth:`repro.cl.queue.CommandQueue.advance_session_to`), so a query on
the GPU's queue and one on the CPU's overlap in simulated time — N
independent queries finish in less makespan than run serially — while
same-device work still serialises in order on the shared queue.  On a
serial timeline (MS/MP/CPU/GPU: there is no second queue to overlap
onto) the flights take the machine one at a time, in submission order.

The scheduler is also the serving tier's **admission controller**:

* a per-connection concurrency cap (the engine spec's ``admission=``
  parameter) and an optional memory budget
  (:attr:`SessionScheduler.memory_budget`, bytes of estimated base-
  column footprint) hold excess submissions in a pending queue;
* queries that hit device memory pressure park and re-run alone after
  the batch, with **bounded** re-parks (:data:`MAX_PARKS`) so a
  persistently failing query terminates with its original error;
* while parked queries wait, *new* submissions are held back too — the
  retry queue drains first, so a steady arrival stream cannot starve a
  parked query;
* transient node failures (:class:`~repro.serve.faults.TransientFault`)
  are reported to the backend's circuit breakers
  (``note_node_failure``): a tripped breaker takes the sick node out
  of service, every in-flight query is parked (its partial state
  predates the topology change) and
  re-run against the healthy remainder; a DDL that re-slices a table
  the sharded layout already held parks them the same way
  (:meth:`SessionScheduler.park_in_flight`);
* ``submit(timeout=...)`` sets a deadline in simulated seconds and
  :meth:`QueryFuture.cancel` withdraws a query — both enforced
  cooperatively at turn granularity (one morsel inside a ``morsel.run``).

Execution is cooperative and single-threaded: ``QueryFuture.result()``
or ``SessionScheduler.drain()`` drive the interleaving.  Results are
isolated by construction (per-run variable environments; base columns
are immutable) — property-tested under device memory pressure in
``tests/property/test_serve_properties.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..monetdb.interpreter import ProgramRun, QueryResult
from ..ocelot.memory import OcelotOOM
from .faults import TransientFault
from .plancache import CachedPlan
from .resilience import CircuitOpen

#: how often one query may park (OOM or transient fault) before its
#: failure is surfaced instead of retried
MAX_PARKS = 3
#: turns :attr:`SessionScheduler.turn_log` remembers
TURN_LOG = 1024


class QueryTimeout(RuntimeError):
    """The query ran past its ``submit(timeout=...)`` deadline."""


class QueryCancelled(RuntimeError):
    """The query was withdrawn via :meth:`QueryFuture.cancel`."""


class QueryFuture:
    """Handle to one submitted query; resolves when the scheduler has
    run the query to completion."""

    def __init__(self, scheduler: "SessionScheduler", name: str):
        self._scheduler = scheduler
        #: the session of the latest attempt ("" until admitted)
        self.session = ""
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
    """One submitted query: its plan, its future (which names its
    session) and — while admitted — its stepper."""

    future: QueryFuture
    program: object
    tracer: object = None
    #: simulated seconds allowed from admission, and the epoch they end
    timeout: Optional[float] = None
    deadline: Optional[float] = None
    #: estimated base-column bytes (0 unless a memory budget is set)
    nbytes: int = 0
    run: Optional[ProgramRun] = None
    parks: int = 0
    retried: bool = False
    cancelled: bool = False


class SessionScheduler:
    """Fair round-robin interleaving of in-flight queries."""

    def __init__(self, connection):
        self.connection = connection
        self._active: deque[_InFlight] = deque()
        #: queries that hit transient pressure or a node failure; re-run
        #: one at a time once the batch drains
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
        #: the latest :data:`TURN_LOG` turns as (session, op), for
        #: introspection; :attr:`turns` and :attr:`parked` count all
        self.turn_log: deque[tuple[str, str]] = deque(maxlen=TURN_LOG)
        self.turns = 0
        self.parked = 0
        self._batch_start: Optional[float] = None
        self._batch_end = 0.0
        self.last_batch_makespan: Optional[float] = None

    @property
    def backend(self):
        """The connection's backend, read live (the fault harness swaps
        it under a connection)."""
        return self.connection.backend

    def __len__(self) -> int:
        return len(self._active)

    @property
    def idle(self) -> bool:
        """Nothing admitted, parked or waiting for admission."""
        return not (self._active or self._retry or self._pending)

    def counters(self) -> dict:
        """The ``scheduler.*`` metrics namespace."""
        return {
            "parked": self.parked,
            "turns": self.turns,
            "in_flight": len(self._active),
            "pending": len(self._pending),
        }

    def _log(self, session: str, op: str) -> None:
        self.turns += 1
        self.turn_log.append((session, op))

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
        if program is None:
            program = entry.program
        future = QueryFuture(self, name)
        flight = _InFlight(future, program, tracer=tracer)
        if timeout is not None:
            flight.timeout = float(timeout)
        if self.memory_budget is not None:
            flight.nbytes = self._estimate_bytes(program)
        if self._batch_start is None:
            self._batch_start = self._batch_end = \
                self.backend.sessions.timeline.makespan()
        self._pending.append(flight)
        self._admit_pending()
        return future

    def _admits(self, flight: _InFlight) -> bool:
        """Would admitting ``flight`` keep the timeline's, the
        concurrency and the memory limits?  An empty machine admits
        anything (no deadlock on oversized queries); a timeline whose
        sessions cannot overlap runs one flight at a time."""
        if not self._active:
            return True
        if not self.backend.sessions.timeline.overlaps:
            return False
        if self.admission_limit and len(self._active) >= self.admission_limit:
            return False
        return self.memory_budget is None or (
            self._inflight_bytes + flight.nbytes <= self.memory_budget
        )

    def _admit(self, flight: _InFlight) -> None:
        backend = self.backend
        backend.query_boundary()
        try:
            backend.health.admit(backend.label)
        except CircuitOpen as error:
            self._refuse(flight.future, error)
            return
        self._open(flight)
        if flight.timeout is not None:
            flight.deadline = flight.future.submit_epoch + flight.timeout

    def _open(self, flight: _InFlight) -> None:
        """Open ``flight``'s session (a fresh one per attempt) and put
        it in the rotation."""
        backend = self.backend
        self._counter += 1
        session = flight.future.session = f"s{self._counter}"
        flight.future.submit_epoch = backend.sessions.open(session)
        tracer = flight.tracer
        if tracer is not None:
            tracer.clock = backend.sessions.clock(session)
            tracer.event(
                "admission", cat="admission", attempt=flight.parks,
                breakers={b.name: b.state for b in backend.health},
            )
        flight.run = ProgramRun(flight.program, backend, tracer=tracer)
        self._inflight_bytes += flight.nbytes
        self._active.append(flight)

    def _admit_pending(self) -> None:
        """Admit waiting submissions in order, as far as the limits go
        — none while parked queries (which re-run solo) are owed the
        machine."""
        if self._retry or any(f.retried for f in self._active):
            return
        while self._pending and self._admits(self._pending[0]):
            self._admit(self._pending.popleft())

    def _estimate_bytes(self, program) -> int:
        """Estimated base-column footprint of one program: the summed
        byte size of every persistent column it binds (morsel regions
        included)."""
        from ..monetdb.mal import ColumnRef

        columns: set = set()

        def walk(instructions) -> None:
            for instruction in instructions:
                for arg in instruction.args:
                    if isinstance(arg, ColumnRef):
                        columns.add((arg.table, arg.column))
                    else:
                        walk(getattr(arg, "members", ()))

        walk(program.instructions)
        catalog = self.backend.catalog
        total = 0
        for table, column in columns:
            try:
                bat = catalog.bat(table, column)
            except KeyError:
                continue
            total += int(bat.count) * int(bat.values.dtype.itemsize)
        return total

    # -- cancellation / deadlines ---------------------------------------------

    def cancel(self, future: QueryFuture) -> bool:
        for flight in self._pending:
            if flight.future is future:
                self._pending.remove(flight)
                self._refuse(future, QueryCancelled(
                    f"query {future.name!r} cancelled before admission"
                ))
                return True
        for flight in list(self._active) + list(self._retry):
            if flight.future is future:
                flight.cancelled = True
                return True
        return False

    # -- the scheduling loop ----------------------------------------------------

    def step(self) -> bool:
        """One fairness turn: advance the next in-flight query by one
        instruction (one morsel inside a ``morsel.run``).  Returns False
        once nothing is in flight."""
        if not self._active and self._retry:
            flight = self._retry.popleft()
            # re-run a parked query alone (full device budget)
            # (``query_boundary`` applies any pending node exclusions
            # before the session opens)
            self.backend.query_boundary()
            self._open(flight)
        if self._pending:
            self._admit_pending()
        if not self._active:
            return False
        flight = self._active.popleft()
        try:
            if flight.cancelled:
                raise QueryCancelled(
                    f"query {flight.future.name!r} cancelled"
                )
            if flight.deadline is not None and flight.deadline < \
                    self.backend.sessions.timeline.session_time(
                        flight.future.session):
                raise QueryTimeout(
                    f"query {flight.future.name!r} exceeded its "
                    f"{flight.timeout}s deadline"
                )
            done = self._step(flight)
        except OcelotOOM as error:
            if flight.parks < MAX_PARKS:
                # transient pressure from the *concurrent* working set:
                # park the query and re-run it serially after the batch
                self._park(flight)
            else:
                self._fail(flight, error)
        except TransientFault as error:
            self._on_transient(flight, error)
        except Exception as error:
            self._fail(flight, error)
        else:
            if not done:
                self._active.append(flight)
        return True

    def drain(self) -> None:
        """Run every in-flight query to completion."""
        while self.step():
            pass

    def _step(self, flight: _InFlight) -> bool:
        """Advance ``flight`` by one unit of work on its own session;
        True when that completed it."""
        sessions = self.backend.sessions
        session = flight.future.session
        sessions.activate(session)
        try:
            op = flight.run.next_op
            more = flight.run.step()
            self._log(session, op)
            if more:
                return False
            self._complete(flight)
            return True
        finally:
            sessions.activate(None)

    def _complete(self, flight: _InFlight) -> None:
        """The last step ran (the session is still active): close the
        session for the query's price, collect."""
        future = flight.future
        completion, elapsed = self.backend.sessions.close(future.session)
        future.completion_epoch = completion
        future._result = flight.run.collect(elapsed)
        future._done = True
        self._inflight_bytes -= flight.nbytes
        self.backend.health.record_success()
        self.connection.metrics.record_query(future.name, elapsed)
        self._batch_end = max(self._batch_end, completion)
        self._maybe_finish_batch()

    # -- transient failures: park / reroute / bounded retry ---------------------

    def _on_transient(self, flight: _InFlight, error: Exception) -> None:
        """A node-level failure: consult the breaker board and either
        retry, re-route around the tripped node, or give up."""
        action = self.backend.note_node_failure(error)
        if action == "fail" or flight.parks >= MAX_PARKS:
            self._fail(flight, error)
            return
        self._park(flight)
        if action == "rerouted":
            self.park_in_flight()

    def park_in_flight(self) -> None:
        """The layout under every in-flight query moved — a node was
        routed around, or a DDL re-sliced a table they may read: their
        partial state predates it, so park them all to
        re-run against the new one (not counted against their retry
        budget)."""
        while self._active:
            self._park(self._active.popleft(), count=False)

    def _close(self, flight: _InFlight) -> None:
        """End a flight that will not complete: its session closes and
        the half-executed run hands back everything it allocated, as a
        completed query does — nothing of it may outlive it inside the
        long-lived cached connection."""
        self.backend.sessions.close(flight.future.session)
        flight.run.close()
        self._inflight_bytes -= flight.nbytes

    def _park(self, flight: _InFlight, count: bool = True) -> None:
        self._close(flight)
        self.parked += 1
        self._log(flight.future.session, "parked")
        if count:
            flight.parks += 1
        flight.retried = True
        self._retry.append(flight)

    def _fail(self, flight: _InFlight, error: BaseException) -> None:
        self._close(flight)
        self._refuse(flight.future, error)

    def _refuse(self, future: QueryFuture, error: BaseException) -> None:
        future._error = error
        future._done = True
        self._maybe_finish_batch()

    # -- batch bookkeeping -------------------------------------------------------

    def _maybe_finish_batch(self) -> None:
        """The queue drained: close out the batch's makespan accounting.

        This is also where a queued roster (a re-shard, a rejoin) or a
        deferred replica promotion lands: in-flight queries executed
        against the installed layout, and now that the batch —
        including any :meth:`QueryFuture.cancel` — has drained, the new
        one is installed, so no queued layout outlives the batch."""
        if not self.idle:
            return
        if self._batch_start is not None:
            self.last_batch_makespan = self._batch_end - self._batch_start
        self._batch_start = None
        if self.backend.cluster is not None:
            self.backend.cluster.settle()
