"""MAL interpreter: executes plans against a pluggable operator backend.

The same :class:`~repro.monetdb.mal.MALProgram` runs on any backend — the
two MonetDB baselines or Ocelot — which is exactly the drop-in-replacement
architecture of the paper (§3.1): the rewriter changes module names, the
interpreter stays oblivious.

Execution is operator-at-a-time: each instruction consumes materialised
inputs and produces materialised outputs (for Ocelot, "materialised"
means scheduled on the device with event-tracked buffers; the host only
blocks at ``sync`` points, §3.4).
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bat import BAT
from .mal import MALProgram, Var
from .storage import Catalog


class UnsupportedOperator(LookupError):
    """Backend has no implementation for a MAL operation."""


class Backend(abc.ABC):
    """An operator set + simulated clock, addressable by ``module.fn``.

    This is the formal backend protocol every engine implements — the
    two MonetDB baselines, the single-device Ocelot backends, the
    heterogeneous scheduler and the sharded multi-node engine all plug
    into the same interpreter through it.  A new engine implements the
    three abstract members (``_register_ops``, ``begin``, ``elapsed``);
    every other method has a working default (ARCHITECTURE.md lists
    them and who overrides which).

    What engines do differently is not a method here but one of four
    **capability attributes** holding the object that does it — the
    first two on every backend, the others the object or ``None``
    (callers test ``is not None`` and call the object):

    * :attr:`sessions` — the timeline queries run on as *sessions* and
      the per-query state of each (a :class:`QuerySessions`).  The
      default is a :class:`SerialTimeline` over :meth:`begin` /
      :meth:`elapsed`, one query at a time; HET's device pool and
      SHARD's child clocks overlap sessions;
    * :attr:`health` — the circuit-breaker board;
    * :attr:`memory` — device memory that queries allocate from and
      that is handed back when each ends (a
      :class:`~repro.ocelot.memory.QueryMemory`; Ocelot, HET, and SHARD
      over such children), else ``None``;
    * :attr:`cluster` — an elastic node roster: node count, online
      resize, failover routing, ``cluster.*`` counters (SHARD), else
      ``None``.
    """

    #: configuration label as used in the paper's figures (MS/MP/CPU/GPU).
    label: str = "?"

    #: capability: the Memory Managers behind the engine's queries
    memory = None
    #: capability: the timeline queries run on as sessions; engines
    #: with their own set it before ``Backend.__init__`` runs
    sessions: "QuerySessions | None" = None
    #: capability: the elastic cluster topology
    cluster = None

    #: the active query's :class:`~repro.obs.tracer.Tracer`, or None.
    #: A traced :class:`ProgramRun` points this at its tracer for the
    #: duration of each step, so deeper layers (the morsel runner, the
    #: heterogeneous dispatcher, the shard fan-out) can attach spans
    #: without plumbing a tracer through every call signature.  Checked
    #: with one ``is not None`` per site — the whole cost when off.
    tracer = None

    def __init__(self, catalog: Catalog):
        # imported here: repro.serve's package import needs this module
        from ..serve.resilience import BreakerBoard

        self.catalog = catalog
        #: capability: circuit breakers — one under the key ``"self"``
        #: for the backend as a whole, tiered backends add one per node
        self.health = BreakerBoard()
        if self.sessions is None:
            self.sessions = QuerySessions(QueryState, SerialTimeline(self))
        self._registry: dict[str, Callable] = {}
        self._register_ops()

    # -- registration -------------------------------------------------------

    def register(self, op: str, fn: Callable) -> None:
        self._registry[op] = fn

    @abc.abstractmethod
    def _register_ops(self) -> None:
        """Populate the operator registry."""

    def resolve(self, op: str) -> Callable:
        try:
            return self._registry[op]
        except KeyError:
            raise UnsupportedOperator(
                f"backend {self.label!r} does not implement {op}"
            ) from None

    def supports(self, op: str) -> bool:
        return op in self._registry

    def supported_ops(self) -> list[str]:
        return sorted(self._registry)

    # -- timing -------------------------------------------------------------------

    @abc.abstractmethod
    def begin(self) -> None:
        """Reset the per-query clock."""

    @abc.abstractmethod
    def elapsed(self) -> float:
        """Simulated seconds consumed since :meth:`begin`."""

    def elapsed_now(self) -> float:
        """Read the per-query clock **without** synchronising.

        ``elapsed()`` may be a sync point (Ocelot's joins the device
        queue like ``clFinish``, flooring subsequent commands), which
        is correct at a query boundary but would perturb the simulated
        schedule if read mid-flight.  The tracer samples this instead:
        backends whose timelines can run ahead override it with a pure
        observation so tracing never changes query timings."""
        return self.elapsed()

    def counters(self) -> dict:
        """The engine's counters as ``{namespace: stats}``, the one feed
        :class:`~repro.obs.metrics.MetricsRegistry` flattens into
        ``Connection.metrics``.  ``stats`` is a dataclass instance
        (every field becomes ``<namespace>.<field>``) or a flat
        mapping.  The default reports the storage this backend reads
        (``compress``) and the :attr:`memory` capability's managers
        (``mm``); engines add the namespaces of what else they own
        (``interconnect``, ``cluster``)."""
        out = {"compress": self.catalog.compression}
        if self.memory is not None:
            out["mm"] = self.memory.counters()
        return out

    def query_overhead_s(self) -> float:
        """Fixed per-query framework cost charged by the *last* query.

        Benchmarks in operator-timing mode (paper §5.2) subtract this so
        microbenchmark points measure the operator, not the SDK.  The
        MonetDB baselines charge none; Ocelot backends report their
        device's (or, for the heterogeneous scheduler, devices') share.
        """
        return 0.0

    # -- between queries ------------------------------------------------------

    def query_boundary(self) -> None:
        """Hook: called by the serving layer between queries.

        Advances the breaker clock (cooldowns are measured in query
        boundaries, not wall time).  Tiered backends extend this to
        re-admit nodes whose breakers allow a probe again; topology
        changes — a sharded backend excluding or re-including a shard —
        happen only here, never mid-query.
        """
        self.health.tick()

    def note_node_failure(self, error) -> str:
        """Record a transient failure against the responsible breaker.

        Returns the serving layer's next move: ``"retry"`` (same
        topology), ``"rerouted"`` (the node was taken out of service —
        re-run on what is left), or ``"fail"`` (no healthy
        topology remains; surface the error).  The single-node default
        charges the backend's own breaker: while it stays closed the
        query may retry, once it trips there is nowhere to route.
        """
        breaker = self.health.breaker("self")
        breaker.record_failure()
        if not breaker.allow():
            return "fail"
        return "retry"

    def release_intermediates(self, values) -> None:
        """Recycle values whose last consumer has run.

        The interpreter's liveness pass and the morsel executor call
        this as soon as a variable goes dead — mid-query — and
        :meth:`ProgramRun.close` once more when the query is over
        (finished, failed or cancelled) with every variable it still
        holds, result columns included (they were collected to the
        host first).  The default recycles non-base BATs through the
        catalog's recycle callbacks (which the Ocelot Memory Managers
        subscribe to; idempotent); the sharded engine unwraps its
        values and defers parts a lazy merge has yet to read.  What the
        query allocated on a device and never put in a variable is
        swept afterwards through the :attr:`memory` capability.
        """
        for value in values:
            if isinstance(value, BAT) and not value.is_base:
                self.catalog.notify_recycled(value)

    # -- morsel-driven execution -------------------------------------------------

    def morsel_scope(self):
        """Context manager entered around each morsel of a region.

        The heterogeneous scheduler pins every dispatch inside the scope
        to the least-loaded device, making the morsel its work-stealing
        unit; plain backends need no scoping."""
        return contextlib.nullcontext()

    def slice_base(self, bat: BAT, lo: int, hi: int) -> BAT:
        """Cached view of rows ``[lo, hi)`` of a host-resident BAT: the
        catalog's (:meth:`Catalog.slice`, which device partitions share).
        A slice of a persistent column counts as base storage like the
        column (:func:`~repro.monetdb.partials.slice_rows`)."""
        return self.catalog.slice(bat, lo, hi)

    # -- lifecycle ----------------------------------------------------------------

    def schema_changed(self) -> bool:
        """Hook: the owning database ran DDL against the catalog.

        Stateless backends need nothing (they read the catalog on every
        bind); backends holding derived schema state — e.g. the sharded
        engine's per-shard catalogs — resynchronise here, and return
        True when that moved rows of a table that existed before: the
        statements in flight read the old layout and must re-run."""
        return False

    def shutdown(self) -> None:
        """Hook: the owning connection closed; release device state."""

    # -- result collection ----------------------------------------------------------

    def collect(self, value) -> np.ndarray:
        """Materialise one result column on the host.

        Scalars (ungrouped aggregates) become one-row columns."""
        if isinstance(value, BAT):
            return value.values
        return np.atleast_1d(np.asarray(value))

    def collect_results(self, result_columns, resolve) -> dict[str, np.ndarray]:
        """Materialise the whole result set on the host.

        ``result_columns`` is the program's ordered (name, Var) list and
        ``resolve`` maps a Var to its runtime value.  The default
        collects column by column; backends whose result merge needs
        cross-column context (the sharded engine aligns grouped partials
        by key across every column) override this instead of
        :meth:`collect`."""
        return {
            name: self.collect(resolve(var)) for name, var in result_columns
        }


@dataclass
class QueryState:
    """What every engine keeps per query.  Engines subclass it with
    their own per-query fields."""

    #: the session's completion epoch once it closed
    completed: "float | None" = None


class SerialTimeline:
    """The default timeline: the backend's own ``begin()``/``elapsed()``
    clock, one query at a time.

    A timeline is where queries run as sessions.  ``open_session``
    returns a session's submit epoch, ``set_session`` attributes the
    work that follows to it (``None``: to nobody), ``session_time`` is
    how far it has got — read without synchronising — and
    ``close_session`` returns its ``(completion epoch, elapsed
    seconds)``; ``makespan`` is the shared frontier.  :attr:`overlaps`
    says whether sessions opened together can run at the same simulated
    time — an observed property of the engine, and the one thing the
    session scheduler asks: it admits one flight at a time where they
    cannot.  Here opening *is* ``begin()``, the price *is*
    ``elapsed()``, and epochs are the running sum of the prices."""

    overlaps = False

    def __init__(self, backend: Backend):
        self.backend = backend
        self._epoch = 0.0

    def open_session(self, session: str) -> float:
        self.backend.begin()
        return self._epoch

    def set_session(self, session: "str | None") -> None:
        pass

    def session_time(self, session: str) -> float:
        return self._epoch + self.backend.elapsed_now()

    def close_session(self, session: str) -> tuple[float, float]:
        elapsed = self.backend.elapsed()
        self._epoch += elapsed
        return self._epoch, elapsed

    def makespan(self) -> float:
        return self._epoch


class QuerySessions:
    """The ``sessions`` capability: the queries in flight on an
    engine's timeline, and the per-query state of each.

    Whoever drives a query — the session scheduler, :func:`run_program`
    — calls :meth:`open` for a session, :meth:`activate` around every
    step and :meth:`close` for the price.  Each session owns a fresh
    instance of the engine's state dataclass (``new_state()``, a
    :class:`QueryState`); :attr:`current` is the one dispatches read
    and write — the active session's, and after it closed still the
    last query's, which is what ``query_overhead_s()`` and the decision
    logs report.  (An engine driven directly through ``begin()`` — a
    shard's child, a unit test — has no session: its ``begin()`` puts a
    fresh state there itself.)  ``timeline`` is the engine's simulated
    clocks; :class:`SerialTimeline` documents the protocol.
    """

    def __init__(self, new_state, timeline):
        self._new_state = new_state
        self.timeline = timeline
        #: session name -> state of every open session
        self.open_states: dict = {}
        self.active: "str | None" = None
        self.current = new_state()

    def open(self, session: str) -> float:
        """Register one in-flight query; returns its submit epoch."""
        self.open_states[session] = self._new_state()
        return self.timeline.open_session(session)

    def activate(self, session: "str | None") -> None:
        """Attribute subsequent dispatches (and their simulated time) to
        ``session``; ``None`` detaches the timeline between turns."""
        self.active = session
        if session is not None:
            self.current = self.open_states[session]
        self.timeline.set_session(session)

    def close(self, session: str) -> tuple[float, float]:
        """Drop a query's session; returns its ``(completion epoch,
        elapsed seconds)``.  Closing twice is harmless."""
        state = self.open_states.get(session)
        if state is None:
            return self.timeline.makespan(), 0.0
        if self.active == session:
            self.activate(None)
        state.completed, elapsed = self.timeline.close_session(session)
        del self.open_states[session]
        return state.completed, elapsed

    def clock(self, session: str):
        """A tracer's clock for ``session``: how far it has got (read
        without synchronising) and, once closed, where it ended — what
        the query does after its price was taken is not on it."""
        state = self.open_states[session]
        return lambda: (self.timeline.session_time(session)
                        if state.completed is None else state.completed)


@dataclass
class QueryResult:
    """Result set plus simulated timing and execution statistics."""

    columns: dict[str, np.ndarray]
    elapsed: float
    backend: str
    program: MALProgram
    instruction_count: int = 0
    #: the result-column variables' runtime values (nothing else of
    #: the plan's environment: holding a result pins only its columns)
    env: dict = field(default_factory=dict)
    #: the query's :class:`~repro.obs.tracer.Tracer` when it ran traced
    #: (``trace=on`` spec / ``REPRO_TRACE`` / ``analyze=True``), else None
    trace: object = None

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class ProgramRun:
    """Stepwise execution of one program: one instruction per step.

    Whoever drives it opened a session on the backend's timeline
    first: the serve layer's session scheduler (see ARCHITECTURE.md)
    interleaves the ``step()`` calls of the queries in flight
    round-robin, which is what lets independent queries overlap on the
    heterogeneous pool's per-device timelines; ``run_program`` steps
    one to the end without a connection.  Each run owns its private
    variable environment, so concurrent queries are isolated by
    construction.

    The run *is* the query as far as device memory goes: before every
    step it claims the backend's ``memory`` capability, so whatever the
    step allocates is owned by this run, and :meth:`close` — reached
    through :meth:`collect` on success, called by whoever drives the
    run on failure or cancel — hands all of it back.  The liveness pass
    (:meth:`_release_dead`) only makes that happen earlier.
    """

    def __init__(self, program: MALProgram, backend: Backend,
                 tracer=None):
        self.program = program
        self.backend = backend
        #: optional per-query tracer; the caller installs its session's
        #: clock on it before constructing the run
        #: (:meth:`QuerySessions.clock`)
        self.tracer = tracer
        self._root_span = None
        self._instr_span = None
        self._instr_pc = -1
        self.env: dict[str, object] = {}
        self._pc = 0
        self._morsel_run = None
        self._closed = False
        # liveness: a variable dies after its last static use; result
        # columns stay live until collection
        result_vars = {var.name for _, var in program.result_columns}
        self._dies_at: dict[str, int] = {}
        for index, instruction in enumerate(program.instructions):
            for arg in instruction.var_args():
                if arg.name not in result_vars:
                    self._dies_at[arg.name] = index
        self._released: set[str] = set()

    @property
    def done(self) -> bool:
        return self._pc >= len(self.program.instructions)

    @property
    def next_op(self) -> str | None:
        """The operation the next ``step()`` will execute."""
        if self.done:
            return None
        return self.program.instructions[self._pc].op

    def resolve_arg(self, arg):
        if isinstance(arg, Var):
            try:
                return self.env[arg.name]
            except KeyError:
                raise NameError(
                    f"{self.program.name}: variable {arg.name} used "
                    f"before assignment"
                ) from None
        return arg

    def step(self) -> bool:
        """Execute the next unit of work; returns False when exhausted.

        One unit is one instruction — except for ``morsel.run``, where
        each step advances the region by a single morsel, so pipelined
        schedulers interleave queries at morsel granularity."""
        if self.done:
            return False
        self._claim()
        if self.tracer is not None:
            return self._step_traced()
        return self._advance(self.program.instructions[self._pc])

    def _advance(self, instruction) -> bool:
        """Run ``instruction`` — the one at ``_pc`` — or one morsel of
        it; returns whether work remains."""
        if instruction.op != "morsel.run":
            fn = self.backend.resolve(instruction.op)
            out = fn(*[self.resolve_arg(a) for a in instruction.args])
        else:
            out = self._step_morsel(instruction)
            if out is None:
                return True
        self._assign(instruction, out)
        self._release_dead(self._pc)
        self._pc += 1
        return not self.done

    def _step_traced(self) -> bool:
        """One step with span bookkeeping (``self.tracer`` is set).

        Each instruction gets one span named after its op; a
        ``morsel.run`` instruction's span stays open across the steps
        that advance it morsel by morsel, with the per-morsel spans
        nested inside.  The tracer is exposed as ``backend.tracer`` for
        the step's duration so deeper layers (dispatch, shard fan-out)
        attach child spans."""
        tracer = self.tracer
        if self._root_span is None:
            tracer.wall_s = None
            self._root_span = tracer.begin(
                "query", cat="query", engine=self.backend.label,
                query=self.program.name,
            )
        pc = self._pc
        instruction = self.program.instructions[pc]
        span = self._instr_span
        if span is None or self._instr_pc != pc:
            span = tracer.begin(instruction.op, cat="instruction")
            self._instr_span, self._instr_pc = span, pc
        previous = self.backend.tracer
        self.backend.tracer = tracer
        try:
            return self._advance(instruction)
        finally:
            self.backend.tracer = previous
            if self._pc != pc:
                self._close_instruction_span(instruction, span)

    def _close_instruction_span(self, instruction, span) -> None:
        from ..obs.tracer import describe_value

        args = {}
        if instruction.results:
            out = self.env.get(instruction.results[0].name)
            if out is not None:
                args = {
                    key: value
                    for key, value in describe_value(out).items()
                    if value is not None
                }
        if instruction.op == "sql.bind":
            ref = instruction.args[0]
            span.args.setdefault("column", f"{ref.table}.{ref.column}")
        # single-device engines have no deeper placement spans; label
        # the instruction itself so the profile's device column fills
        if not any("device" in child.args for child in span.walk()):
            span.args["device"] = self.backend.label
        self.tracer.end(span, **args)
        self._instr_span = None

    def _assign(self, instruction, out) -> None:
        results = instruction.results
        if len(results) == 1:
            self.env[results[0].name] = out
        elif results:
            if not isinstance(out, tuple) or len(out) != len(results):
                raise TypeError(
                    f"{instruction.op} returned {type(out).__name__}, "
                    f"expected {len(results)} results"
                )
            for var, value in zip(results, out):
                self.env[var.name] = value

    def _step_morsel(self, instruction):
        """Advance an in-flight morsel region by one morsel; its outputs
        once the last one ran, else None."""
        if self._morsel_run is None:
            from ..morsel.run import MorselRun

            spec = instruction.args[0]
            inputs = [self.resolve_arg(a) for a in instruction.args[1:]]
            self._morsel_run = MorselRun(self.backend, spec, inputs)
        if self._morsel_run.step():
            return None
        outputs = self._morsel_run.outputs
        self._morsel_run = None
        return outputs if len(instruction.results) != 1 else outputs[0]

    def _release_dead(self, index: int) -> None:
        """Recycle every variable whose last static use just ran."""
        dying = [
            name for name, death in self._dies_at.items()
            if death == index and name not in self._released
            and name in self.env
        ]
        if not dying:
            return
        self._released.update(dying)
        live = [
            value for name, value in self.env.items()
            if name not in self._released
        ]
        dead = []
        for name in dying:
            # dead names leave the environment so end-of-query recycling
            # never re-notifies what was already released here
            value = self.env.pop(name)
            # an alias may still be live under another name (``sync``
            # returns its argument): never release a live object
            if any(value is alive for alive in live):
                continue
            dead.append(value)
        if dead:
            self.backend.release_intermediates(dead)

    def run(self) -> None:
        while self.step():
            pass

    def _claim(self) -> None:
        memory = self.backend.memory
        if memory is not None:
            memory.claim(self)

    def close(self) -> None:
        """The query is over: everything it still holds is released —
        the environment through the liveness release
        (``release_intermediates``), then whatever device memory the
        run owns and no variable names.  Idempotent; the one release
        path of success, failure and cancel."""
        if self._closed:
            return
        self._closed = True
        self._morsel_run = None
        try:
            self.backend.release_intermediates(list(self.env.values()))
        finally:
            memory = self.backend.memory
            if memory is not None:
                memory.end_query(self)

    def collect(self, elapsed: float) -> QueryResult:
        """Materialise the result set on the host, then :meth:`close`."""
        self._claim()
        columns = self.backend.collect_results(
            self.program.result_columns, self.resolve_arg
        )
        result_env = {
            var.name: self.env[var.name]
            for _, var in self.program.result_columns
        }
        self.close()
        if self.tracer is not None:
            if self._root_span is not None:
                self.tracer.end(self._root_span)
            self.tracer.close_open()
            self.tracer.wall_s = elapsed
        return QueryResult(
            columns=columns,
            elapsed=elapsed,
            backend=self.backend.label,
            program=self.program,
            instruction_count=len(self.program.instructions),
            env=result_env,
            trace=self.tracer,
        )


#: the session :func:`run_program` runs its query as
LONE_SESSION = "run"


def run_program(program: MALProgram, backend: Backend,
                tracer=None) -> QueryResult:
    """Interpret ``program`` on ``backend`` and collect its result set:
    the connection-less driver — one session opened on the backend's
    timeline, run to completion and closed for its price, exactly the
    calls the session scheduler makes for a lone flight.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) turns on span
    recording for this query, on the session's simulated clock."""
    sessions = backend.sessions
    sessions.open(LONE_SESSION)
    sessions.activate(LONE_SESSION)
    if tracer is not None:
        tracer.clock = sessions.clock(LONE_SESSION)
    run = ProgramRun(program, backend, tracer=tracer)
    try:
        run.run()
        _completion, elapsed = sessions.close(LONE_SESSION)
        return run.collect(elapsed)
    finally:
        run.close()
        sessions.close(LONE_SESSION)
