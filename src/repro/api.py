"""Public façade: a small embedded-database API over the whole stack.

(The layer map — what sits between this module and the simulated
devices — is documented in ARCHITECTURE.md.)

    >>> import numpy as np
    >>> import repro
    >>> db = repro.Database()
    >>> db.create_table("points", {
    ...     "x": np.array([0, 1, 0, 1], dtype=np.int32),
    ...     "y": np.array([1.5, 2.0, 0.5, 1.0], dtype=np.float32),
    ... })
    >>> con = db.connect("CPU")
    >>> result = con.execute("SELECT x, sum(y) AS total FROM points GROUP BY x")
    >>> result.column("total")
    array([2., 3.])

A :class:`Database` owns the catalog; :meth:`connect` takes an **engine
spec** resolved through the engine registry (:mod:`repro.engines`) —
the paper's four configurations ("MS", "MP", "CPU", "GPU"), "HET" (the
heterogeneous scheduler owning *both* simulated devices, paper §7
future work), and composite engines such as ``"SHARD:4xHET"`` (four
simulated nodes, each running HET, with tables partitioned across them
— :mod:`repro.shard`).  New engine families plug in with
:func:`repro.register_engine`; specs are case-insensitive and
canonicalised, and misspelled specs raise an error listing what is
registered.

``execute`` parses SQL, lowers it to MAL, applies the configuration's
optimizer pipeline (the Ocelot rewriter for CPU/GPU/HET) and interprets
the plan.  Compiled plans are memoised in a per-database *plan cache*
(:mod:`repro.serve`): repeating a statement skips parse, rewrite and —
on HET — per-instruction placement scoring, and the counters show it:

    >>> _ = con.execute("SELECT x, sum(y) AS total FROM points GROUP BY x")
    >>> con.plan_cache.stats.hits >= 1
    True

``submit`` returns a :class:`~repro.serve.session.QueryFuture` served
by the connection's fair round-robin session scheduler, which on the HET
engine overlaps independent queries across the device pool's per-device
timelines — and ``execute`` is ``submit(...).result()``, so a query
costs the same simulated time through either:

    >>> f1 = con.submit("SELECT sum(y) AS s FROM points WHERE x = 0")
    >>> f2 = con.submit("SELECT sum(y) AS s FROM points WHERE x = 1")
    >>> float(f1.result().column("s")[0]), float(f2.result().column("s")[0])
    (2.0, 3.0)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .engines import default_registry
from .monetdb.interpreter import QueryResult
from .monetdb.mal import MALProgram
from .monetdb.storage import Catalog
from .serve.plancache import CachedPlan, PlanCache
from .serve.session import QueryFuture, SessionScheduler
from .sql.lower import SchemaProvider


class CatalogSchema(SchemaProvider):
    """Schema provider over a live catalog, with optional dictionaries."""

    def __init__(self, catalog: Catalog,
                 dictionaries: Optional[dict] = None):
        self.catalog = catalog
        #: (table, column) -> dictionary name, plus name -> values list
        self.column_dicts: dict[tuple, str] = {}
        self.dictionaries: dict[str, list] = dict(dictionaries or {})

    def has_table(self, table: str) -> bool:
        return self.catalog.has_table(table)

    def columns(self, table: str) -> list[str]:
        return self.catalog.columns(table)

    def dictionary(self, table: str, column: str):
        return self.column_dicts.get((table, column))

    def dictionary_code(self, dictionary: str, literal: str) -> int:
        try:
            return self.dictionaries[dictionary].index(literal)
        except (KeyError, ValueError):
            raise LookupError(
                f"literal {literal!r} not in dictionary {dictionary!r}"
            ) from None


class Connection:
    """One resolved engine spec bound to a database.

    The connection owns a live backend (device contexts, memory-manager
    caches, autotuned profiles) and shares the database's plan cache —
    both stay warm across queries, which is why connections are cached
    per canonical engine spec on the :class:`Database` and should be
    reused.  Connections are context managers; :meth:`close` drains any
    in-flight sessions and releases the backend's device buffers.
    """

    def __init__(self, database: "Database", engine: str):
        self.database = database
        self.config = default_registry.resolve(engine)
        self.backend = self.config.make(
            database.catalog, database.data_scale
        )
        #: shared per-database cache of compiled/rewritten/placed plans
        self.plan_cache: PlanCache = database.plan_cache
        self._scheduler: Optional[SessionScheduler] = None
        self._metrics = None
        self._closed = False

    @property
    def engine(self) -> str:
        """The canonical engine spec (e.g. ``"CPU"``, ``"SHARD:4xHET"``)."""
        return self.config.spec

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"connection {self.engine!r} is closed; reconnect with "
                f"Database.connect({self.engine!r})"
            )

    # -- execution: every statement is a flight of the session scheduler ------

    def execute(self, sql: str, name: str = "query",
                analyze: bool = False) -> QueryResult:
        """Parse, lower, optimize and run one SQL statement:
        ``submit(...).result()`` without a deadline — a one-flight
        batch, or one more flight of the batch already in the air.

        Statements are parsed once and auto-parameterised: every literal
        of the syntax tree becomes a bind parameter, and the plan cache
        keys on that tree's serialisation, so every literal variation of
        one query shape is a cache hit against a single template plan
        (values are substituted into a bound copy at execute time).
        Malformed SQL raises :class:`~repro.sql.SQLSyntaxError` at an
        offset into ``sql`` as submitted.

        ``analyze=True`` forces tracing on for this statement regardless
        of the spec's ``trace=`` setting: the returned result carries a
        :class:`~repro.obs.tracer.Tracer` on ``result.trace`` (per-span
        simulated timings, Chrome export, per-operator profile).
        """
        return self._submit(
            sql, name, self._new_tracer(force=analyze)
        ).result()

    def _new_tracer(self, force: bool = False):
        """A fresh per-query :class:`~repro.obs.tracer.Tracer` when the
        statement runs traced (``trace=on`` spec / ``REPRO_TRACE`` /
        ``force``), else None."""
        if force or self.config.effective("trace"):
            from .obs import Tracer

            return Tracer(engine=self.config.spec)
        return None

    def _prepare(self, sql: str, name: str, tracer=None, config=None):
        """``(entry, executable program)`` of ``sql`` through the plan
        cache, noting hit or miss on the statement's tracer."""
        self._check_open()
        cache_stats = self.plan_cache.stats
        misses_before = cache_stats.misses
        prepared = self.plan_cache.prepare(
            sql, config or self.config, self.database.schema, name=name
        )
        if tracer is not None:
            tracer.event("plan_cache.lookup", cat="plancache",
                         hit=cache_stats.misses == misses_before,
                         query=name)
        return prepared

    def _submit(self, sql: str, name: str, tracer,
                timeout: Optional[float] = None) -> QueryFuture:
        """The one way a statement becomes a query: compiled through
        the plan cache, then a flight of the session scheduler."""
        entry, program = self._prepare(sql, name, tracer)
        return self.scheduler.submit(
            entry, name=name, timeout=timeout, program=program,
            tracer=tracer,
        )

    def run_plan(self, program: MALProgram) -> QueryResult:
        """Run an already-compiled MAL program (uncached: a throw-away
        plan-cache entry, the same flight otherwise)."""
        self._check_open()
        plan = self.config.plan(program)
        return self.scheduler.submit(
            CachedPlan(key=(), program=plan), name=plan.name
        ).result()

    def explain(self, sql: str, name: str = "query",
                no_fuse: bool = False, no_morsel: bool = False,
                analyze: bool = False) -> str:
        """The optimized MAL plan this connection would execute.

        Served through the plan cache — explaining a statement and then
        executing it compiles once, and ``explain`` after ``execute`` is
        a cache hit showing exactly the cached plan.  Fused regions
        render as ``fuse.pipe`` (``ocelot.pipe`` after the rewriter)
        with their expression trees inlined, and morsel regions as
        ``morsel.run`` with the region boundary (driving table, morsel
        size, member chain, escaping outputs) inlined.  Pass
        ``no_fuse=True`` / ``no_morsel=True`` for the comparison plans
        compiled with the respective pass disabled (cached separately,
        so the plans coexist).

        ``analyze=True`` is EXPLAIN ANALYZE: the statement actually
        *executes* (with tracing forced on) and the plan text is
        followed by the per-operator profile — simulated time, launches,
        rows, bytes and the devices/encodings each operator really used.
        The static ``# encodings:`` line renders the driver catalog's
        storage choices; the analyze profile's ``# encodings
        (observed):`` note reports what each shard read at runtime,
        which is the truth on partitioned tables.  ``no_fuse`` /
        ``no_morsel`` are ignored under ``analyze`` — the profile
        describes the plan this connection executes."""
        config = self.config
        if no_fuse and not analyze:
            config = config.with_knob_off("fusion")
        if no_morsel and not analyze:
            config = config.with_knob_off("morsel")
        tracer = self._new_tracer(force=True) if analyze else None
        entry, program = self._prepare(sql, name, tracer, config)
        text = program.format()
        encodings = self._plan_encodings(program)
        if encodings:
            text += "\n# encodings: " + ", ".join(encodings)
        if analyze:
            from .obs import render_profile

            self.scheduler.submit(
                entry, name=name, program=program, tracer=tracer
            ).result()
            text += "\n" + render_profile(tracer)
        return text

    def _plan_encodings(self, program: MALProgram) -> list[str]:
        """``table.column=codec(payload)`` annotations for every bound
        column the catalog stores encoded (:mod:`repro.compress`)."""
        catalog = self.database.catalog
        seen: set[tuple[str, str]] = set()
        notes = []
        for instruction in program.instructions:
            if (instruction.module, instruction.function) != ("sql", "bind"):
                continue
            ref = instruction.args[0]
            key = (ref.table, ref.column)
            if key in seen:
                continue
            seen.add(key)
            try:
                bat = catalog.bat(ref.table, ref.column)
            except KeyError:
                continue
            encoding = getattr(bat, "encoding", None)
            if encoding is None:
                continue
            if encoding.kind == "dict":
                detail = str(encoding.codes.dtype)
            elif encoding.kind == "for":
                detail = str(encoding.deltas.dtype)
            else:
                detail = f"{encoding.run_values.size} runs"
            notes.append(
                f"{ref.table}.{ref.column}={encoding.kind}({detail})"
            )
        return notes

    # -- statistics --------------------------------------------------------------

    @property
    def metrics(self):
        """The connection's unified metrics registry (created on first
        use): one dotted namespace over the plan cache, the backend's
        ``counters()`` (compression, memory managers, interconnect,
        cluster), the breakers and the scheduler, with ``snapshot()`` /
        ``diff()`` and the slow-query log.  See
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        if self._metrics is None:
            from .obs import MetricsRegistry

            self._metrics = MetricsRegistry(self)
        return self._metrics

    # -- the session scheduler --------------------------------------------------

    @property
    def scheduler(self) -> SessionScheduler:
        """The connection's session scheduler (created on first use)."""
        if self._scheduler is None:
            self._scheduler = SessionScheduler(self)
        return self._scheduler

    def submit(self, sql: str, name: str = "query",
               timeout: Optional[float] = None) -> QueryFuture:
        """Admit one statement as a flight of the scheduler; returns a future.

        In-flight queries advance one instruction per turn, round-robin.
        Where the engine's timeline lets sessions overlap (HET's device
        pool, SHARD's children) several are in flight at once and
        independent queries on different devices run at the same
        simulated time; on a serial timeline (MS, MP, CPU, GPU) they
        take the machine one after the other.  Drive the scheduler with
        :meth:`drain` or by awaiting any future's ``result()``.

        ``timeout`` is a deadline in simulated seconds: a query still
        running past it fails with :class:`~repro.serve.session
        .QueryTimeout` (checked cooperatively at turn granularity).
        Defaults to the engine spec's ``timeout=`` parameter (0 = none).
        """
        if timeout is None:
            timeout = self.config.effective("timeout") or None
        return self._submit(sql, name, self._new_tracer(), timeout)

    def drain(self) -> None:
        """Run every submitted query to completion."""
        self.scheduler.drain()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight sessions and release the backend's resources.

        Idempotent.  The database drops its cached reference, so a later
        ``connect`` with the same spec opens a fresh backend."""
        if self._closed:
            return
        self.drain()
        self.backend.shutdown()
        self._closed = True
        cached = self.database._connections
        if cached.get(self.engine) is self:
            del cached[self.engine]

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Connection":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Database:
    """An in-memory column-store database (catalog + schema)."""

    def __init__(self, data_scale: float = 1.0):
        self.catalog = Catalog()
        self.schema = CatalogSchema(self.catalog)
        self.data_scale = float(data_scale)
        #: compiled plans shared by every connection, keyed by
        #: (SQL text, engine) and valid while the tables they read
        #: stand — see :mod:`repro.serve.plancache`
        self.plan_cache = PlanCache(self.catalog)
        self._connections: dict[str, Connection] = {}

    # -- DDL -------------------------------------------------------------

    def create_table(self, name: str, columns: dict[str, np.ndarray],
                     dictionaries: Optional[dict[str, list[str]]] = None):
        """Register a table from numpy columns.

        ``dictionaries`` maps column names to string-value lists; such
        columns must contain int32 dictionary codes and become queryable
        with string equality literals.

        DDL stamps the table with a fresh catalog version, so cached
        plans that read it (none yet, unless it replaces a dropped
        table of the same name) recompile while plans over other tables
        stay cached, and every live backend is notified (the sharded
        engine partitions the new table).
        """
        self.catalog.create_table(name, columns)
        for column, values in (dictionaries or {}).items():
            dict_name = f"{name}.{column}"
            self.schema.dictionaries[dict_name] = list(values)
            self.schema.column_dicts[(name, column)] = dict_name
        self._after_ddl()

    def drop_table(self, name: str) -> None:
        """Drop a table, its string dictionaries and the cached plans
        that read it."""
        self.catalog.drop_table(name)
        schema = self.schema
        for key in [key for key in schema.column_dicts if key[0] == name]:
            schema.dictionaries.pop(schema.column_dicts.pop(key), None)
        self._after_ddl()

    def declare_shard_key(self, table: str, column: str,
                          domain: Optional[str] = None) -> None:
        """Declare ``table.column`` as the table's shard key.

        Sharded engines place the table's rows by key value; tables
        keyed in one *domain* (defaulting to the column name sans its
        table prefix, so ``lineitem.l_orderkey`` and
        ``orders.o_orderkey`` meet in ``"orderkey"``) co-partition, and
        equi-joins on their keys run shard-local with zero driver
        traffic (:mod:`repro.shard`).  Live sharded backends
        re-partition; no cached plan recompiles (a key is layout, and
        a plan holds none).
        """
        self.catalog.declare_shard_key(table, column, domain=domain)
        self._after_ddl()

    def _after_ddl(self) -> None:
        self.plan_cache.invalidate_schema()
        for connection in list(self._connections.values()):
            if connection.backend.schema_changed():
                # a neighbour keyed in the touched table's domain was
                # re-sliced under the statements in flight: re-run them
                connection.scheduler.park_in_flight()

    # -- elastic re-sharding -----------------------------------------------

    def add_shard(self) -> None:
        """Grow every live sharded connection's cluster by one node.

        The re-shard is **online**: the new node gets a fresh id and the
        roster plus that id is queued; in-flight ``submit()`` batches
        drain against the installed layout, and the first query
        boundary with nothing in flight re-slices every table over the
        new roster — before returning, on an idle connection.
        """
        self._resize_shards(+1)

    def remove_shard(self) -> None:
        """Shrink every live sharded connection's cluster by one node.

        Online like :meth:`add_shard`.  An excluded node (a tripped one
        on a ``replicas=1`` cluster) retires first, else the highest
        node id; a shrink that would leave no healthy node raises
        ``ValueError``."""
        self._resize_shards(-1)

    def _resize_shards(self, delta: int) -> None:
        resized = 0
        for connection in list(self._connections.values()):
            cluster = connection.backend.cluster
            if cluster is None:
                continue
            target = cluster.nodes + delta
            if target < 1:
                raise ValueError(
                    f"connection {connection.engine!r} cannot shrink "
                    f"below one node (currently {cluster.nodes})"
                )
            cluster.request_resize(target)
            resized += 1
            if connection.scheduler.idle:
                # nothing in flight: install the queued roster here (a
                # busy scheduler does it when its batch drains)
                cluster.settle()
        if not resized:
            raise RuntimeError(
                "no live sharded connections to resize; connect a "
                "SHARD:<N>x<CHILD> engine first"
            )

    # -- connections -----------------------------------------------------------

    def connect(self, engine: str = "CPU") -> Connection:
        """The connection for one engine spec (registry-resolved).

        ``"MS"``/``"MP"`` are the MonetDB baselines, ``"CPU"``/``"GPU"``
        run Ocelot on one simulated device, ``"HET"`` schedules each
        query across the CPU *and* the GPU at once (cost-based placement
        plus partitioned fan-out; see :mod:`repro.sched`), and
        ``"SHARD:<N>x<CHILD>"`` partitions tables across N simulated
        nodes each running CHILD (see :mod:`repro.shard`).  Anything
        registered via :func:`repro.register_engine` connects the same
        way; unknown specs raise listing the registered engines.

        Connections are cached per canonical spec: repeated
        ``connect("HET")`` — or ``connect("shard:4xhet")`` after
        ``connect("SHARD:4xHET")`` — returns the same object, so device
        probes run once and the backend's device caches stay warm
        across queries.
        """
        spec = default_registry.parse(engine).canonical
        connection = self._connections.get(spec)
        if connection is None:
            connection = Connection(self, spec)
            self._connections[spec] = connection
        return connection

    def execute(self, sql: str, engine: str = "CPU",
                name: str = "query") -> QueryResult:
        """One-shot convenience: cached connection + execute.

        ``name`` is forwarded to the plan cache (it names the compiled
        MAL program and is part of the cache key), matching
        :meth:`Connection.execute`.
        """
        return self.connect(engine).execute(sql, name=name)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close every cached connection (drain sessions, free buffers)."""
        for connection in list(self._connections.values()):
            connection.close()
        self._connections.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def tpch_database(sf: float = 1.0, seed: int = 7) -> Database:
    """A :class:`Database` pre-loaded with the mini-scale TPC-H instance
    (Appendix-A schema, nominal sizes matching the real scale factor)."""
    from .tpch.dbgen import generate
    from .tpch.schema import DICTIONARIES, TABLES

    data = generate(sf=sf, seed=seed)
    db = Database(data_scale=data.data_scale)
    for name, columns in data.tables.items():
        dictionaries = {}
        for column in TABLES[name].columns:
            if column.dictionary is not None:
                dictionaries[column.name] = DICTIONARIES.get(
                    column.dictionary, []
                )
        db.create_table(name, columns, dictionaries or None)
    return db
