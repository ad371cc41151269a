"""The plan cache: memoised ``compile_sql`` -> rewrite.

Repeat queries are the common case in a serving system, and everything
between the SQL text and the executable plan is deterministic here:
parsing, lowering and the engine's optimizer pipeline (the Ocelot
rewriter).  So that front half of the query lifecycle is cacheable:

* **key** — ``(template, canonical engine spec, program name)`` plus
  :meth:`repro.engines.EngineConfig.plan_key`.  The template is the
  :class:`~repro.sql.params.Template` that
  :func:`repro.sql.params.parameterise` returns: the parsed statement
  with every literal an ``ast.Param``, compared and hashed by its
  serialisation, so whitespace, comments and literal values do not
  split it; a miss lowers its tree without parsing again.  The engine
  component is :attr:`repro.engines.EngineConfig.spec` — e.g. ``"CPU"`` or
  ``"SHARD:4xHET"`` — so differently-parameterized instances of one
  family never share plans; the plan key holds the effective value of
  every knob a compiled plan depends on (fusion, morsel size,
  compression mode — spec setting *and* environment override), so
  plans compiled under different settings of one statement stay apart.
* **validity** — one rule: **a cached plan is valid while the tables
  it reads are the tables it was compiled against** — per table, the
  way the paper's Ocelot drops device copies per BAT (§4.3) instead of
  flushing the device.  An entry records
  :meth:`~repro.monetdb.storage.Catalog.table_version` of each base
  table the lowerer resolved in FROM (``MALProgram.tables`` on
  ``compile_sql``'s output — the compile consults the schema for those
  tables only, and no rewrite pass reads the catalog) and is served
  only while all of them still match.  A ``CREATE``/``DROP`` therefore
  recompiles the statements that read the table it touched and no
  others; a shard-key declaration, a failover, a resize or a
  ``keys=infer`` adoption recompiles nothing, because a plan holds
  nothing about a layout (the sharded engine decides each join when it
  runs).  A stale entry met by a lookup is one counted invalidation and
  one miss, and is replaced in place; queries already admitted keep the
  entry they were bound to.
* **value** — the *rewritten* :class:`~repro.monetdb.mal.MALProgram`
  (plans are immutable and re-runnable) and nothing a run decides: the
  heterogeneous engine places every dispatch from the operands and
  residency in front of it, as the paper's Ocelot decides per BAT.
* **eviction** — least-recently-used beyond ``max_entries``; entries
  that no longer validate are purged (and counted) by
  :meth:`invalidate_schema`, which every ``Database`` DDL call runs.

Counters live in :class:`CacheStats`, surfaced as
``Connection.plan_cache.stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

#: bound (value-substituted) programs kept per parameterised entry, so
#: repeat executions with the same argument values reuse the identical
#: program object instead of re-substituting
BOUND_PLANS_PER_ENTRY = 16


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one :class:`PlanCache`
    (``plan_cache.*`` in ``Connection.metrics``)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations}"
        )


@dataclass
class CachedPlan:
    """One memoised plan."""

    key: tuple
    program: object                    # rewritten MALProgram
    #: the catalog state the compile depended on: the stamp of every
    #: base table in FROM
    versions: dict = field(default_factory=dict)
    hits: int = 0
    #: bound-program LRU for parameterised plans: values tuple -> the
    #: executable program with those values substituted
    binds: OrderedDict = field(default_factory=OrderedDict)


class PlanCache:
    """LRU cache of compiled, rewritten plans."""

    def __init__(self, catalog, max_entries: int = 256):
        self.catalog = catalog
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, sql, config, name: str) -> tuple:
        return (sql, config.spec, name) + config.plan_key()

    def _valid(self, entry: CachedPlan) -> bool:
        """Whether the tables ``entry`` reads are the ones it compiled
        against."""
        catalog = self.catalog
        for table, version in entry.versions.items():
            if catalog.table_version(table) != version:
                return False
        return True

    def lookup(self, sql, config, schema, name: str = "query"
               ) -> CachedPlan:
        """The cached plan for ``sql`` — SQL text or a parameterised
        :class:`~repro.sql.params.Template` — under ``config``,
        compiling (and running the config's optimizer pipeline) on a
        miss."""
        key = self._key(sql, config, name)
        entry = self._entries.get(key)
        if entry is not None:
            if self._valid(entry):
                self.stats.hits += 1
                entry.hits += 1
                self._entries.move_to_end(key)
                return entry
            del self._entries[key]
            self.stats.invalidations += 1
        from ..sql.lower import compile_sql

        self.stats.misses += 1
        catalog = self.catalog
        compiled = compile_sql(sql, schema, name=name)
        entry = CachedPlan(
            key=key, program=config.plan(compiled),
            versions={table: catalog.table_version(table)
                      for table in compiled.tables},
        )
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def prepare(self, sql: str, config, schema, name: str = "query"
                ) -> "tuple[CachedPlan, object]":
        """Parameterised lookup: ``(entry, executable program)``.

        ``sql`` is parsed once and its literals become bind parameters
        (:func:`~repro.sql.params.parameterise`), so every literal
        variation of one query shape — constant arithmetic included —
        shares a single cached template plan; the concrete values are
        substituted into a bound copy here (memoised per values tuple).
        A statement without literals binds to the entry's program
        itself.
        """
        from ..sql.params import bind_program, parameterise

        template, values = parameterise(sql)
        entry = self.lookup(template, config, schema, name=name)
        bound = entry.binds.get(values)
        if bound is None:
            bound = bind_program(entry.program, values, schema)
            entry.binds[values] = bound
            while len(entry.binds) > BOUND_PLANS_PER_ENTRY:
                entry.binds.popitem(last=False)
        else:
            entry.binds.move_to_end(values)
        return entry, bound

    # no caller; the frozen perf/yardstick/spans.py binds it by name
    def invalidate_placements(self, engine_spec: str) -> int:
        stale = [
            key for key in self._entries if key[1] == engine_spec
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_schema(self) -> int:
        """Purge exactly the entries that no longer validate.

        Correctness never depends on this — :meth:`lookup` checks every
        entry it serves — but purging frees the plans of dropped tables
        and feeds the invalidation counter."""
        stale = [key for key, entry in self._entries.items()
                 if not self._valid(entry)]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
